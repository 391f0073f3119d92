package storage

import (
	"fmt"
	"sync"

	"repro/internal/dimtab"
	"repro/internal/types"
)

// Table couples a heap file with its scan coordinator and its shared join
// indexes.
type Table struct {
	Name   string
	Schema *types.Schema
	File   *HeapFile
	group  *ScanGroup

	// Indexes holds the file's join indexes, built once per key column and
	// content version and shared by CJOIN and every hash join whose build
	// side is a filtered scan of the table (Indexes.Acquire(ctx, File, key)).
	Indexes dimtab.Set
}

// Attach starts a (shared) circular scan of the table.
func (t *Table) Attach() *ScanCursor { return t.group.Attach() }

// NumRows returns the table cardinality.
func (t *Table) NumRows() int { return t.File.NumRows() }

// Catalog owns the disk, the buffer pool and the set of tables — the
// database instance handed to the execution engine.
type Catalog struct {
	disk Disk
	pool *BufferPool

	mu     sync.Mutex
	tables map[string]*Table
}

// NewCatalog creates a database over the given disk with a buffer pool of
// poolPages frames. Every table scan attaches circularly to its table's
// in-progress sweep, as in both of the paper's systems.
func NewCatalog(disk Disk, poolPages int) *Catalog {
	return &Catalog{
		disk:   disk,
		pool:   NewBufferPool(disk, poolPages),
		tables: make(map[string]*Table),
	}
}

// Disk returns the underlying disk.
func (c *Catalog) Disk() Disk { return c.disk }

// Pool returns the buffer pool.
func (c *Catalog) Pool() *BufferPool { return c.pool }

// CreateTable creates an empty table.
func (c *Catalog) CreateTable(name string, schema *types.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	hf, err := NewHeapFile(c.disk, c.pool, name, schema)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, File: hf, group: NewScanGroup(hf)}
	c.tables[name] = t
	return t, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	return t, ok
}

// MustTable is Table that panics on unknown names (plan-builder convenience).
func (c *Catalog) MustTable(name string) *Table {
	t, ok := c.Table(name)
	if !ok {
		panic(fmt.Sprintf("storage: unknown table %q", name))
	}
	return t
}

// IndexBuilds returns how many join indexes have been built over the
// catalog's tables, failed builds included.
func (c *Catalog) IndexBuilds() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, t := range c.tables {
		n += t.Indexes.Builds()
	}
	return n
}

// Tables returns all table names (diagnostics).
func (c *Catalog) Tables() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	return names
}
