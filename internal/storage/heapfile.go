package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vec"
)

// HeapFile is a table stored as a sequence of pages on a Disk. Rows are
// appended during bulk load (write-through, bypassing the pool) and read
// through the buffer pool afterwards.
type HeapFile struct {
	disk   Disk
	pool   *BufferPool
	id     FileID
	schema *types.Schema

	mu       sync.Mutex
	builder  *pageBuilder
	numPages int
	numRows  int
	sealed   bool

	// version counts content mutations (appends, sealing). Readers that
	// cache derived results (the engine's materialized result cache)
	// snapshot it and treat any change as wholesale invalidation.
	version atomic.Uint64
}

// NewHeapFile creates an empty heap file named name on the disk.
func NewHeapFile(disk Disk, pool *BufferPool, name string, schema *types.Schema) (*HeapFile, error) {
	id, err := disk.CreateFile(name)
	if err != nil {
		return nil, err
	}
	pool.RegisterFileName(id, name)
	return &HeapFile{
		disk:    disk,
		pool:    pool,
		id:      id,
		schema:  schema,
		builder: newPageBuilder(),
	}, nil
}

// Schema returns the row schema.
func (h *HeapFile) Schema() *types.Schema { return h.schema }

// ID returns the underlying disk file id.
func (h *HeapFile) ID() FileID { return h.id }

// Append bulk-loads rows, flushing full pages to disk. Not valid after Seal.
func (h *HeapFile) Append(rows ...types.Row) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sealed {
		return fmt.Errorf("storage: append to sealed heap file")
	}
	for _, r := range rows {
		if len(r) != h.schema.Len() {
			return fmt.Errorf("storage: row width %d, schema width %d", len(r), h.schema.Len())
		}
		if !h.builder.tryAppend(r) {
			if h.builder.empty() {
				return fmt.Errorf("storage: row larger than page (%d bytes max)", PageSize)
			}
			if err := h.flushLocked(); err != nil {
				return err
			}
			if !h.builder.tryAppend(r) {
				return fmt.Errorf("storage: row larger than page (%d bytes max)", PageSize)
			}
		}
		h.numRows++
	}
	if len(rows) > 0 {
		h.version.Add(1)
	}
	return nil
}

// Version returns the content version counter: it changes whenever rows
// are appended or the file is sealed, never otherwise. Lock-free.
func (h *HeapFile) Version() uint64 { return h.version.Load() }

// flushLocked writes the partially-filled builder page to disk and
// publishes the page's zone maps to the pool, so pruning works from the
// first scan without ever fetching the page.
func (h *HeapFile) flushLocked() error {
	page := h.builder.finish()
	if err := h.disk.WritePage(h.id, h.numPages, page); err != nil {
		return err
	}
	h.pool.SetZones(h.id, h.numPages, ReadPageZones(page))
	h.numPages++
	return nil
}

// Seal flushes any partial page and freezes the file for reading. Scans of a
// non-sealed file see only the flushed pages.
func (h *HeapFile) Seal() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sealed {
		return nil
	}
	if !h.builder.empty() {
		if err := h.flushLocked(); err != nil {
			return err
		}
	}
	h.sealed = true
	h.builder = nil // a kind and a payload array per column, of no use to a frozen file
	h.version.Add(1)
	return nil
}

// NumPages returns the number of flushed pages.
func (h *HeapFile) NumPages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.numPages
}

// NumRows returns the number of appended rows (including unflushed ones).
func (h *HeapFile) NumRows() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.numRows
}

// PageZones returns page idx's per-column zone maps, or nil when unknown.
// Reading zones never touches the disk or decodes the page.
func (h *HeapFile) PageZones(idx int) []ZoneMap { return h.pool.Zones(h.id, idx) }

// PageResident reports whether page idx is currently in the buffer pool
// (the demand-first scan ordering hook).
func (h *HeapFile) PageResident(idx int) bool { return h.pool.Contains(h.id, idx) }

// NotePruned forwards a pruned-page event to the pool's counters.
func (h *HeapFile) NotePruned() { h.pool.NotePruned() }

// PageCols fetches page idx through the buffer pool and returns its
// columnar batch, opened once per pool residency and shared between callers:
// the page is validated in full (a corrupt one fails here, with its
// quarantined PageError), and a fixed-width column is decoded when a caller's
// Col first asks for it. The caller owns one reference on the batch, must
// Release it, and may hold it after the page has left the pool.
func (h *HeapFile) PageCols(idx int) (*vec.ColBatch, error) {
	fr, err := h.pool.Fetch(h.id, idx)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(fr)
	return fr.DecodedCols(h.schema.Len())
}

// AllRows reads the whole file as freshly materialized rows (testing and
// bulk-build convenience; query execution uses ScanCursor instead). Nothing
// is retained on the frames.
func (h *HeapFile) AllRows() ([]types.Row, error) {
	n := h.NumPages()
	var out []types.Row
	for i := 0; i < n; i++ {
		cb, err := h.PageCols(i)
		if err != nil {
			return nil, err
		}
		out = append(out, cb.Rows()...)
		cb.Release()
	}
	return out, nil
}
