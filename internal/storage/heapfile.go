package storage

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vec"
)

// HeapFile is a table stored as a sequence of pages on a Disk. Rows are
// appended during bulk load (write-through, bypassing the pool) and read
// through the buffer pool afterwards. Its schema is the storage contract:
// every stored datum is NULL or of its column's declared kind.
type HeapFile struct {
	disk   Disk
	pool   *BufferPool
	id     FileID
	name   string
	schema *types.Schema
	kinds  []types.Kind // the schema's column kinds

	mu      sync.Mutex
	builder *pageBuilder
	staging *chunk // Append's rows, column by column
	numRows int
	sealed  bool
	// encode is a flush's WritePage fill: it finishes the builder's page
	// into the disk's and leaves the page's zone maps in encoded. It is made
	// once, so a flush allocates no closure.
	encode  func(page []byte)
	encoded []ZoneMap

	// numPages counts the flushed pages and zones holds their zone maps,
	// indexed by page. Flush writes a page's entry under mu and then
	// publishes it by bumping numPages, so PageZones — once per page per
	// query — reads without the lock. A full array is replaced by a larger
	// copy, never rewritten, and a published entry never changes.
	numPages atomic.Int64
	zones    atomic.Pointer[[][]ZoneMap]

	// version counts content mutations (appends, sealing). Readers that
	// cache derived results (the engine's materialized result cache)
	// snapshot it and treat any change as wholesale invalidation.
	version atomic.Uint64
}

// KindError is the refusal of a datum that is neither NULL nor of its
// column's declared kind.
type KindError struct {
	Table  string // the heap file's name
	Column string
	Want   types.Kind // the column's declared kind
	Got    types.Kind
}

func (e *KindError) Error() string {
	return fmt.Sprintf("storage: table %q column %q is %v, got a %v datum", e.Table, e.Column, e.Want, e.Got)
}

// NewHeapFile creates an empty heap file named name on the disk. Every
// column of the schema must be of a kind a page stores: int, float, string,
// date or bool.
func NewHeapFile(disk Disk, pool *BufferPool, name string, schema *types.Schema) (*HeapFile, error) {
	kinds := make([]types.Kind, schema.Len())
	for i, c := range schema.Cols {
		if c.Kind < types.KindInt || c.Kind > types.KindBool {
			return nil, fmt.Errorf("storage: table %q column %q: kind %v cannot be stored", name, c.Name, c.Kind)
		}
		kinds[i] = c.Kind
	}
	id, err := disk.CreateFile(name)
	if err != nil {
		return nil, err
	}
	pool.RegisterFileName(id, name)
	h := &HeapFile{
		disk:    disk,
		pool:    pool,
		id:      id,
		name:    name,
		schema:  schema,
		kinds:   kinds,
		builder: newPageBuilder(kinds),
	}
	h.encode = func(page []byte) {
		h.builder.finish(page)
		h.encoded = ReadPageZones(page)
	}
	h.zones.Store(new([][]ZoneMap))
	return h, nil
}

// Schema returns the row schema.
func (h *HeapFile) Schema() *types.Schema { return h.schema }

// ID returns the underlying disk file id.
func (h *HeapFile) ID() FileID { return h.id }

// Append bulk-loads rows, flushing full pages to disk. Not valid after Seal.
// A row holding a datum that is neither NULL nor of its column's kind is
// refused with a *KindError, and nothing of it is stored. The version moves
// whenever a row was admitted, even if a later one fails: pages the call
// flushed before the failure are already visible to scans. The rows go
// column by column into a chunk and through the one admission path Load
// takes.
func (h *HeapFile) Append(rows ...types.Row) error {
	return h.adding(func() error { return h.appendRowsLocked(rows) })
}

// appendChunk is Append for a chunk Load filled.
func (h *HeapFile) appendChunk(ch *chunk) error {
	return h.adding(func() error { return h.admitLocked(ch) })
}

// adding runs add under the lock on a file not sealed yet, and moves the
// version if add admitted a row.
func (h *HeapFile) adding(add func() error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sealed {
		return fmt.Errorf("storage: append to sealed heap file")
	}
	before := h.numRows
	err := add()
	if h.numRows > before {
		h.version.Add(1)
	}
	return err
}

func (h *HeapFile) appendRowsLocked(rows []types.Row) error {
	width := h.schema.Len()
	for len(rows) > 0 {
		n := min(len(rows), loadChunkRows)
		if h.staging == nil || h.staging.size < n {
			h.staging = newChunk(h.kinds, n)
		}
		ch := h.staging
		ch.reset()
		var werr error
		w := ch.writer()
		for ; w.row < n; w.row++ {
			r := rows[w.row]
			if len(r) != width {
				werr = fmt.Errorf("storage: row width %d, schema width %d", len(r), width)
				break
			}
			for c := range r {
				w.Set(c, &r[c])
			}
			if ch.bad.row >= 0 {
				break
			}
		}
		ch.n = w.row
		if err := h.admitLocked(ch); err != nil || werr != nil {
			return cmp.Or(err, werr)
		}
		rows = rows[n:]
	}
	return nil
}

// admitLocked admits ch's rows, flushing each page that fills, and returns
// the chunk's refusal as a *KindError once the rows before it are stored.
func (h *HeapFile) admitLocked(ch *chunk) error {
	for s := 0; s < ch.n; {
		next := h.builder.admitChunk(ch, s, ch.n)
		h.numRows += next - s
		if next == ch.n {
			break
		}
		if h.builder.empty() {
			return fmt.Errorf("storage: row larger than page (%d bytes max)", PageSize)
		}
		if err := h.flushLocked(); err != nil {
			return err
		}
		s = next
	}
	if b := ch.bad; b.row >= 0 {
		c := h.schema.Cols[b.col]
		return &KindError{Table: h.name, Column: c.Name, Want: c.Kind, Got: b.got}
	}
	return nil
}

// Load bulk-loads n rows and seals the file: the one bulk-load path. fill(i,
// row) writes row i through row, a cursor into a chunk of typed columns;
// Load calls it on the caller's goroutine for i = 0, 1, …, n-1 in order, so a
// generator drawing from one random source draws exactly as a serial loop
// would. The chunks hold loadChunkRows rows each and are recycled: a second
// goroutine admits each full chunk in order, a block of rows at a time, while
// the caller fills the next. A datum of another kind than its column's ends
// the chunk at its row, and the load fails with its *KindError once the rows
// before it are stored. Load returns the first admission or Seal error,
// stops calling fill within a chunk or two of an admission failing, and
// returns only after its goroutine has exited.
func (h *HeapFile) Load(n int, fill func(i int, row *RowWriter)) error {
	// Every chunk is either free, being filled or queued for the appender,
	// so neither channel ever holds more than loadChunks.
	free := make(chan *chunk, loadChunks)
	full := make(chan *chunk, loadChunks)
	chunkRows := min(loadChunkRows, n)
	for k := 0; k < loadChunks && k*chunkRows < n; k++ {
		free <- newChunk(h.kinds, chunkRows)
	}
	failed := make(chan struct{}) // closed by the appender on its error
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		for ch := range full {
			if err = h.appendChunk(ch); err != nil {
				close(failed)
				return
			}
			free <- ch
		}
	}()
	func() {
		defer func() { close(full); <-done }() // also when fill panics
		var w RowWriter
		for i := 0; i < n; {
			var ch *chunk
			select {
			case ch = <-free:
			case <-failed:
				return
			}
			ch.reset()
			w = ch.writer()
			for rows := min(chunkRows, n-i); w.row < rows && ch.bad.row < 0; w.row++ {
				fill(i+w.row, &w)
			}
			ch.n = w.row
			if ch.bad.row >= 0 { // the chunk's last row: admit those before it and stop
				ch.n = ch.bad.row
				full <- ch
				return
			}
			i += ch.n
			full <- ch
		}
	}()
	if err != nil {
		return err
	}
	return h.Seal()
}

// The load pipeline's chunks: loadChunkRows rows each, loadChunks of them in
// flight (about 300 KB for the twelve-column SSB fact table: 8 bytes a value).
const (
	loadChunkRows = 1024
	loadChunks    = 3
)

// Version returns the content version counter: it changes whenever rows
// are appended or the file is sealed, never otherwise. Lock-free.
func (h *HeapFile) Version() uint64 { return h.version.Load() }

// flushLocked writes the partially-filled builder page to disk and keeps the
// zone maps it wrote, so pruning works from the first scan without ever
// fetching the page.
func (h *HeapFile) flushLocked() error {
	idx := int(h.numPages.Load())
	if err := h.disk.WritePage(h.id, idx, h.encode); err != nil {
		return err
	}
	zones := h.zones.Load()
	if idx == len(*zones) { // full: publish a larger copy
		grown := make([][]ZoneMap, max(64, 2*idx))
		copy(grown, *zones)
		zones = &grown
		h.zones.Store(zones)
	}
	(*zones)[idx], h.encoded = h.encoded, nil
	h.numPages.Add(1)
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
	h.builder, h.staging = nil, nil // payload arrays per column, of no use to a frozen file
	h.version.Add(1)
	return nil
}

// NumPages returns the number of flushed pages. Lock-free.
func (h *HeapFile) NumPages() int { return int(h.numPages.Load()) }

// NumRows returns the number of appended rows (including unflushed ones).
func (h *HeapFile) NumRows() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.numRows
}

// PageZones returns page idx's per-column zone maps, or nil when unknown (a
// nil result never prunes). Reading zones takes no lock, never touches the
// disk and never decodes the page.
func (h *HeapFile) PageZones(idx int) []ZoneMap {
	if idx < 0 || idx >= h.NumPages() {
		return nil
	}
	return (*h.zones.Load())[idx] // loaded after numPages: holds entry idx
}

// PageResident reports whether page idx is currently in the buffer pool
// (the demand-first scan ordering hook).
func (h *HeapFile) PageResident(idx int) bool { return h.pool.Contains(h.id, idx) }

// NotePruned forwards a pruned-page event to the pool's counters.
func (h *HeapFile) NotePruned() { h.pool.NotePruned() }

// PageCols fetches page idx through the buffer pool and opens it into a
// columnar batch of the caller's own: the page is validated in full (a
// corrupt one fails here, with its quarantined PageError), and a column is
// decoded when the caller's Col first asks for it. The caller owns
// the one reference on the batch, must Release it, and may hold it after the
// page has left the pool; its decoded columns are freed at that Release.
// Readers of one page are shared above storage (one CJOIN scanner, SP's
// shared scans), so two callers decode twice.
func (h *HeapFile) PageCols(idx int) (*vec.ColBatch, error) {
	fr, err := h.pool.Fetch(h.id, idx)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(fr)
	return h.pool.open(fr, h.schema.Len())
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
