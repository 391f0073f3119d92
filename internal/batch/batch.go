// Package batch defines the unit of data flow between operators: a page of
// rows. QPipe exchanges data between packets page-at-a-time rather than
// tuple-at-a-time; batches are those pages. The push-based SP model deep-
// copies batches into each satellite's FIFO (the serialization point the
// paper identifies), while the pull-based SPL shares a single immutable
// batch among all consumers.
//
// # Columnar exchange
//
// A batch comes in two forms. A row batch (New/Of/Append) carries
// materialized rows in Rows — the shape aggregate and sort outputs take. A
// view batch (FromView) carries a columnar view instead: a refcounted
// vec.ColBatch plus a selection vector naming the batch's rows within it.
// View batches are how the columnar form of the data survives operator
// boundaries: a scan publishes (page batch, surviving selection), a filter
// narrows the selection and republishes the same page batch, a projection
// republishes a zero-copy column remap, and the CJOIN distributor publishes
// its routed output columns directly — no rows are built anywhere on that
// path. Row materialization is lazy (RowsView), reads the batch's own columns,
// and happens at most once per batch, only for consumers that genuinely need
// rows (sort, the root drain, row-path fallbacks). A push-model Clone builds
// its private rows straight from the columns.
//
// View batches are reference-counted so the underlying ColBatch recycles
// deterministically: the creator's reference transfers downstream with the
// batch, every additional concurrent consumer (an SPL reader) takes its own
// via Retain, and each consumer calls Done when finished with the batch.
// The last Done releases the ColBatch back to its pool. A sealed ColBatch
// is immutable, so any number of consumers may read the view concurrently
// through Cols while they hold a reference.
package batch

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vec"
)

// DefaultCapacity is the default number of rows per batch. It plays the role
// of the page size in the original page-based exchange.
const DefaultCapacity = 1024

// view is the columnar backing of a view batch.
type view struct {
	cb  *vec.ColBatch // the batch owns references counted by refs
	sel []int32       // rows of the batch within cb; nil = every row of cb

	refs atomic.Int32 // outstanding batch references

	mu   sync.Mutex // guards lazy row materialization
	rows []types.Row
}

// Batch is a page of rows. Once a producer hands a batch downstream the
// batch and its rows must be treated as immutable; this is what makes the
// zero-copy SPL hand-off safe.
type Batch struct {
	// Rows is the materialized row view of a row batch. For view batches it
	// stays nil — consumers use RowsView (or Cols). Test and bulk-load code
	// may keep building row batches and reading Rows directly.
	Rows []types.Row

	view *view
}

// New returns an empty row batch with the given row capacity.
func New(capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Batch{Rows: make([]types.Row, 0, capacity)}
}

// Of builds a row batch from the given rows (testing convenience).
func Of(rows ...types.Row) *Batch { return &Batch{Rows: rows} }

// FromView builds a view batch: row i of the batch is row sel[i] of cb (sel
// nil means row i is row i of cb). Ownership of the caller's reference on cb
// moves into the batch; the batch releases cb when its own reference count
// (the implicit creator reference plus any Retains) drops to zero via Done.
func FromView(cb *vec.ColBatch, sel []int32) *Batch {
	v := &view{cb: cb, sel: sel}
	v.refs.Store(1)
	return &Batch{view: v}
}

// Retain takes an additional reference on a view batch for a new concurrent
// consumer. Every Retain must be paired with a Done. No-op on row batches.
func (b *Batch) Retain() {
	if b.view != nil {
		b.view.refs.Add(1)
	}
}

// Done releases one reference on a view batch; the last release returns the
// underlying ColBatch to its pool. A consumer must not touch the batch (or
// slices obtained from Cols) after its Done. No-op on row batches.
func (b *Batch) Done() {
	v := b.view
	if v == nil {
		return
	}
	switch n := v.refs.Add(-1); {
	case n == 0:
		v.cb.Release()
	case n < 0:
		panic("batch: Done without matching reference")
	}
}

// Cols returns the columnar view of a view batch: the column batch and the
// ascending selection naming this batch's rows within it (nil = every row).
// ok is false for row batches. The view is read-only and valid while the
// caller holds a reference (i.e. until its Done); concurrent consumers may
// all read it.
func (b *Batch) Cols() (cb *vec.ColBatch, sel []int32, ok bool) {
	if b.view == nil {
		return nil, nil, false
	}
	return b.view.cb, b.view.sel, true
}

// RowsView returns the batch's rows, materializing them from the columnar
// view on first use (at most once per batch, shared by all consumers). The
// caller must hold a reference. The returned rows are immutable and remain
// valid after the batch's ColBatch is recycled — datums copy out payloads
// and string bytes are independent heap objects.
func (b *Batch) RowsView() []types.Row {
	v := b.view
	if v == nil {
		return b.Rows
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.rows == nil {
		v.rows = v.materialize() // non-nil even when empty
	}
	return v.rows
}

// materialize builds fresh rows from the view's columns: the selected rows,
// or every row of cb without a selection.
func (v *view) materialize() []types.Row {
	if v.sel == nil {
		return v.cb.Rows()
	}
	rows := make([]types.Row, len(v.sel))
	for i, r := range v.sel {
		rows[i] = v.cb.Row(int(r))
	}
	return rows
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if v := b.view; v != nil {
		if v.sel != nil {
			return len(v.sel)
		}
		return v.cb.Len()
	}
	return len(b.Rows)
}

// Append adds a row to a row batch.
func (b *Batch) Append(r types.Row) { b.Rows = append(b.Rows, r) }

// Full reports whether a row batch reached its capacity.
func (b *Batch) Full() bool { return len(b.Rows) == cap(b.Rows) }

// Reset empties a row batch, retaining capacity. Only valid for batches that
// have not been handed downstream.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// Clone returns a deep row-batch copy of the batch (fresh row slices; datum
// payloads copied). This is the per-consumer copy the push-based SP model
// performs — its cost is exactly the overhead Scenario I measures. A view
// batch is copied once, straight from its columns into the clone's rows;
// nothing is shared with the batch or with another clone. The caller must
// hold a reference on a view batch while cloning.
func (b *Batch) Clone() *Batch {
	if b.view != nil {
		return &Batch{Rows: b.view.materialize()}
	}
	c := &Batch{Rows: make([]types.Row, len(b.Rows))}
	for i, r := range b.Rows {
		c.Rows[i] = r.Clone()
	}
	return c
}
