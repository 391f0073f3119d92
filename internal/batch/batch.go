// Package batch defines the unit of data flow between operators: a page of
// rows. QPipe exchanges data between packets page-at-a-time rather than
// tuple-at-a-time; batches are those pages. The push-based SP model copies
// batches into each satellite's own list (the serialization point the paper
// identifies), while the pull-based SPL shares a single immutable batch among
// all consumers.
//
// # One exchange form
//
// Every batch is a view: a refcounted vec.ColBatch plus an ascending selection
// naming the batch's rows within it. A scan publishes (page batch, surviving
// selection), a filter narrows the selection and republishes the same page
// batch, a projection republishes a zero-copy column remap, a join, an
// aggregate or a sort fills a pooled ColBatch of its own, and the CJOIN
// distributor publishes its routed output columns directly — no rows are built
// anywhere on the data path. Rows are built once, where a user reads them
// (RowsView: the engine's root drain and the query server's NDJSON encoder),
// from the batch's own columns. A push-model Clone is a column copy.
//
// Batches are reference-counted so the underlying ColBatch recycles
// deterministically: the creator's reference transfers downstream with the
// batch, every additional concurrent consumer (an SPL reader) takes its own
// via Retain, and each consumer calls Done when finished with the batch.
// The last Done releases the ColBatch back to its pool. A sealed ColBatch
// is immutable, so any number of consumers may read the view concurrently
// through Cols while they hold a reference.
//
// The one exception is a literal (Of): a batch built from rows, outside the
// pool and not counted by vec.LiveBatches, whose Retain and Done are no-ops —
// so one literal may be published any number of times.
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

// Batch is a page of rows. Once a producer hands a batch downstream the
// batch and its columns must be treated as immutable; this is what makes the
// zero-copy SPL hand-off safe.
type Batch struct {
	cb  *vec.ColBatch // the batch owns references counted by refs
	sel []int32       // rows of the batch within cb
	lit bool          // a literal: not refcounted

	refs atomic.Int32 // outstanding batch references

	mu   sync.Mutex // guards lazy row materialization
	rows []types.Row
}

// Of builds a literal batch holding rows (tests and benchmarks): a sealed
// ColBatch outside the pool, which Retain and Done leave alone. Like every
// column, a literal's column is NULL or of one kind in every row: a row of a
// second kind panics.
func Of(rows ...types.Row) *Batch {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	cb := vec.FromRows(ncols, rows)
	return &Batch{cb: cb, sel: cb.AllSel(), lit: true}
}

// FromView builds a batch over cb, which must be sealed: row i of the batch is
// row sel[i] of cb (sel nil means every row of cb). Ownership of the caller's
// reference on cb moves into the batch; the batch releases cb when its own
// reference count (the implicit creator reference plus any Retains) drops to
// zero via Done.
func FromView(cb *vec.ColBatch, sel []int32) *Batch {
	if sel == nil {
		sel = cb.AllSel()
	}
	b := &Batch{cb: cb, sel: sel}
	b.refs.Store(1)
	return b
}

// Retain takes an additional reference for a new concurrent consumer. Every
// Retain must be paired with a Done.
func (b *Batch) Retain() {
	if !b.lit {
		b.refs.Add(1)
	}
}

// Done releases one reference; the last release returns the underlying
// ColBatch to its pool. A consumer must not touch the batch (or slices
// obtained from Cols) after its Done.
func (b *Batch) Done() {
	if b.lit {
		return
	}
	switch n := b.refs.Add(-1); {
	case n == 0:
		b.cb.Release()
	case n < 0:
		panic("batch: Done without matching reference")
	}
}

// Cols returns the batch's columns and the ascending selection naming its
// rows within them (cb.AllSel() for every row). The view is read-only and
// valid while the caller holds a reference (i.e. until its Done); concurrent
// consumers may all read it.
func (b *Batch) Cols() (*vec.ColBatch, []int32) { return b.cb, b.sel }

// RowsView returns the batch's rows, materializing them from the columns on
// first use (at most once per batch, shared by all consumers). The caller
// must hold a reference. The returned rows are immutable and remain valid
// after the batch's ColBatch is recycled — datums copy out payloads and
// string bytes are independent heap objects.
func (b *Batch) RowsView() []types.Row {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rows == nil {
		b.rows = make([]types.Row, len(b.sel)) // non-nil even when empty
		for i, r := range b.sel {
			b.rows[i] = b.cb.Row(int(r))
		}
	}
	return b.rows
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.sel) }

// Clone returns a private copy of the batch: a pooled ColBatch holding the
// selected rows, gathered column by column. This is the per-consumer copy the
// push-based SP model performs — its cost is exactly the overhead Scenario I
// measures. The copy shares no array with the batch or with another clone.
// The caller must hold a reference while cloning.
func (b *Batch) Clone() *Batch {
	c := vec.Get(b.cb.NumCols())
	c.Reserve(len(b.sel))
	for i := range c.NumCols() {
		c.Col(i).AppendGather(b.cb.Col(i), b.sel)
	}
	c.Seal(len(b.sel))
	return FromView(c, nil)
}
