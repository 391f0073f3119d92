package cjoin

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/dimtab"
	"repro/internal/types"
	"repro/internal/vec"
)

// dimTable is one dimension of the chain: a reference to the dimension's
// shared join index (storage.Table.Indexes, every column in schema order),
// taken by NewOperator and probed concurrently by every worker through
// Find, and the dimension's entry bitmaps. cb is the index's entry batch
// (row e is entry e): admission evaluates a query's dimension predicate
// over it once, and the distributor routes payload columns out of it.
// Operator.Close drops the reference.
//
// bits holds the entry bitmaps slot-major: bits[w][e] is entry e's word w,
// the bits of slots 64w…64w+63. The scanner is its only writer, so a
// plain load and store set or clear a bit (go.mod's go 1.22 predates
// atomic Or and And); it appends a column when slot ids outgrow the
// columns, and never moves one, so the column headers a slotView copied
// stay valid. Workers read the words concurrently with atomic loads.
type dimTable struct {
	idx  int
	spec DimSpec
	ix   *dimtab.Index
	tab  *dimtab.Table
	cb   *vec.ColBatch
	bits [][]atomic.Uint64
}

// DuplicateKeyError is NewOperator's refusal of a dimension whose join key
// repeats: CJOIN joins a fact tuple to one dimension entry, while the
// query-centric hash join emits a row per equal entry, so the two lines
// would answer the star differently.
type DuplicateKeyError struct {
	Table  string      // dimension table
	Column string      // its join key column
	Key    types.Datum // a repeated key
}

func (e *DuplicateKeyError) Error() string {
	return fmt.Sprintf("cjoin: dimension %q repeats join key %s = %v", e.Table, e.Column, e.Key)
}

func newDimTable(idx int, spec DimSpec) (*dimTable, error) {
	t := spec.Table
	ix, err := t.Indexes.Acquire(context.Background(), t.File, spec.DimKeyCol)
	if err != nil {
		return nil, fmt.Errorf("cjoin: build hash table for %q: %w", t.Name, err)
	}
	tab := ix.Table()
	if e := tab.Dup(); e >= 0 {
		err := &DuplicateKeyError{Table: t.Name, Column: t.Schema.Cols[spec.DimKeyCol].Name,
			Key: tab.Batch().Col(spec.DimKeyCol).Datum(int(e))}
		ix.Release()
		return nil, err
	}
	return &dimTable{idx: idx, spec: spec, ix: ix, tab: tab, cb: tab.Batch()}, nil
}

// writeBits sets (or clears) sub's slot bit in the entry bitmap of every
// entry its Keep of t holds; a nil Keep holds every entry, which also covers
// a query whose selection panicked. A dimension sub does not reference
// holds none of its bits. Only the scanner calls it.
func (t *dimTable) writeBits(sub *subscription, set bool) {
	if !sub.dimRef[t.idx] {
		return
	}
	col, bit := t.bits[sub.id/64], uint64(1)<<(uint(sub.id)&63)
	t.tab.Each(sub.dimKeep[t.idx], func(e int32) {
		if set {
			col[e].Store(col[e].Load() | bit)
		} else {
			col[e].Store(col[e].Load() &^ bit)
		}
	})
}

// slotView is the slot state in force between two control ticks: the open
// queries, in admission order, the bitmap width, the dimensions some open
// query routes a column from, and per dimension the stage mask of slots
// referencing it and the entry bitmap columns. The scanner
// builds one per control tick, and every page dealt until the next carries
// it, so a worker reads exactly the slots open when its page was dealt. It
// is immutable once built.
type slotView struct {
	subs   []*subscription
	nslots int   // one past the highest slot id ever opened
	routed []int // dimensions some query routes a payload column from, ascending
	dims   []viewDim
}

// viewDim is one dimension's part of a slotView.
type viewDim struct {
	mask []uint64          // slots referencing the dimension
	bits [][]atomic.Uint64 // the dimension's entry bitmap columns (dimTable.bits)
}

// newView builds the slot view of the open queries subs over tables, nslots
// slots wide.
func newView(tables []*dimTable, subs []*subscription, nslots int) *slotView {
	words := max((nslots+63)/64, 1)
	v := &slotView{subs: subs, nslots: nslots, dims: make([]viewDim, len(tables))}
	masks := make([]uint64, len(tables)*words)
	for d, t := range tables {
		v.dims[d] = viewDim{mask: masks[d*words : (d+1)*words : (d+1)*words], bits: t.bits}
	}
	routes := make([]bool, len(tables))
	for _, sub := range subs {
		for d, ref := range sub.dimRef {
			if ref {
				v.dims[d].mask[sub.id/64] |= 1 << (uint(sub.id) & 63)
			}
		}
		for _, rc := range sub.route {
			if rc.dim >= 0 {
				routes[rc.dim] = true
			}
		}
	}
	for d, r := range routes {
		if r {
			v.routed = append(v.routed, d)
		}
	}
	return v
}
