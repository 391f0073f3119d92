package cjoin

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dimtab"
	"repro/internal/types"
	"repro/internal/vec"
)

// dimTable is the shared half of one dimension of the chain: a reference to
// the dimension's shared join index (storage.Table.Indexes, every column in
// schema order), taken by NewOperator and probed concurrently by every
// worker through Find. cb is the index's entry batch (row e is entry e):
// admission evaluates a query's dimension predicate over it once, and the
// distributor routes payload columns out of it. Operator.Close drops the
// reference.
type dimTable struct {
	idx  int
	spec DimSpec
	ix   *dimtab.Index
	tab  *dimtab.Table
	cb   *vec.ColBatch
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

// dimState is one worker's replica of a dimension's slot state: entry
// bitmaps recording which slots' dimension predicates each entry satisfies,
// and the stage mask of slots referencing the dimension; the worker changes
// it only as it applies epochs, so it needs no lock. Entry bitmaps live in
// one contiguous arena — entry i owns ebits[i*estride:(i+1)*estride) — so
// opening and closing a slot sweep a flat array instead of chasing
// per-entry pointers.
type dimState struct {
	tab *dimTable
	op  *Operator

	ebits   []uint64 // entry bitmap arena
	estride int      // words per entry bitmap
	mask    []uint64 // slots referencing this dimension
}

func newDimState(tab *dimTable, op *Operator) dimState {
	return dimState{
		tab:     tab,
		op:      op,
		estride: 1,
		ebits:   make([]uint64, tab.cb.Len()),
		mask:    make([]uint64, 1),
	}
}

// growTo makes slot id addressable in the entry bitmap arena and the stage
// mask, re-striding the arena when the slot population outgrows it.
func (ds *dimState) growTo(id int) {
	need := id/64 + 1
	if need > ds.estride {
		n := ds.tab.cb.Len()
		nb := make([]uint64, n*need)
		for i := 0; i < n; i++ {
			copy(nb[i*need:], ds.ebits[i*ds.estride:(i+1)*ds.estride])
		}
		ds.ebits, ds.estride = nb, need
	}
	for need > len(ds.mask) {
		ds.mask = append(ds.mask, 0)
	}
}

// addSlot installs a query's slot bits in this replica: the stage mask, and
// the entry bitmap of every entry the query's Keep of this dimension holds
// (a reference without predicate, a nil Keep, holds every entry).
func (ds *dimState) addSlot(sub *subscription) {
	if !sub.dimRef[ds.tab.idx] {
		return // bits outside the mask pass through unchanged
	}
	ds.growTo(sub.id)
	w, bit := sub.id/64, uint64(1)<<(uint(sub.id)&63)
	ds.mask[w] |= bit
	es := ds.estride
	ds.tab.tab.Each(sub.dimKeep[ds.tab.idx], func(e int32) { ds.ebits[int(e)*es+w] |= bit })
}

// dropSlot removes a query's slot bits from this replica: addSlot set them
// on the entries of the same Keep, and on no other.
func (ds *dimState) dropSlot(sub *subscription) {
	if !bitvec.GetWord(ds.mask, sub.id) {
		return
	}
	bitvec.ClearWord(ds.mask, sub.id)
	w, bit := sub.id/64, uint64(1)<<(uint(sub.id)&63)
	es := ds.estride
	ds.tab.tab.Each(sub.dimKeep[ds.tab.idx], func(e int32) { ds.ebits[int(e)*es+w] &^= bit })
}
