package cjoin

import (
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/vec"
)

// worker is one partitioned probe pipeline: it annotates its share of the
// fact stream and probes it through every dimension, all within one
// goroutine (no per-dimension hand-off), then forwards the surviving tuples
// to the distributor on an output of its own, in the order it took the
// pages. It holds no slot state: each page carries the slotView it was
// dealt under.
type worker struct {
	op  *Operator
	in  chan *item
	out chan *item

	// cur is the data item being processed, tracked so the panic-recovery
	// path can release its page-batch reference instead of leaking it.
	cur *item

	scratch vec.Scratch     // vectorized-predicate temporaries, worker-owned
	selBuf  []int32         // per-slot selection buffer, sized to the page
	pattern []uint64        // a page's starting bitmap: its predicate-free slots
	preds   []*subscription // a page's slots with a fact predicate to run
}

// run processes pages until the scanner closes the queue: each is
// annotated, probed through the whole chain and forwarded to the
// distributor.
func (w *worker) run() {
	defer w.op.wg.Done()
	// A worker panic (outside the per-predicate containment in annotate)
	// aborts the operator. Whichever way the worker exits, it releases the
	// in-flight item, drains the queue so no page-batch reference leaks, and
	// closes its output. The drain terminates because the scanner observes
	// closeCh and closes w.in (on a normal exit w.in is already closed and
	// empty).
	defer func() {
		if r := recover(); r != nil {
			w.op.abort(r)
		}
		if w.cur != nil {
			w.op.putItem(w.cur)
			w.cur = nil
		}
		for it := range w.in {
			w.op.putItem(it)
		}
		close(w.out)
	}()
	for it := range w.in {
		t0 := time.Now()
		w.cur = it
		w.annotate(it)
		for d, t := range w.op.tables {
			w.probe(it, t, &it.view.dims[d])
		}
		w.resolve(it)
		w.op.addBusy(time.Since(t0))
		select {
		case w.out <- it:
			w.cur = nil
		case <-w.op.closeCh:
			// Undeliverable: the deferred drain releases it with the rest of
			// the queue, and the distributor applies no tick from here on.
			return
		}
	}
}

// safeFactSel runs sub's vectorized fact predicate over the page batch. A
// panic fails the query; the page then contributes no rows to it, and every
// other slot on the page is untouched.
func (w *worker) safeFactSel(sub *subscription, cb *vec.ColBatch, all, sel []int32) []int32 {
	defer w.op.contain(sub)
	return sub.factVec(cb, all, sel, &w.scratch)
}

// annotate fills it with the page's tuples that satisfy the fact predicate
// of at least one slot of the page's view, writing each survivor's bitmap
// into the flat word arena. Every row's bitmap starts as the page's
// pattern, the bits of the slots with no fact predicate, written in the
// pass that clears the arena. Each other slot's vectorized fact predicate
// then runs over the whole column batch into a selection vector (tight
// typed-slice loops instead of a per-row closure call), and the slot's bit
// is scattered into the bitmap of every selected row; a final pass compacts
// the surviving rows. This is the steady-state per-page hot path of every
// probe worker: it performs no allocations once the worker's buffers have
// warmed to the page size.
func (w *worker) annotate(it *item) {
	cb := it.cols
	nrows := cb.Len()
	stride := max((it.view.nslots+63)/64, 1)
	it.ensure(nrows, stride, len(it.view.dims))
	words := it.words
	all := cb.AllSel()
	if cap(w.selBuf) < nrows {
		w.selBuf = make([]int32, nrows)
	}
	sel := w.selBuf[:nrows]
	if cap(w.pattern) < stride {
		w.pattern = make([]uint64, stride)
	}
	pattern := w.pattern[:stride]
	clear(pattern)
	// Per-slot zone skip: a slot whose zone check fails for this page skips
	// its vectorized annotate pass entirely — its bit stays zero for every
	// row, exactly what evaluating the predicate would produce. The page
	// itself was fetched because some other slot can match it (the
	// scanner's union prune). A failed query's bit stays zero too: it
	// retires on the scanner's next tick.
	var zones []storage.ZoneMap
	zonesLoaded := false
	var zskips int64
	preds := w.preds[:0]
	for _, sub := range it.view.subs {
		if sub.failed.Load() != nil {
			continue
		}
		if sub.prune != nil {
			if !zonesLoaded {
				zones = w.op.fact.File.PageZones(it.page)
				zonesLoaded = true
			}
			if zones != nil && !w.op.safePrune(sub, zones) {
				zskips++
				continue
			}
		}
		if sub.factVec == nil {
			pattern[uint(sub.id)>>6] |= 1 << (uint(sub.id) & 63)
		} else {
			preds = append(preds, sub)
		}
	}
	fillWords(words, pattern)
	for _, sub := range preds {
		wi, bit := uint(sub.id)>>6, uint64(1)<<(uint(sub.id)&63)
		if stride == 1 {
			for _, r := range w.safeFactSel(sub, cb, all, sel) {
				words[r] |= bit
			}
			continue
		}
		for _, r := range w.safeFactSel(sub, cb, all, sel) {
			words[int(r)*stride+int(wi)] |= bit
		}
	}
	clear(preds) // pin no subscription past the page
	w.preds = preds[:0]
	n := 0
	var dropped int64
	if stride == 1 {
		for r := 0; r < nrows; r++ {
			tw := words[r]
			if tw == 0 {
				dropped++
				continue
			}
			it.rowIdx[n] = int32(r)
			words[n] = tw
			n++
		}
	} else {
		for r := 0; r < nrows; r++ {
			tw := words[r*stride : (r+1)*stride]
			if !anyWords(tw) {
				dropped++
				continue
			}
			it.rowIdx[n] = int32(r)
			if n != r {
				copy(words[n*stride:(n+1)*stride], tw)
			}
			n++
		}
	}
	it.n = n
	if dropped > 0 {
		w.op.stats.droppedAtScan.Add(dropped)
	}
	if zskips > 0 {
		w.op.stats.zoneSkips.Add(zskips)
	}
}

// probe probes every live tuple of it against dimension t, folds the
// matching entry bitmap (or the stage mask, on a miss) of the page's view vd
// into the tuple's inline bitmap, and compacts the item's arrays in place
// as tuples die. The join-key column is read straight from the page's
// column batch: integer-class key columns (the star-schema common case)
// probe from the raw []int64 payload without building a Datum per tuple.
// This is the steady-state probe hot path: zero allocations per tuple.
func (w *worker) probe(it *item, t *dimTable, vd *viewDim) {
	stride := it.stride
	tab := t.tab
	kc := it.cols.Col(t.spec.FactKeyCol)
	fastInt := kc.Kind.IntClass() && !kc.HasNulls()
	ki := kc.I
	var probes, misses, dropped int64
	n := 0
	if stride == 1 {
		// Single-word bitmaps — up to 64 concurrent queries, the common
		// case: the fold is one scalar op, with no per-tuple subslicing.
		mask, ebits := vd.mask[0], vd.bits[0]
		words, rowIdx := it.words, it.rowIdx
		for i := 0; i < it.n; i++ {
			tw := words[i]
			r := int(rowIdx[i])
			probes++
			var ei int
			if fastInt {
				ei = int(tab.FindInt(ki[r]))
			} else {
				ei = int(tab.Find(kc, r))
			}
			if ei >= 0 {
				tw &= ebits[ei].Load() | ^mask
			} else {
				misses++
				tw &^= mask
			}
			if tw == 0 {
				dropped++
				continue
			}
			words[n] = tw
			rowIdx[n] = rowIdx[i]
			n++
		}
	} else {
		for i := 0; i < it.n; i++ {
			tw := it.words[i*stride : (i+1)*stride]
			r := int(it.rowIdx[i])
			probes++
			var ei int
			if fastInt {
				ei = int(tab.FindInt(ki[r]))
			} else {
				ei = int(tab.Find(kc, r))
			}
			if ei >= 0 {
				andMaskedWords(tw, vd.bits, ei, vd.mask)
			} else {
				misses++
				andNotWords(tw, vd.mask)
			}
			if !anyWords(tw) {
				dropped++
				continue
			}
			if n != i {
				it.rowIdx[n] = it.rowIdx[i]
				copy(it.words[n*stride:(n+1)*stride], tw)
			}
			n++
		}
	}
	it.n = n
	if probes > 0 {
		w.op.stats.probes.Add(probes)
	}
	if misses > 0 {
		w.op.stats.probeMisses.Add(misses)
	}
	if dropped > 0 {
		w.op.stats.droppedInChain.Add(dropped)
	}
}

// resolve writes each survivor's joined entry into it.ent once the chain is
// done, looking each key up again, only for the dimensions some query of
// the page's view routes a column from: the distributor reads no other. A
// survivor that missed a dimension gets -1 there; every query referencing
// the dimension lost the tuple's bit, so the distributor never reads it.
func (w *worker) resolve(it *item) {
	dims, n, nd := it.view.routed, it.n, it.ndims
	if len(dims) == 0 || n == 0 {
		return
	}
	if cap(it.ent) < n*nd {
		it.ent = make([]int32, n*nd)
	}
	ent, rows := it.ent[:n*nd], it.rowIdx[:n]
	for _, d := range dims {
		t := w.op.tables[d]
		kc := it.cols.Col(t.spec.FactKeyCol)
		if kc.Kind.IntClass() && !kc.HasNulls() {
			ki := kc.I
			for i, r := range rows {
				ent[i*nd+d] = t.tab.FindInt(ki[r])
			}
		} else {
			for i, r := range rows {
				ent[i*nd+d] = t.tab.Find(kc, int(r))
			}
		}
	}
}

// fillWords sets every len(pattern)-word tuple of words to pattern, whose
// length divides len(words): a clear when no bit is set, and otherwise the
// first tuple copied and then doubled.
func fillWords(words, pattern []uint64) {
	if !anyWords(pattern) {
		clear(words)
		return
	}
	n := copy(words, pattern)
	for n < len(words) {
		n += copy(words[n:], words[:n])
	}
}

// anyWords reports whether any bit of w is set: the "is this tuple still
// alive" check after each shared join.
func anyWords(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// andMaskedWords computes dst &= entry | ^mask word-wise, where entry is
// entry e's bitmap in the slot-major columns cols (word i is cols[i][e]):
// bits inside mask are filtered through the entry, bits outside mask pass
// through unchanged. This is the shared hash-join step: mask is the set of
// queries that reference the dimension, and queries that do not join it
// keep their bits. Words missing from cols or mask read as zero.
func andMaskedWords(dst []uint64, cols [][]atomic.Uint64, e int, mask []uint64) {
	for i := range dst {
		var ew, mw uint64
		if i < len(cols) {
			ew = cols[i][e].Load()
		}
		if i < len(mask) {
			mw = mask[i]
		}
		dst[i] &= ew | ^mw
	}
}

// andNotWords computes dst &^= mask word-wise, the shared hash-join miss
// step: every query referencing the dimension loses the tuple.
func andNotWords(dst, mask []uint64) {
	for i := range min(len(dst), len(mask)) {
		dst[i] &^= mask[i]
	}
}
