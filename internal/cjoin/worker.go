package cjoin

import (
	"slices"
	"time"

	"repro/internal/bitvec"
	"repro/internal/storage"
	"repro/internal/vec"
)

// worker is one partitioned probe pipeline: it annotates its share of the
// fact stream and probes it through every dimension replica, all within one
// goroutine (no per-dimension hand-off), then forwards the surviving tuples
// to the distributor.
type worker struct {
	op  *Operator
	in  chan wmsg
	out chan<- *item

	dims   []dimState
	subs   []*subscription // the queries whose slots are open, in admission order
	nslots int             // one past the highest slot id ever opened: the bitmap width

	// cur is the data item being processed, tracked so the panic-recovery
	// path can release its page-batch reference instead of leaking it.
	cur *item

	scratch vec.Scratch // vectorized-predicate temporaries, worker-owned
	selBuf  []int32     // per-slot selection buffer, sized to the page
}

// addSlot opens an admitted query's slot in the worker's replicas: annotate
// produces its bit from here on.
func (w *worker) addSlot(sub *subscription) {
	if sub.id+1 > w.nslots {
		w.nslots = sub.id + 1
	}
	w.subs = append(w.subs, sub)
	for i := range w.dims {
		w.dims[i].addSlot(sub)
	}
}

// dropSlot removes a retired query's bits from the worker's replicas.
func (w *worker) dropSlot(sub *subscription) {
	w.subs = slices.DeleteFunc(w.subs, func(o *subscription) bool { return o == sub })
	for i := range w.dims {
		w.dims[i].dropSlot(sub)
	}
}

// run processes ticks until the scanner closes the queue. Control epochs
// open a slot per admission and close one per finish. Data ticks are
// annotated, probed through the whole chain and forwarded to the
// distributor.
func (w *worker) run() {
	defer w.op.wg.Done()
	defer w.op.prodWG.Done()
	// A worker panic (outside the per-predicate containment in annotate)
	// aborts the operator. Whichever way the worker exits, it releases the
	// in-flight item and drains the queue so no page-batch reference leaks.
	// The drain terminates because the scanner observes closeCh and closes
	// w.in (on a normal exit w.in is already closed and empty).
	defer func() {
		if r := recover(); r != nil {
			w.op.abort(r)
		}
		if w.cur != nil {
			w.op.putItem(w.cur)
			w.cur = nil
		}
		for msg := range w.in {
			if msg.it != nil {
				w.op.putItem(msg.it)
			}
		}
	}()
	for msg := range w.in {
		t0 := time.Now()
		if msg.ep != nil {
			for _, c := range msg.ep.ctl {
				if c.kind == ctlAdmit {
					w.addSlot(c.sub)
				} else {
					w.dropSlot(c.sub)
				}
			}
			w.op.addBusy(time.Since(t0))
			continue
		}
		it := msg.it
		w.cur = it
		w.annotate(it, w.subs, w.nslots)
		for i := range w.dims {
			w.dims[i].processTuples(it)
		}
		w.op.addBusy(time.Since(t0))
		select {
		case w.out <- it:
			w.cur = nil
		case <-w.op.closeCh:
			// Undeliverable (the distributor will never see this seq): the
			// deferred drain releases it with the rest of the queue.
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

// annotate fills it with the page's tuples that satisfy at least one open
// slot's fact predicate, writing each survivor's bitmap into the flat word
// arena. Each slot's vectorized fact predicate runs over the whole column
// batch into a selection vector (tight typed-slice loops instead of a
// per-row closure call), and the slot's bit is scattered into the bitmap of
// every selected row; a final pass compacts the surviving rows. This is the
// steady-state per-page hot path of every probe worker: it performs no
// allocations once the worker's buffers have warmed to the page size.
func (w *worker) annotate(it *item, subs []*subscription, nslots int) {
	cb := it.cols
	nrows := cb.Len()
	stride := (nslots + 63) / 64
	if stride == 0 {
		stride = 1
	}
	it.ensure(nrows, stride, len(w.dims))
	words := it.words
	clear(words)
	all := cb.AllSel()
	if cap(w.selBuf) < nrows {
		w.selBuf = make([]int32, nrows)
	}
	sel := w.selBuf[:nrows]
	// Per-slot zone skip: a slot whose zone check fails for this page skips
	// its vectorized annotate pass entirely — its bit stays zero for every
	// row, exactly what evaluating the predicate would produce. The page
	// itself was fetched because some other slot can match it (the
	// scanner's union prune). A failed query's bit stays zero too: it
	// retires on the scanner's next tick.
	var zones []storage.ZoneMap
	zonesLoaded := false
	var zskips int64
	for _, sub := range subs {
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
		wi, bit := uint(sub.id)>>6, uint64(1)<<(uint(sub.id)&63)
		if sub.factVec == nil {
			for r := 0; r < nrows; r++ {
				words[r*stride+int(wi)] |= bit
			}
			continue
		}
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
			if !bitvec.AnyWords(tw) {
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

// processTuples probes every live tuple of it against the shared dimension
// table, folds the matching entry bitmap (or the stage mask, on a miss)
// into the tuple's inline bitmap, and compacts the item's arenas in place
// as tuples die. The join-key column is read straight from the page's
// column batch: integer-class key columns (the star-schema common case)
// probe from the raw []int64 payload without building a Datum per tuple.
// This is the steady-state probe hot path: zero allocations per tuple.
func (ds *dimState) processTuples(it *item) {
	stride, nd := it.stride, it.ndims
	dt := ds.tab
	tab := dt.tab
	es := ds.estride
	kc := it.cols.Col(dt.spec.FactKeyCol)
	fastInt := kc.Kind.IntClass() && !kc.HasNulls()
	ki := kc.I
	var probes, misses, dropped int64
	n := 0
	if stride == 1 && es == 1 && len(ds.mask) == 1 {
		// Single-word bitmaps — up to 64 concurrent queries, the common
		// case: the fold is one scalar op, with no per-tuple subslicing.
		mask, ebits := ds.mask[0], ds.ebits
		words, rowIdx := it.words, it.rowIdx
		for i := 0; i < it.n; i++ {
			w := words[i]
			r := int(rowIdx[i])
			probes++
			var ei int
			if fastInt {
				ei = int(tab.FindInt(ki[r]))
			} else {
				ei = int(tab.Find(kc, r))
			}
			if ei >= 0 {
				w &= ebits[ei] | ^mask
			} else {
				misses++
				w &^= mask
			}
			if w == 0 {
				dropped++
				continue
			}
			words[n] = w
			rowIdx[n] = rowIdx[i]
			if ei >= 0 {
				it.dimEnt[r*nd+dt.idx] = int32(ei)
			}
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
				bitvec.AndMaskedWords(tw, ds.ebits[ei*es:(ei+1)*es], ds.mask)
			} else {
				misses++
				bitvec.AndNotWords(tw, ds.mask)
			}
			if !bitvec.AnyWords(tw) {
				dropped++
				continue
			}
			if n != i {
				it.rowIdx[n] = it.rowIdx[i]
				copy(it.words[n*stride:(n+1)*stride], tw)
			}
			if ei >= 0 {
				it.dimEnt[r*nd+dt.idx] = int32(ei)
			}
			n++
		}
	}
	it.n = n
	if probes > 0 {
		ds.op.stats.probes.Add(probes)
	}
	if misses > 0 {
		ds.op.stats.probeMisses.Add(misses)
	}
	if dropped > 0 {
		ds.op.stats.droppedInChain.Add(dropped)
	}
}
