package cjoin

import (
	mathbits "math/bits"
	"time"

	"repro/internal/batch"
	"repro/internal/vec"
)

// distributor merges the worker streams back into tick order, fans joined
// tuples out to the queries whose slots are named in their bitmaps and
// retires queries when their finish ticks arrive. Out-of-order arrivals wait
// in a power-of-two ring indexed by sequence number; queries are indexed by
// slot id in a flat slice; and output rows are appended to pooled column
// batches — so merging and routing a tuple allocates nothing in steady
// state.
type distributor struct {
	op     *Operator
	in     <-chan *item
	subs   []*subscription // slot id → the query that owns it (nil when closed)
	routed int64           // deliveries since the last counter flush

	next int64   // next tick to process
	ring []*item // reorder buffer; slot = seq & (len-1)

	// cur is the item being processed, tracked so the panic-recovery path
	// can release its page-batch reference instead of leaking it.
	cur *item
}

// enqueue accepts one item from the fan-in, processing it immediately when
// it is the next tick and stashing it otherwise, then drains every ready
// successor.
func (d *distributor) enqueue(it *item) {
	if it.seq != d.next {
		d.stash(it)
		return
	}
	d.process(it)
	d.next++
	for len(d.ring) > 0 {
		i := int(d.next) & (len(d.ring) - 1)
		it2 := d.ring[i]
		if it2 == nil || it2.seq != d.next {
			return
		}
		d.ring[i] = nil
		d.process(it2)
		d.next++
	}
}

// stash parks an out-of-order item in the reorder ring, growing the ring
// when the in-flight span outruns it. Distinct in-flight seqs map to
// distinct slots because the span is always smaller than the ring.
func (d *distributor) stash(it *item) {
	if len(d.ring) == 0 {
		d.ring = make([]*item, 64)
	}
	for it.seq-d.next >= int64(len(d.ring)) {
		grown := make([]*item, len(d.ring)*2)
		for _, o := range d.ring {
			if o != nil {
				grown[int(o.seq)&(len(grown)-1)] = o
			}
		}
		d.ring = grown
	}
	d.ring[int(it.seq)&(len(d.ring)-1)] = it
}

// deliver seals sub's pending columns into a view batch and flushes it to
// the output channel. Ownership of the batch (and its single ColBatch
// reference) transfers downstream; if the query is canceling or the
// operator shutting down, the reference is dropped so the columns recycle.
func (d *distributor) deliver(sub *subscription) {
	if sub.pendCols == nil || sub.pendN == 0 {
		return
	}
	cb := sub.pendCols
	cb.Seal(sub.pendN)
	sub.pendCols, sub.pendN = nil, 0
	b := batch.FromView(cb, nil)
	select {
	case sub.out <- b:
	case <-sub.cancelCh:
		b.Done()
	case <-d.op.closeCh:
		b.Done()
		sub.cut = true
	}
}

// route appends the joined output tuple for sub column-wise, following the
// route map precomputed at subscription time: fact columns copy typed
// payloads straight from the page batch, and dimension payload columns copy
// typed payloads from the dimension table's entry-aligned column batch at
// the tuple's joined entry — the whole route loop is typed end to end, no
// Datum boxing on either kind of column.
func (d *distributor) route(sub *subscription, it *item, ti int) {
	if sub.pendCols == nil {
		sub.pendCols = vec.Get(sub.outWidth)
		sub.pendCols.Reserve(d.op.cfg.BatchSize) // delivered at exactly this size
	}
	r := int(it.rowIdx[ti])
	dimBase := r * it.ndims
	for ci, rc := range sub.route {
		if rc.dim < 0 {
			sub.pendCols.Col(ci).AppendFrom(it.cols.Col(rc.col), r)
		} else {
			ei := int(it.dimEnt[dimBase+rc.dim])
			sub.pendCols.Col(ci).AppendFrom(d.op.tables[rc.dim].cb.Col(rc.col), ei)
		}
	}
	sub.pendN++
	d.routed++
	if sub.pendN >= d.op.cfg.BatchSize {
		d.deliver(sub)
	}
}

// register indexes an admitted query by its slot id.
func (d *distributor) register(sub *subscription) {
	for sub.id >= len(d.subs) {
		d.subs = append(d.subs, nil)
	}
	d.subs[sub.id] = sub
}

// finish retires a query: flush, close its output, drop it from the open
// registry and unindex its slot. The scanner has already put the slot on
// its free list; it reuses the id only once process has stored this tick's
// seq in applied, and the admission tick that reuses it comes later in
// sequence.
func (d *distributor) finish(sub *subscription) {
	d.deliver(sub)
	if sub.err == nil {
		// Backstop for a failure the scanner did not see (a fact predicate
		// or zone check panic on a worker, typically in the sweep's last
		// pages): it may complete the sweep first, finishing the query with a
		// nil error. The finish tick is sequence-ordered behind every page a
		// worker forwarded, so the worker's fail is visible here.
		sub.err = sub.cause()
	}
	if sub.err == nil && sub.cut {
		// The sweep outran Close: the scanner queued this finish before it
		// saw the shutdown, but rows were already being dropped.
		sub.err = d.op.shutdownCause()
	}
	if sub.err != nil {
		// Typed failure (quarantined page, deadline, recovered panic, …)
		// — distinct from a consumer-initiated cancellation.
		d.op.stats.failed.Add(1)
	} else if sub.canceled.Load() {
		d.op.stats.canceled.Add(1)
	} else {
		d.op.stats.completed.Add(1)
	}
	close(sub.out)
	d.op.openMu.Lock()
	delete(d.op.open, sub)
	d.op.openMu.Unlock()
	d.subs[sub.id] = nil
}

// process handles one tick: a control tick's messages in order, or a data
// tick's tuple routing. A control tick's seq is stored in applied before
// any of its messages is applied, so before a finished query's output is
// closed: once Run has returned, the scanner may reuse the query's slot id.
func (d *distributor) process(it *item) {
	t0 := time.Now()
	d.cur = it
	if it.ep != nil {
		d.op.applied.Store(it.seq)
		for _, c := range it.ep.ctl {
			if c.kind == ctlAdmit {
				d.register(c.sub)
			} else {
				d.finish(c.sub)
			}
		}
	}
	stride := it.stride
	for i := 0; i < it.n; i++ {
		tw := it.words[i*stride : (i+1)*stride]
		for wi, w := range tw {
			for w != 0 {
				id := wi*64 + mathbits.TrailingZeros64(w)
				w &= w - 1
				if id < len(d.subs) {
					if sub := d.subs[id]; sub != nil && !sub.canceled.Load() {
						d.route(sub, it, i)
					}
				}
			}
		}
	}
	if d.routed > 0 {
		d.op.stats.tuplesRouted.Add(d.routed)
		d.routed = 0
	}
	busy := int64(time.Since(t0))
	d.op.stats.busyNanos.Add(busy)
	d.op.stats.distBusyNanos.Add(busy)
	d.cur = nil
	d.op.putItem(it)
}

// run merges and processes ticks until every producer has exited and the
// fan-in closes, then fails every query still open with the shutdown cause
// (ErrClosed for an orderly Close, the recovered panic otherwise).
func (d *distributor) run() {
	defer d.op.wg.Done()
	d.merge()
	// If merge exited via panic the fan-in may still be open: drain it,
	// recycling items so no page-batch reference leaks. The drain
	// terminates because abort closed closeCh, which stops the producers.
	for it := range d.in {
		d.op.putItem(it)
	}
	// The fan-in closed after the scanner and every worker exited, so no
	// tick can arrive and no query can be admitted. Ticks dropped on the way
	// down may have left sequence gaps: recycle the items parked in the
	// reorder ring so their page-batch references are not stranded.
	for i, it := range d.ring {
		if it != nil {
			d.ring[i] = nil
			d.op.putItem(it)
		}
	}
	cause := d.op.shutdownCause()
	d.op.openMu.Lock()
	defer d.op.openMu.Unlock()
	for sub := range d.op.open {
		// A query failed at shutdown gets its error, not a last partial
		// batch: a route that panicked may have left the pending columns
		// uneven, or allocated them without a row.
		if sub.pendCols != nil {
			sub.pendCols.Release()
			sub.pendCols, sub.pendN = nil, 0
		}
		sub.err = cause
		close(sub.out)
	}
	clear(d.op.open)
}

// merge runs the sequence merge until the fan-in closes. A distributor
// panic (a kernel acting on corrupted routing state) aborts the operator
// rather than the process; the in-flight item's reference is released here,
// and run's drain and shutdown pass handle the fan-in and the reorder ring.
func (d *distributor) merge() {
	defer func() {
		if r := recover(); r != nil {
			d.op.abort(r)
			if d.cur != nil {
				d.op.putItem(d.cur)
				d.cur = nil
			}
		}
	}()
	for it := range d.in {
		d.enqueue(it)
	}
}
