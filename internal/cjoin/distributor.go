package cjoin

import (
	mathbits "math/bits"
	"time"

	"repro/internal/batch"
	"repro/internal/vec"
)

// distributor takes the ticks in scan order, fans joined tuples out to the
// queries whose slots are named in their bitmaps and retires queries when
// their finish ticks arrive. It reads the order channel and takes each data
// tick from the output of the worker the tick names; queries are indexed by
// slot id in a flat slice; and output rows are appended to pooled column
// batches — so taking and routing a tuple allocates nothing in steady
// state.
type distributor struct {
	op     *Operator
	order  <-chan tick
	subs   []*subscription // slot id → the query that owns it (nil when closed)
	routed int64           // deliveries since the last counter flush

	// cur is the item being processed, tracked so the panic-recovery path
	// can release its page-batch reference instead of leaking it.
	cur *item
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
// the entry the worker resolved for tuple ti — the whole route loop is
// typed end to end, no Datum boxing on either kind of column.
func (d *distributor) route(sub *subscription, it *item, ti int) {
	if sub.pendCols == nil {
		sub.pendCols = vec.Get(sub.outWidth)
		sub.pendCols.Reserve(d.op.cfg.BatchSize) // delivered at exactly this size
	}
	r := int(it.rowIdx[ti])
	base := ti * it.ndims
	for ci, rc := range sub.route {
		if rc.dim < 0 {
			sub.pendCols.Col(ci).AppendFrom(it.cols.Col(rc.col), r)
		} else {
			ei := int(it.ent[base+rc.dim])
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

// finish retires a query: flush, hand its slot back to the scanner, close
// its output, drop it from the open registry and unindex its slot. Ticks
// are applied in scan order, so every page dealt before the finish tick
// has been probed: no worker reads the slot's bits again, and the admission
// tick that reuses the id comes later. The slot goes back before the output
// closes, so once Run returns the id is free for reuse.
func (d *distributor) finish(sub *subscription) {
	d.deliver(sub)
	if sub.err == nil {
		// Backstop for a failure the scanner did not see (a fact predicate
		// or zone check panic on a worker, typically in the sweep's last
		// pages): it may complete the sweep first, finishing the query with a
		// nil error. Every page dealt before the finish tick came out of its
		// worker before the tick is applied, so the worker's fail is visible
		// here.
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
	d.op.handBack(sub)
	close(sub.out)
	d.op.openMu.Lock()
	delete(d.op.open, sub)
	d.op.openMu.Unlock()
	d.subs[sub.id] = nil
}

// process handles one tick: a control tick's messages in order, or a data
// tick's tuple routing.
func (d *distributor) process(it *item) {
	t0 := time.Now()
	d.cur = it
	if it.ep != nil {
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

// run processes ticks in scan order until the scanner closes the order
// channel, then fails every query still open with the shutdown cause
// (ErrClosed for an orderly Close, the recovered panic otherwise).
func (d *distributor) run() {
	defer d.op.wg.Done()
	d.applyTicks()
	// Whichever way applyTicks ended, recycle every item still in the
	// pipeline so no page-batch reference leaks: the control ticks left in
	// the order channel and the pages left in the workers' outputs, a dealt
	// page whose tick never went out among them. The drains terminate: the
	// scanner closes the order channel and each worker its output as they
	// exit, and an early end means closeCh is closed, which stops them.
	for t := range d.order {
		if t.ctl != nil {
			d.op.putItem(t.ctl)
		}
	}
	for _, w := range d.op.workers {
		for it := range w.out {
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

// applyTicks processes the ticks the order channel names, in its order,
// until the channel closes or a worker's output closes before the page a
// tick names came out: the worker dropped it on the way down, and no later
// tick may apply. A distributor panic (a kernel acting on corrupted routing
// state) aborts the operator rather than the process; the in-flight item's
// reference is released here, and run's shutdown pass handles the rest.
func (d *distributor) applyTicks() {
	defer func() {
		if r := recover(); r != nil {
			d.op.abort(r)
			if d.cur != nil {
				d.op.putItem(d.cur)
				d.cur = nil
			}
		}
	}()
	for t := range d.order {
		it := t.ctl
		if it == nil {
			var ok bool
			if it, ok = <-d.op.workers[t.w].out; !ok {
				return
			}
		}
		d.process(it)
	}
}
