package cjoin

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/vec"
)

// ctlKind discriminates control messages.
type ctlKind uint8

const (
	ctlAdmit ctlKind = iota
	ctlFinish
)

// ctlMsg is one control message of an epoch, for one query.
type ctlMsg struct {
	kind ctlKind
	sub  *subscription
}

// epoch is a control tick: the messages the distributor applies in order at
// the tick's position in the fact stream. It is immutable once published.
type epoch struct {
	ctl []ctlMsg
}

// item is the unit flowing into the distributor: one tick of the fact
// stream. Data ticks carry a page's surviving tuples and the slot view the
// page was dealt under; control ticks carry the tick's epoch.
//
// Tuples live in flat arrays so a page costs zero steady-state allocations:
// tuple i is row rowIdx[i] of the page's column batch cols, and its slot
// bitmap is the word slice words[i*stride:(i+1)*stride]; the probe loop
// compacts both in place as tuples die. Once the chain is done, the worker
// resolves each survivor's joined entry, for every dimension some query of
// the view routes a column from, into ent[i*ndims+j] — an index into
// dimension j's entry-aligned column batch, so the distributor routes
// dimension payloads with typed column copies instead of boxing datums. ent
// is indexed by survivor, so it holds the page's survivors, not its rows.
type item struct {
	page int       // fact page index of a data tick (zone-map lookup key)
	ep   *epoch    // a control tick's epoch; nil on data ticks
	view *slotView // a data tick's slot view; nil on control ticks

	// cols is the fact page opened from its buffer pool frame (data ticks).
	// The item owns the one reference, released when the distributor
	// recycles the item, which frees the page's decoded columns.
	cols *vec.ColBatch

	n      int      // live tuples
	stride int      // bitmap words per tuple
	ndims  int      // dimension slots per tuple
	rowIdx []int32  // rowIdx[:n]: live tuple i → row index in cols
	words  []uint64 // words[i*stride:(i+1)*stride]: tuple i's bitmap
	ent    []int32  // ent[i*ndims+j]: survivor i's joined entry of routed dim j
}

// ensure sizes the per-row arrays for n tuples with the given bitmap stride.
func (it *item) ensure(n, stride, ndims int) {
	it.stride, it.ndims = stride, ndims
	if cap(it.rowIdx) < n {
		it.rowIdx = make([]int32, n)
	} else {
		it.rowIdx = it.rowIdx[:n]
	}
	if cap(it.words) < n*stride {
		it.words = make([]uint64, n*stride)
	} else {
		it.words = it.words[:n*stride]
	}
}

// getItem takes a pipeline item for the scanner's next tick: a recycled one
// from the free list, or a new one. It never waits: the scanner asks only
// with no item in hand, and every other item out of the free list is in the
// distributor's hand or named by a tick in the order channel, so no more
// than itemBound are ever made (see "Items" in the package doc).
func (op *Operator) getItem() *item {
	select {
	case it := <-op.items:
		return it
	default:
		op.made.Add(1) // only the scanner makes items
		return &item{}
	}
}

// putItem recycles an item after the distributor is done with it. The epoch
// and the view are dropped so free items do not pin retired subscriptions
// across idle periods, and the item's page batch is released, freeing its
// decoded columns. The free list has room for every item made, so putItem
// never blocks.
func (op *Operator) putItem(it *item) {
	if it.cols != nil {
		it.cols.Release()
		it.cols = nil
	}
	it.ep, it.view = nil, nil
	it.n = 0
	op.items <- it
}

// tick is the order channel's record of one tick of the fact stream, in
// scan order: a control tick's item itself, or, for a data tick (ctl nil),
// the worker the page was dealt to. A worker is FIFO, so the k-th tick
// naming worker w is w's k-th output.
type tick struct {
	ctl *item
	w   int
}

// scanner is the pipeline head: the circular fact scan, the active query
// list, the tick order, the slot ids and the slot state (the dimensions'
// entry bitmaps and the current slot view), all owned by the scanner
// goroutine.
type scanner struct {
	op     *Operator
	order  chan<- tick
	active []*subscription
	view   *slotView // the view of the pages dealt since the last control tick
	npages int
	pos    int         // next fact page of the circular scan
	wi     int         // next worker to deal a page to
	slots  int         // slot ids ever allocated
	scr    vec.Scratch // admission's selection temporaries
}

// scan runs the scanner until the operator closes: an admission tick for
// the queries waiting to join, one fact page, and a retirement tick for the
// queries whose sweep ended, in turn. Fact pages are dealt round-robin to
// the probe workers, each with the slot view in force; every tick's place
// in scan order goes on the order channel, and a control tick installs a
// new view.
func (op *Operator) scan(order chan<- tick) {
	defer op.wg.Done()
	defer func() {
		for _, w := range op.workers {
			close(w.in)
		}
		close(order)
	}()
	// Last defer runs first: a scanner panic aborts the operator (queries
	// fail with the cause) but never takes the process down.
	defer func() {
		if r := recover(); r != nil {
			op.abort(r)
		}
	}()
	s := &scanner{op: op, order: order, npages: op.fact.File.NumPages()}
	for s.admissions() && s.page() && s.retirements() {
	}
}

// admissions admits every query waiting to join on one admission tick,
// blocking first while no query is active. It reports false once the
// operator closes.
func (s *scanner) admissions() bool {
	var ctl []ctlMsg
	if len(s.active) == 0 {
		select {
		case sub := <-s.op.admitCh:
			ctl = append(ctl, s.admit(sub))
		case <-s.op.closeCh:
			return false
		}
	}
	for {
		select {
		case sub := <-s.op.admitCh:
			ctl = append(ctl, s.admit(sub))
		default:
			return len(ctl) == 0 || s.publish(ctl)
		}
	}
}

// page advances the circular scan by one page: it skips a page no active
// query can match (the union prune), hands a page the pool cannot read to
// pageFailed, and deals any other page to a worker. A skipped page still
// consumes one tick of every active sweep (retirements decrements pagesLeft
// unconditionally): it contributes zero tuples to every query, exactly as
// if it had been fetched and annotated. It reports false once the operator
// closes.
func (s *scanner) page() bool {
	op := s.op
	if s.npages == 0 {
		return true
	}
	at := s.pos
	if s.pruned(at) {
		s.pos = (at + 1) % s.npages
		op.stats.pagesPruned.Add(1)
		op.fact.File.NotePruned()
		return true
	}
	t0 := time.Now()
	cb, err := op.fact.File.PageCols(at)
	op.addBusy(time.Since(t0))
	if err != nil {
		return s.pageFailed(at, err)
	}
	s.pos = (at + 1) % s.npages
	op.stats.pagesScanned.Add(1)
	op.stats.factTuplesIn.Add(int64(cb.Len()))

	it := op.getItem()
	it.cols = cb
	it.page = at
	it.view = s.view
	// Deal the page round-robin, but skip workers whose queues are full so
	// one slow worker cannot head-of-line block the rest: the order channel
	// records whichever worker takes it. Only when every queue is full does
	// the scanner block (on the round-robin choice), which is the
	// backpressure path.
	nw := len(op.workers)
	for k := 0; k < nw; k++ {
		wi := (s.wi + k) % nw
		select {
		case op.workers[wi].in <- it:
			s.wi = (wi + 1) % nw
			return s.send(tick{w: wi})
		default:
		}
	}
	wi := s.wi
	s.wi = (wi + 1) % nw
	select {
	case op.workers[wi].in <- it:
		return s.send(tick{w: wi})
	case <-op.closeCh:
		op.putItem(it)
		return false
	}
}

// send puts one tick on the order channel. A control tick's item that cannot
// go out is recycled here; a dealt page the worker forwards regardless, and
// the distributor's shutdown pass recycles it. It reports false once the
// operator closes.
func (s *scanner) send(t tick) bool {
	select {
	case s.order <- t:
		return true
	case <-s.op.closeCh:
		if t.ctl != nil {
			s.op.putItem(t.ctl)
		}
		return false
	}
}

// pruned reports whether no active query can match page at's zone maps, so
// the page need not be fetched.
func (s *scanner) pruned(at int) bool {
	if s.op.cfg.NoPrune {
		return false
	}
	zones := s.op.fact.File.PageZones(at)
	if zones == nil {
		return false
	}
	for _, sub := range s.active {
		if sub.canceled.Load() {
			continue
		}
		if sub.prune == nil || s.op.safePrune(sub, zones) {
			return false
		}
	}
	return true
}

// pageFailed retires the queries a fact page read failure takes down, on one
// retirement tick. A quarantined page (a *storage.PageError) is
// blast-radius contained: only the queries whose zone checks cannot exclude
// the page fail — they would have consumed its tuples — and every query the
// page prunes away sweeps on, the page costing it one tick like a pruned
// page. An unclassified read failure fails every active query, and the page
// is read again for the next query to arrive. It reports false once the
// operator closes.
func (s *scanner) pageFailed(at int, err error) bool {
	var pe *storage.PageError
	quarantined := errors.As(err, &pe)
	var zones []storage.ZoneMap
	if quarantined {
		zones = s.op.fact.File.PageZones(at)
		s.pos = (at + 1) % s.npages
		s.op.stats.pagesQuarantined.Add(1)
	}
	var ctl []ctlMsg
	remaining := s.active[:0]
	for _, sub := range s.active {
		if quarantined && (sub.canceled.Load() ||
			sub.prune != nil && zones != nil && !s.op.safePrune(sub, zones)) {
			remaining = append(remaining, sub)
			continue
		}
		sub.err = err
		if quarantined {
			s.op.stats.pageFailures.Add(1)
		}
		ctl = append(ctl, ctlMsg{kind: ctlFinish, sub: sub})
	}
	s.active = remaining
	return len(ctl) == 0 || s.publish(ctl)
}

// retirements retires, on one retirement tick, every query whose sweep
// ended with the last page, that canceled or failed, or whose deadline has
// passed. The tick follows the sweep's last page, so the distributor sees
// that page first. time.Now is consulted only while a deadline-bearing
// query is active — deadline-free sweeps pay nothing. It reports false once
// the operator closes.
func (s *scanner) retirements() bool {
	var ctl []ctlMsg
	var now time.Time
	remaining := s.active[:0]
	for _, sub := range s.active {
		if s.npages > 0 {
			sub.pagesLeft--
		}
		cause := sub.cause()
		stopped := cause != nil || sub.canceled.Load()
		if stopped {
			// A plain consumer cancellation leaves err nil.
			sub.err = cause
		}
		expired := false
		if !stopped && sub.pagesLeft > 0 && !sub.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if !now.Before(sub.deadline) {
				expired = true
				sub.err = context.DeadlineExceeded
				s.op.stats.deadlineExpired.Add(1)
			}
		}
		if sub.pagesLeft <= 0 || stopped || expired {
			ctl = append(ctl, ctlMsg{kind: ctlFinish, sub: sub})
		} else {
			remaining = append(remaining, sub)
		}
	}
	s.active = remaining
	return len(ctl) == 0 || s.publish(ctl)
}

// slotID takes a bitmap slot id for a query being admitted: a retired
// query's id once the distributor has handed it back (Operator.spare), its
// bits cleared first through the retired query's Keeps, and otherwise a new
// id, with a new bitmap column whenever the ids outgrow the columns.
func (s *scanner) slotID() int {
	if old := s.op.takeSpare(); old != nil {
		for _, t := range s.op.tables {
			t.writeBits(old, false)
		}
		return old.id
	}
	s.slots++
	s.op.stats.slotHighWater.Store(int64(s.slots))
	for _, t := range s.op.tables {
		if len(t.bits) < (s.slots+63)/64 {
			t.bits = append(t.bits, make([]atomic.Uint64, t.cb.Len()))
		}
	}
	return s.slots - 1
}

// publish publishes one control tick: an item carrying its epoch to the
// distributor, and a new slot view, of the queries now active, for the
// pages dealt after it. ctl must be freshly allocated: the distributor may
// still be reading it while the scanner moves on. It reports false once the
// operator closes.
func (s *scanner) publish(ctl []ctlMsg) bool {
	s.view = newView(s.op.tables, slices.Clone(s.active), s.slots)
	it := s.op.getItem()
	it.ep = &epoch{ctl: ctl}
	return s.send(tick{ctl: it})
}

// safePrune evaluates sub's compiled zone check, failing sub if it panics.
// A panic reports false: the page is unmatchable for sub, which is
// harmless, since sub retires on the scanner's next tick.
func (op *Operator) safePrune(sub *subscription, zones []storage.ZoneMap) bool {
	defer op.contain(sub)
	return sub.prune(zones)
}
