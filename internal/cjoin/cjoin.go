// Package cjoin implements the CJOIN operator: a Global Query Plan (GQP)
// that evaluates the joins of all concurrent star queries in a single shared
// plan (proactive sharing, §3 of the paper).
//
// The plan is data-parallel: one scanner drives the circular scan of the
// fact table and deals fact pages round-robin to Config.Workers probe
// workers; each worker annotates its pages with slot bitmaps (bit s is set
// iff the tuple satisfies the fact-table predicate of the query owning slot
// s) and probes them through the whole dimension chain; a distributor
// takes the worker streams in scan order, as the scanner's order channel
// names them, and routes each surviving joined tuple to every query whose
// bit survived.
//
//	            ┌→ worker 0 (annotate → probe dim₁..dimₖ) ─┐
//	scanner ────┼→ worker 1 (annotate → probe dim₁..dimₖ) ─┼→ distributor
//	   │        └→ …                                       ─┘      ↑
//	   └─────────── order: a control item or a worker index ───────┘
//
// The code is split by role, one file each: cjoin.go (the operator, its
// configuration and counters), admission.go (subscriptions, Run and
// admission), scanner.go (the circular scan, its ticks, slot ids and
// retirement), worker.go (annotate and probe), dim.go (dimension tables,
// their entry bitmaps and the slot view) and distributor.go (ordered
// hand-off, routing, delivery and shutdown).
//
// Each dimension has one state, shared by every worker. Its rows and their
// join index are the table's shared dimtab.Index — the one the
// query-centric hash join probes too — referenced from NewOperator to Close
// and probed immutably by every worker (a direct array over dense integer
// keys, a rank-indexed bitset over sparser ones, hashed slots otherwise).
// The index is held at its size: built into
// columns reserved to the table's row count, its string columns kept as
// codes over one sorted dictionary of its own, which the distributor
// decodes as it routes a row. A dimension whose join key repeats is
// refused with a DuplicateKeyError, since CJOIN joins a fact tuple to one
// entry. Its entry bitmaps — the only state that changes as queries come
// and go — are one slot-major array per dimension, written by the scanner
// alone: at admission it evaluates the query's dimension predicates once
// into a dimtab.Keep per dimension and sets the query's bit on the Keep's
// entries, as the paper's preprocessor does. Workers read the bits with
// atomic loads and take no lock.
//
// # Slots
//
// Every admitted query owns one slot: one bit of the bitmap, produced by
// the query's fact predicate, zone check and dimension predicates. Its
// admission opens the slot and its retirement closes it, so the plan shares
// the scan and the probes, never a bit. A panic in one of a query's
// predicates or its zone check fails that query alone, with its
// *PanicError.
//
// # Epoch protocol
//
// Queries are admitted and retired in ticks, and each tick is one of three
// kinds:
//
//   - a data tick: one fact page, dealt to exactly one worker, which
//     annotates and probes it and forwards it to the distributor;
//   - an admission tick: an epoch of ctlAdmit messages;
//   - a retirement tick: an epoch of ctlFinish messages.
//
// The scanner decides each tick's place in scan order and says so on one
// ordered channel: for each tick, in order, it sends either the control
// tick's item itself or the index of the worker it dealt the page to. Each
// worker forwards its pages on an output of its own, in the order it took
// them, so the k-th tick that names worker w is w's k-th output: the
// distributor reads the order channel, takes each data tick from the named
// worker's output and sees every tick in scan order. An epoch is immutable
// once published, and goes only to the distributor. With each control tick
// the scanner also builds an immutable slotView — the open queries, the
// bitmap width, each dimension's stage mask and its entry bitmap columns —
// and every page it deals until the next control tick carries that view. A
// worker annotates and probes a page under the page's view alone, so
// workers receive pages only and hold no slot state. A query's admission
// tick precedes the first page of its sweep and its finish tick follows the
// last, so the query sees each fact tuple exactly once, and its batches in
// scan order.
//
// A ctlAdmit opens its query's slot and a ctlFinish closes it: the
// distributor indexes the query by slot id in between. The scanner sets
// the slot's entry bits before it publishes the admission tick, which is
// safe because no tuple carries the slot's bit until a page dealt after it.
// When the distributor applies a finish tick, every page dealt before it
// has been probed (it came out of its worker), and no later view names the
// slot; so finish hands the slot back to the scanner (Operator.spare)
// before it closes the query's output, and once Run returns, the query's id
// is free for reuse. The scanner clears the old query's bits, through the
// old query's Keeps, before it reuses the id.
//
// Shutdown fails one registry, Operator.open. The scanner adds a query to it
// at admission, and the distributor removes the query where it closes the
// query's output. A worker that exits before it forwards a page it took
// closes its output, and the distributor applies no tick from there on.
// Once the order channel and every worker output have drained, the
// distributor fails every query left with the shutdown cause.
//
// Each field has one owner:
//
//   - newSubscription fixes q, the fact predicates (factVec, prune), dimRef,
//     outWidth and route, and Run fixes deadline, before the query is sent
//     to the scanner; out and cancelCh are made there too. All of them are
//     read-only after.
//   - The scanner writes id and the dimension selections (dimKeep) at
//     admission, before it publishes the admission tick; they are
//     read-only after.
//   - The scanner owns pagesLeft. It writes err when the query fails,
//     before it publishes the query's finish tick; the channel sends of that
//     tick order the write before the distributor's reads.
//   - The distributor owns cut, pendCols and pendN, and err from the finish
//     tick (or shutdown) on. It closes out, after which Run reads err.
//   - canceled and failed are atomic. Run raises canceled when the consumer
//     leaves; fail stores failed once, then raises canceled, from any
//     pipeline goroutine.
//   - The scanner alone writes the entry bitmaps (dimTable.bits), with
//     atomic stores, and builds the slot views; a view is read-only once
//     built. The distributor hands retired slots back through
//     Operator.spare, under its mutex.
//
// # Data path
//
// The data path is columnar and allocation-free in steady state per worker:
// fact pages arrive as typed column batches (vec.ColBatch) the scanner opens
// from the buffer pool's frames, once per page per revolution, whose decoded
// columns live until the distributor recycles the item; each worker annotates
// a page by running the vectorized fact predicate (expr.CompileVec) of every
// slot its view holds over the batch into a selection vector and scattering
// the slot's bit into the flat inline bitmap arena; the probe loop reads the
// join-key column as a raw []int64 (the star-schema common case) instead of
// boxing datums; and the distributor routes surviving tuples by appending
// fact columns straight from the batch, and dimension payloads from the
// tables' batches, to each query's pooled output batch — no row is built.
// Each pipeline item owns flat arrays, recycled through the operator's free
// list: per page row, one []uint64 bitmap arena where tuple i holds words
// [i*stride,(i+1)*stride) and one live-row index; per survivor, its joined
// entries, which the worker resolves once the chain is done, only for the
// dimensions some query of the page's view routes a column from.
//
// # Items
//
// Every tick travels as one item, and the operator holds at most
// itemBound(w) = 2 + cap(order) = 2 + 2·w·(queueLen+1) of them for w
// workers, so its arrays stay live at the pipeline's size between
// collections. An item the scanner has made is on the free list or in one
// of three places: the scanner's hand (1), the distributor's hand (1), or
// named by a tick in the order channel — the control tick's item itself,
// or a data tick's page in its worker's queue, hand or output. The order
// channel is deep enough to name every page the workers can hold (each
// queueLen in its queue, one in hand and queueLen+1 in its output), so a
// fast worker still runs up to queueLen+1 pages ahead of a slow one. The
// scanner takes an item only with none in hand, so the free list is never
// empty once itemBound items exist: getItem never waits, and putItem, with
// room for every item made, never blocks. A free item keeps its arrays for
// the operator's lifetime: a page's rows of bitmap words and row indexes,
// and joined entries for the most survivors a page it carried had, so a
// selective workload holds few entries.
package cjoin

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/storage"
)

// ErrClosed is returned by Run after the operator has been shut down.
var ErrClosed = errors.New("cjoin: operator closed")

// DimSpec fixes one dimension of the Global Query Plan chain: the fact
// foreign-key column and the dimension primary-key column.
type DimSpec struct {
	Table      *storage.Table
	FactKeyCol int
	DimKeyCol  int
}

// Config tunes the operator. The zero value selects every default; negative
// values (and a Workers count beyond MaxWorkers) are rejected by NewOperator.
type Config struct {
	// BatchSize is the number of joined rows per batch delivered to a query.
	// Default: batch.DefaultCapacity.
	BatchSize int
	// Workers is the number of parallel probe pipelines the fact stream is
	// partitioned across. Default: runtime.GOMAXPROCS(0).
	Workers int
	// NoPrune turns off zone-map page pruning in the shared scan (the
	// pruning-on/off ablation toggle; pruning is on by default).
	NoPrune bool
}

// outBuffer is the per-query output channel depth, in batches.
const outBuffer = 4

// queueLen is each worker's input queue depth, in ticks: a few pages of
// slack, so a worker busy on one page does not stall the scanner.
const queueLen = 4

// orderLen is the order channel's depth for nw workers: a tick for every
// page the workers can hold, each in its queue, its hand and its output.
func orderLen(nw int) int { return 2 * nw * (queueLen + 1) }

// itemBound is how many pipeline items an operator of nw workers holds at
// most (see "Items" in the package doc): the scanner's one in hand, the
// distributor's one in hand, and one for each tick the order channel holds.
func itemBound(nw int) int { return 2 + orderLen(nw) }

// MaxWorkers bounds Config.Workers; a larger value is almost certainly a
// bug (e.g. a row count passed in the wrong field) and would only burn
// goroutines and queue slots on idle workers.
const MaxWorkers = 1024

// normalize is the single place configuration defaults live: it validates
// cfg and resolves every zero field to its documented default.
func (c Config) normalize() (Config, error) {
	switch {
	case c.BatchSize < 0:
		return c, fmt.Errorf("cjoin: BatchSize %d is negative", c.BatchSize)
	case c.Workers < 0:
		return c, fmt.Errorf("cjoin: Workers %d is negative", c.Workers)
	case c.Workers > MaxWorkers:
		return c, fmt.Errorf("cjoin: Workers %d exceeds MaxWorkers (%d)", c.Workers, MaxWorkers)
	}
	if c.BatchSize == 0 {
		c.BatchSize = batch.DefaultCapacity
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// Stats are cumulative operator counters.
type Stats struct {
	Admitted       int64 // queries admitted into the GQP
	Completed      int64 // queries that finished a full sweep
	Canceled       int64 // queries canceled mid-sweep
	Failed         int64 // queries retired with a typed error (page loss, deadline, panic)
	SlotHighWater  int64 // highest bitmap slot count ever allocated
	PagesScanned   int64 // fact pages read by the circular scan
	PagesPruned    int64 // fact pages skipped whole: no attached query could match
	ZoneSkips      int64 // (page, query) annotate passes skipped by zone maps
	FactTuplesIn   int64 // fact tuples entering the pipeline
	DroppedAtScan  int64 // tuples whose bitmap was zero after fact predicates
	Probes         int64 // dimension hash probes
	ProbeMisses    int64 // probes with no matching dimension tuple
	DroppedInChain int64 // tuples dropped inside the join chain
	TuplesRouted   int64 // (tuple, query) deliveries by the distributor
	// Fault-isolation counters: quarantined fact pages fail only the
	// queries whose zone checks cover them, deadlines retire queries
	// through the epoch protocol, and a panicking compiled predicate is
	// converted into a typed failure of the query it belongs to, at the
	// goroutine boundary.
	PagesQuarantined int64 // quarantined-page encounters by the circular sweep
	PageFailures     int64 // (page, query) failures charged to quarantined pages
	DeadlineExpired  int64 // queries retired mid-sweep at their deadline
	PanicFailures    int64 // recovered predicate/kernel panics
	// Busy is the accumulated processing time across all pipeline
	// goroutines (scanner, probe workers, distributor) — the GQP's share
	// of the CPU-utilisation proxy.
	Busy time.Duration
	// DistributorBusy is the distributor's part of Busy (included in Busy,
	// not added to it): taking ticks, routing tuples, retiring queries.
	DistributorBusy time.Duration

	// Grafted counted admissions folded onto another query's bitmap slot.
	//
	// Deprecated: every admission opens a slot of its own, so Grafted is
	// always 0.
	Grafted int64
}

// PanicError is the typed failure a query receives when its compiled
// predicate (or a kernel acting on its behalf) panicked. The panic is
// recovered at the goroutine boundary, so the process and every other query
// sharing the pipeline survive.
type PanicError struct{ Recovered any }

func (e *PanicError) Error() string {
	return fmt.Sprintf("cjoin: recovered panic: %v", e.Recovered)
}

// Operator is a running CJOIN pipeline over one fact table and a fixed
// dimension chain.
type Operator struct {
	fact   *storage.Table
	specs  []DimSpec
	byName map[string]int
	cfg    Config

	tables  []*dimTable // the dimensions: shared probe indexes and entry bitmaps
	workers []*worker

	admitCh     chan *subscription
	closeCh     chan struct{}
	closeOnce   sync.Once
	releaseOnce sync.Once // the dimension index references, after wg
	wg          sync.WaitGroup

	// spare holds retired queries whose slot ids the scanner may reuse. The
	// distributor adds a query as it applies the query's finish tick, when
	// every page dealt before the tick has been probed; slotID takes one.
	spareMu sync.Mutex
	spare   []*subscription

	// open is the registry of admitted queries whose output is still open:
	// what the distributor's shutdown fails (see the package doc).
	openMu sync.Mutex
	open   map[*subscription]struct{}

	// abortCause records the first pipeline-goroutine panic; the shutdown
	// path delivers it (instead of ErrClosed) to every query still active.
	abortMu    sync.Mutex
	abortCause error

	// items is the free list of pipeline items, as deep as the pipeline's
	// in-flight bound (itemBound); made counts the items ever allocated,
	// which never exceeds it.
	items chan *item
	made  atomic.Int64

	stats struct {
		admitted, completed, canceled        atomic.Int64
		failed                               atomic.Int64
		slotHighWater                        atomic.Int64
		pagesScanned, pagesPruned, zoneSkips atomic.Int64
		factTuplesIn, droppedAtScan          atomic.Int64
		probes, probeMisses, droppedInChain  atomic.Int64
		tuplesRouted                         atomic.Int64
		pagesQuarantined, pageFailures       atomic.Int64
		deadlineExpired, panicFailures       atomic.Int64
		busyNanos, distBusyNanos             atomic.Int64
	}
}

// NewOperator validates cfg, takes a reference to each dimension's shared
// join index (building it with one scan of the dimension table unless some
// holder already has it; a repeated join key fails with a
// DuplicateKeyError) and starts the scanner, the probe workers and the
// distributor.
func NewOperator(fact *storage.Table, dims []DimSpec, cfg Config) (*Operator, error) {
	ncfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	op := &Operator{
		fact:    fact,
		specs:   dims,
		byName:  make(map[string]int, len(dims)),
		cfg:     ncfg,
		admitCh: make(chan *subscription),
		closeCh: make(chan struct{}),
		open:    make(map[*subscription]struct{}),
	}
	for i, d := range dims {
		if _, dup := op.byName[d.Table.Name]; dup {
			return nil, fmt.Errorf("cjoin: duplicate dimension %q", d.Table.Name)
		}
		op.byName[d.Table.Name] = i
	}

	op.tables = make([]*dimTable, len(dims))
	for i, d := range dims {
		t, err := newDimTable(i, d)
		if err != nil {
			releaseTables(op.tables[:i])
			return nil, err
		}
		op.tables[i] = t
	}

	nw := op.cfg.Workers
	order := make(chan tick, orderLen(nw))
	op.items = make(chan *item, itemBound(nw))
	op.workers = make([]*worker, nw)
	// A worker's output holds its queue and its page in hand, so a worker
	// that has run ahead of a slower one can empty both before it blocks.
	for i := range op.workers {
		op.workers[i] = &worker{op: op, in: make(chan *item, queueLen), out: make(chan *item, queueLen+1)}
	}
	dist := &distributor{op: op, order: order}

	op.wg.Add(nw + 2) // scanner, workers, distributor
	go op.scan(order)
	for _, w := range op.workers {
		go w.run()
	}
	go dist.run()
	return op, nil
}

// Close shuts the pipeline down. Active queries receive ErrClosed. Every
// reader of a dimension table's batch is a pipeline goroutine (admission's
// selections in the scanner, payload routing in the distributor; Run only
// sends the query and reads its delivery channel), so once they have all
// exited the index references are dropped, exactly once; an index other
// holders still read outlives the operator.
func (op *Operator) Close() {
	op.closeOnce.Do(func() { close(op.closeCh) })
	op.wg.Wait()
	op.releaseOnce.Do(func() { releaseTables(op.tables) })
}

// releaseTables drops the dimension tables' index references.
func releaseTables(tables []*dimTable) {
	for _, t := range tables {
		t.ix.Release()
	}
}

// handBack puts a retired query's slot on the spare list.
func (op *Operator) handBack(sub *subscription) {
	op.spareMu.Lock()
	op.spare = append(op.spare, sub)
	op.spareMu.Unlock()
}

// takeSpare takes a retired query off the spare list, nil when it is empty.
func (op *Operator) takeSpare() (sub *subscription) {
	op.spareMu.Lock()
	if n := len(op.spare); n > 0 {
		sub, op.spare[n-1] = op.spare[n-1], nil
		op.spare = op.spare[:n-1]
	}
	op.spareMu.Unlock()
	return sub
}

// Stats snapshots the operator counters.
func (op *Operator) Stats() Stats {
	// The distributor adds to busyNanos before distBusyNanos, so loading
	// them in the other order keeps DistributorBusy <= Busy.
	distBusy := time.Duration(op.stats.distBusyNanos.Load())
	return Stats{
		Admitted:       op.stats.admitted.Load(),
		Completed:      op.stats.completed.Load(),
		Canceled:       op.stats.canceled.Load(),
		Failed:         op.stats.failed.Load(),
		SlotHighWater:  op.stats.slotHighWater.Load(),
		PagesScanned:   op.stats.pagesScanned.Load(),
		PagesPruned:    op.stats.pagesPruned.Load(),
		ZoneSkips:      op.stats.zoneSkips.Load(),
		FactTuplesIn:   op.stats.factTuplesIn.Load(),
		DroppedAtScan:  op.stats.droppedAtScan.Load(),
		Probes:         op.stats.probes.Load(),
		ProbeMisses:    op.stats.probeMisses.Load(),
		DroppedInChain: op.stats.droppedInChain.Load(),
		TuplesRouted:   op.stats.tuplesRouted.Load(),

		PagesQuarantined: op.stats.pagesQuarantined.Load(),
		PageFailures:     op.stats.pageFailures.Load(),
		DeadlineExpired:  op.stats.deadlineExpired.Load(),
		PanicFailures:    op.stats.panicFailures.Load(),

		Busy:            time.Duration(op.stats.busyNanos.Load()),
		DistributorBusy: distBusy,
	}
}

// abort records a pipeline-goroutine panic and initiates shutdown without
// waiting for the other goroutines (they observe closeCh). The process and
// every other operator survive; this operator's queries fail with the cause.
func (op *Operator) abort(r any) {
	op.stats.panicFailures.Add(1)
	op.abortMu.Lock()
	if op.abortCause == nil {
		op.abortCause = &PanicError{Recovered: r}
	}
	op.abortMu.Unlock()
	op.closeOnce.Do(func() { close(op.closeCh) })
}

// shutdownCause is the error delivered to queries still active at shutdown:
// the recorded abort cause, or ErrClosed for an orderly Close.
func (op *Operator) shutdownCause() error {
	op.abortMu.Lock()
	defer op.abortMu.Unlock()
	if op.abortCause != nil {
		return op.abortCause
	}
	return ErrClosed
}

// Config returns the operator's configuration with every default resolved
// (Workers is the number of parallel probe pipelines actually running).
func (op *Operator) Config() Config { return op.cfg }

// addBusy accounts pipeline processing time.
func (op *Operator) addBusy(d time.Duration) { op.stats.busyNanos.Add(int64(d)) }
