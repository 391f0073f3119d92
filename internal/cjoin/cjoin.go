// Package cjoin implements the CJOIN operator: a Global Query Plan (GQP)
// that evaluates the joins of all concurrent star queries in a single shared
// plan (proactive sharing, §3 of the paper).
//
// The plan is data-parallel: one scanner drives the circular scan of the
// fact table and deals fact pages round-robin to Config.Workers probe
// workers; each worker annotates its pages with query bitmaps (bit q is set
// iff the tuple satisfies query q's fact-table predicate) and probes them
// through the whole dimension chain; a distributor merges the worker streams
// back into scan order and routes each surviving joined tuple to every query
// whose bit survived.
//
//	            ┌→ worker 0 (annotate → probe dim₁..dimₖ) ─┐
//	scanner ────┼→ worker 1 (annotate → probe dim₁..dimₖ) ─┼→ distributor
//	            └→ …                                       ─┘   (seq merge)
//
// Each dimension is split in two. Its rows and their join index are one
// dimtab.Table — the index the query-centric hash join builds too — built
// once at NewOperator and probed immutably by every worker (a direct array
// over dense integer keys, hashed slots otherwise); a dimension whose join
// key repeats is refused with a DuplicateKeyError, since CJOIN joins a fact
// tuple to one entry. The per-entry query bitmaps — the only state that
// changes as queries come and go — are replicated per worker so the probe
// hot path never takes a lock.
//
// Queries are admitted and retired through an epoch protocol: every logical
// tick of the scanner is either one fact page (sent to exactly one worker)
// or a control tick (broadcast to every worker and sent once to the
// distributor). Ticks carry a global sequence number; each worker receives
// its ticks in sequence order, so it switches its replicated query bitmaps
// at the same logical point of the fact stream as every other worker, and
// the distributor processes ticks in strict sequence order (buffering
// out-of-order arrivals in a ring), which preserves the paper's semantics: a
// query sees each fact tuple exactly once — its admission tick precedes the
// first page of its sweep, its finish tick follows the last — and each
// query's batches are delivered in scan order.
//
// The data path is columnar and allocation-free in steady state per worker:
// fact pages arrive as typed column batches (vec.ColBatch) shared from the
// buffer pool's per-frame columnar cache; each worker annotates a page by
// running every active query's vectorized fact predicate (expr.CompileVec)
// over the batch into a selection vector and scattering the query's bit into
// the flat inline bitmap arena; the probe loop reads the join-key column as
// a raw []int64 (the star-schema common case) instead of boxing datums; and
// the distributor routes surviving tuples by appending fact columns straight
// from the batch, and dimension payloads from the tables' batches, to each
// query's pooled output batch — no row is built. Each pipeline item owns
// flat arenas (one []uint64 bitmap arena where tuple i holds words
// [i*stride,(i+1)*stride), one joined-dimension-row arena, one live-row
// index array) recycled through a sync.Pool.
package cjoin

import (
	"context"
	"errors"
	"fmt"
	mathbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/bitvec"
	"repro/internal/dimtab"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
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
	// QueueLen is the per-worker input queue depth, in fact pages. Default: 4.
	QueueLen int
	// Workers is the number of parallel probe pipelines the fact stream is
	// partitioned across. Default: runtime.GOMAXPROCS(0).
	Workers int
	// DisablePrune turns off zone-map page pruning in the shared scan (the
	// pruning-on/off ablation toggle; pruning is on by default).
	DisablePrune bool
	// DisableFold turns off predicate-subsumption query folding: with
	// folding on (the default), a query whose fact predicate is implied by
	// a running query's — and whose dimension set and predicates match it
	// exactly — grafts onto that query's bitmap slot instead of taking its
	// own, and the distributor applies only the residual predicate per
	// routed tuple.
	DisableFold bool
}

// outBuffer is the per-query output channel depth, in batches.
const outBuffer = 4

// MaxWorkers bounds Config.Workers; a larger value is almost certainly a
// bug (e.g. a row count passed in the wrong field) and would only burn
// memory on idle replicas.
const MaxWorkers = 1024

// normalize is the single place configuration defaults live: it validates
// cfg and resolves every zero field to its documented default.
func (c Config) normalize() (Config, error) {
	switch {
	case c.BatchSize < 0:
		return c, fmt.Errorf("cjoin: BatchSize %d is negative", c.BatchSize)
	case c.QueueLen < 0:
		return c, fmt.Errorf("cjoin: QueueLen %d is negative", c.QueueLen)
	case c.Workers < 0:
		return c, fmt.Errorf("cjoin: Workers %d is negative", c.Workers)
	case c.Workers > MaxWorkers:
		return c, fmt.Errorf("cjoin: Workers %d exceeds MaxWorkers (%d)", c.Workers, MaxWorkers)
	}
	if c.BatchSize == 0 {
		c.BatchSize = batch.DefaultCapacity
	}
	if c.QueueLen == 0 {
		c.QueueLen = 4
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
	Grafted        int64 // admissions folded onto a running query's bitmap slot
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
	// through the epoch protocol, and panicking compiled predicates are
	// converted into per-query failures at the goroutine boundary.
	PagesQuarantined int64 // quarantined-page encounters by the circular sweep
	PageFailures     int64 // (page, query) failures charged to quarantined pages
	DeadlineExpired  int64 // queries retired mid-sweep at their deadline
	PanicFailures    int64 // recovered predicate/kernel panics
	// Busy is the accumulated processing time across all pipeline
	// goroutines (scanner, probe workers, distributor) — the GQP's share
	// of the CPU-utilisation proxy.
	Busy time.Duration
}

// ctlKind discriminates control messages.
type ctlKind uint8

const (
	ctlAdmit ctlKind = iota
	ctlFinish
	// ctlRelease frees a host query's bitmap slot and dimension bits once
	// its last grafted reader has finished. A host with live grafts gets
	// ctlFinish (delivery ends) without the release; the release follows
	// when the graft population drains.
	ctlRelease
)

// ctlMsg is a pipeline control message for one query.
type ctlMsg struct {
	kind ctlKind
	sub  *subscription
}

// epoch is the broadcast form of a control tick: the admissions and
// retirements every probe worker applies to its replicated query bitmaps
// before processing any later page. Epochs are immutable once published
// (workers on different ticks read them concurrently).
type epoch struct {
	pre  []ctlMsg // admissions, applied before any later page
	post []ctlMsg // retirements, applied after every earlier page
}

// wmsg is one tick on a worker's input queue: a control epoch or a fact
// page. Per-queue FIFO order is sequence order, so a worker always applies
// an epoch at the same stream position as its peers.
type wmsg struct {
	ep *epoch
	it *item
}

// item is the unit flowing into the distributor: one tick of the fact
// stream. Data ticks carry a page's surviving tuples; control ticks carry
// the distributor's copy of an epoch's admissions/retirements. seq is the
// tick's global sequence number — the distributor processes items in strict
// seq order.
//
// Tuples live in flat arenas so a page costs zero steady-state allocations:
// tuple i is row rowIdx[i] of the page's column batch cols, its query bitmap
// is the word slice words[i*stride:(i+1)*stride], and its joined entry for
// dimension j is dimEnt[rowIdx[i]*ndims+j] — an index into that dimension
// table's entry-aligned column batch, so the distributor routes dimension
// payloads with typed column copies instead of boxing datums. dimEnt is
// indexed by the tuple's page row, which never changes, so the probe loop's
// in-place compaction moves only rowIdx and the bitmap words as tuples die,
// never the joined entries. A dimEnt slot is only ever read for a (tuple,
// query) pair whose bit survived that dimension's probe, which implies the
// probe hit and wrote the slot on the current page — so stale slots from a
// recycled item are never observed and need not be cleared.
type item struct {
	seq  int64
	page int // fact page index of a data tick (zone-map lookup key)
	pre  []ctlMsg
	post []ctlMsg

	// cols is the decoded fact page (data ticks), shared from the buffer
	// pool's columnar cache. The item owns one reference, released when the
	// distributor recycles the item.
	cols *vec.ColBatch

	n      int      // live tuples
	stride int      // bitmap words per tuple
	ndims  int      // dimension slots per tuple
	rowIdx []int32  // rowIdx[:n]: live tuple i → row index in cols
	dimEnt []int32  // dimEnt[r*ndims+j]: joined entry of dim j for page row r
	words  []uint64 // words[i*stride:(i+1)*stride]: tuple i's bitmap
}

// ensure sizes the arenas for n tuples with the given bitmap stride.
func (it *item) ensure(n, stride, ndims int) {
	it.stride, it.ndims = stride, ndims
	if cap(it.rowIdx) < n {
		it.rowIdx = make([]int32, n)
	} else {
		it.rowIdx = it.rowIdx[:n]
	}
	if cap(it.dimEnt) < n*ndims {
		it.dimEnt = make([]int32, n*ndims)
	} else {
		it.dimEnt = it.dimEnt[:n*ndims]
	}
	if cap(it.words) < n*stride {
		it.words = make([]uint64, n*stride)
	} else {
		it.words = it.words[:n*stride]
	}
}

// getItem takes a recycled pipeline item from the pool.
func (op *Operator) getItem() *item {
	if v := op.itemPool.Get(); v != nil {
		return v.(*item)
	}
	return &item{}
}

// putItem recycles an item after the distributor is done with it. Control
// slots are zeroed so pooled items do not pin retired subscriptions across
// idle periods, and the item's reference on the page batch is released back
// to the columnar cache's pool. The dimension-entry arena is left as is:
// stale slots are plain indices into tables that live for the operator's
// lifetime, and the probe loop never reads a slot it did not write on the
// current page.
func (op *Operator) putItem(it *item) {
	for i := range it.pre {
		it.pre[i] = ctlMsg{}
	}
	for i := range it.post {
		it.post[i] = ctlMsg{}
	}
	it.pre, it.post = it.pre[:0], it.post[:0]
	if it.cols != nil {
		it.cols.Release()
		it.cols = nil
	}
	it.seq = 0
	it.n = 0
	op.itemPool.Put(it)
}

// routeCol is one precomputed output column of a subscription: a fact column
// (dim == -1) or a payload column of the joined dimension row.
type routeCol struct {
	dim int // operator dimension index, or -1 for the fact row
	col int
}

// subscription is one admitted query.
type subscription struct {
	q       *plan.StarQuery
	factVec expr.VecPred    // vectorized fact predicate (nil = every fact row qualifies)
	prune   expr.PruneCheck // page-level can-match check (nil = every page)
	dimIdx  []int           // operator dim index per q.Dims entry

	// Per-operator-dimension admission plan, compiled once at subscription
	// time and then applied by every worker replica: dimRef[d] reports
	// whether the query references dimension d; dimPredVec[d] is its
	// vectorized dimension predicate (nil = every dimension row qualifies),
	// evaluated over the dimension table's cached column batch at admission
	// time.
	dimRef     []bool
	dimPredVec []expr.VecPred

	// Precomputed distributor route: output width and flat column map,
	// derived once at subscription time instead of per routed tuple.
	outWidth int
	route    []routeCol

	id        int // bitmap slot, assigned at admission
	pagesLeft int // fact pages remaining in this query's sweep

	// Fold (predicate-subsumption graft) state. factPredE/dimPredE keep the
	// raw predicate expressions so admission can prove implication
	// (expr.Subsumes) and dimension equality (expr.Equal) against running
	// queries. A grafted query shares its host's bitmap slot: hostSub points
	// at the host, and residual (the vectorized leftover of its fact
	// predicate, nil when the predicates match exactly) is evaluated by the
	// distributor per routed tuple over a one-row selection of the fact
	// page's batch.
	factPredE expr.Expr
	dimPredE  []expr.Expr // per operator dimension; nil = unconstrained

	hostSub  *subscription
	residual expr.VecPred

	// Host-side graft bookkeeping. grafts is distributor-owned (live
	// grafted readers fed from this query's bits); graftsLeft and finished
	// are scanner-owned; holdBits is set by the scanner before publishing
	// the host's finish tick and read by workers/distributor when that tick
	// arrives (the channel send orders the accesses); closed and regd are
	// distributor-owned dedupe flags (a held host stays registered after
	// its delivery closes). Whether a canceled host must keep annotating
	// for live grafts is tracked per worker (worker.held), because only
	// epoch-ordered state is safe to consult against in-flight pages.
	grafts     []*subscription
	graftsLeft int
	finished   bool
	holdBits   bool
	closed     bool
	regd       bool

	// deadline is the query's context deadline (zero = none); the scanner
	// retires past-deadline queries between pages through the epoch
	// protocol, so a stuck or slow consumer never holds its bitmap slot
	// beyond its budget.
	deadline time.Time

	out      chan *batch.Batch
	cancelCh chan struct{}
	canceled atomic.Bool
	err      error // set before out is closed

	// Asynchronous failure (a panicking compiled predicate, observed on a
	// worker or the distributor). failCause is written inside failOnce
	// before the canceled flag is raised; the scanner's acquire load of
	// canceled makes it visible, and it is promoted to err at retirement.
	failOnce  sync.Once
	failCause error

	// Distributor-side accumulation: routed tuples are appended column-wise
	// into a pooled ColBatch and delivered as a batch over it, so the
	// engine's grouped aggregation above the CJOIN stage consumes the GQP's
	// output vectorized.
	pendCols *vec.ColBatch
	pendN    int
	// cut records that a delivery was dropped because the operator was
	// closing (distributor-owned): a query that lost rows to the shutdown
	// must not retire clean even if its finish tick was already in flight.
	cut bool
}

// fail marks the subscription failed with cause, exactly once. Safe from any
// pipeline goroutine: the cause write happens-before the canceled flag it is
// observed through, and the scanner retires the query on its next tick.
func (s *subscription) fail(cause error) {
	s.failOnce.Do(func() {
		s.failCause = cause
		s.canceled.Store(true)
	})
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

	tables  []*dimTable // shared immutable probe indexes
	workers []*worker

	admitCh     chan *subscription
	freeCh      chan int
	closeCh     chan struct{}
	closeOnce   sync.Once
	releaseOnce sync.Once // the dimension tables' batches, after wg
	wg          sync.WaitGroup
	prodWG      sync.WaitGroup // scanner + workers; gates the fan-in close

	// stragglers are the subscriptions still active when the scanner shut
	// down; published before the fan-in closes so the distributor's
	// shutdown path can fail every admitted query exactly once.
	stragglerMu sync.Mutex
	stragglers  []*subscription

	// abortCause records the first pipeline-goroutine panic; the shutdown
	// path delivers it (instead of ErrClosed) to every query still active.
	abortMu    sync.Mutex
	abortCause error

	itemPool sync.Pool

	stats struct {
		admitted, completed, canceled        atomic.Int64
		failed                               atomic.Int64
		grafted, slotHighWater               atomic.Int64
		pagesScanned, pagesPruned, zoneSkips atomic.Int64
		factTuplesIn, droppedAtScan          atomic.Int64
		probes, probeMisses, droppedInChain  atomic.Int64
		tuplesRouted                         atomic.Int64
		pagesQuarantined, pageFailures       atomic.Int64
		deadlineExpired, panicFailures       atomic.Int64
		busyNanos                            atomic.Int64
	}
}

// NewOperator validates cfg, builds the shared dimension probe indexes (one
// scan of each dimension table; a repeated join key fails with a
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
		freeCh:  make(chan int, 1024),
		closeCh: make(chan struct{}),
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
	fanIn := make(chan *item, nw*op.cfg.QueueLen+nw)
	op.workers = make([]*worker, nw)
	for i := range op.workers {
		w := &worker{
			op:   op,
			in:   make(chan wmsg, op.cfg.QueueLen),
			out:  fanIn,
			dims: make([]dimState, len(dims)),
		}
		for j, t := range op.tables {
			w.dims[j] = newDimState(t, op)
		}
		op.workers[i] = w
	}
	dist := &distributor{op: op, in: fanIn}

	op.wg.Add(nw + 3) // scanner, workers, fan-in closer, distributor
	op.prodWG.Add(nw + 1)
	go op.scan(fanIn)
	for _, w := range op.workers {
		go w.run()
	}
	go func() {
		defer op.wg.Done()
		op.prodWG.Wait()
		close(fanIn)
	}()
	go dist.run()
	return op, nil
}

// Close shuts the pipeline down. Active queries receive ErrClosed. Every
// reader of a dimension table's batch is a pipeline goroutine (admission on
// the workers' replicas, payload routing in the distributor; a Run past
// admission only reads its delivery channel), so once they have all exited
// the batches are released, exactly once.
func (op *Operator) Close() {
	op.closeOnce.Do(func() { close(op.closeCh) })
	op.wg.Wait()
	op.releaseOnce.Do(func() { releaseTables(op.tables) })
}

// releaseTables drops the dimension tables' batch references.
func releaseTables(tables []*dimTable) {
	for _, t := range tables {
		t.tab.Release()
	}
}

// Stats snapshots the operator counters.
func (op *Operator) Stats() Stats {
	return Stats{
		Admitted:       op.stats.admitted.Load(),
		Completed:      op.stats.completed.Load(),
		Canceled:       op.stats.canceled.Load(),
		Failed:         op.stats.failed.Load(),
		Grafted:        op.stats.grafted.Load(),
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

		Busy: time.Duration(op.stats.busyNanos.Load()),
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

// Run admits the star query into the Global Query Plan, streams its joined
// tuples to emit, and returns when the query's circular sweep completes.
// It implements engine.StarRunner.
func (op *Operator) Run(ctx context.Context, q *plan.StarQuery, emit func(*batch.Batch) error) error {
	sub, err := op.newSubscription(q)
	if err != nil {
		return err
	}
	// A context dead on arrival never enters the admission select: the
	// select below would otherwise race a ready admitCh against the closed
	// Done channel and sometimes admit work nobody will consume.
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok {
		// Honored server-side: the scanner retires the query between pages
		// once the deadline passes, whether or not the consumer is reading.
		sub.deadline = dl
	}
	select {
	case op.admitCh <- sub:
	case <-op.closeCh:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	for {
		select {
		case b, ok := <-sub.out:
			if !ok {
				return sub.err
			}
			if err := emit(b); err != nil {
				sub.canceled.Store(true)
				close(sub.cancelCh)
				// Drain until the pipeline retires the query, recycling the
				// undeliverable batches.
				for db := range sub.out {
					db.Done()
				}
				return err
			}
		case <-ctx.Done():
			sub.canceled.Store(true)
			close(sub.cancelCh)
			for db := range sub.out {
				db.Done()
			}
			return ctx.Err()
		}
	}
}

// newSubscription validates the query against the operator's chain and
// precomputes everything the pipeline needs per tuple: the compiled fact and
// dimension predicates (shared read-only by every worker replica) and the
// distributor's output row layout.
func (op *Operator) newSubscription(q *plan.StarQuery) (*subscription, error) {
	if q.Fact != op.fact {
		return nil, fmt.Errorf("cjoin: query fact table %q does not match GQP fact table %q",
			q.Fact.Name, op.fact.Name)
	}
	sub := &subscription{
		q:          q,
		out:        make(chan *batch.Batch, outBuffer),
		cancelCh:   make(chan struct{}),
		dimIdx:     make([]int, len(q.Dims)),
		dimRef:     make([]bool, len(op.specs)),
		dimPredVec: make([]expr.VecPred, len(op.specs)),
		factPredE:  q.FactPred,
		dimPredE:   make([]expr.Expr, len(op.specs)),
	}
	for i, d := range q.Dims {
		idx, ok := op.byName[d.Table.Name]
		if !ok {
			return nil, fmt.Errorf("cjoin: dimension %q is not part of the GQP chain", d.Table.Name)
		}
		spec := op.specs[idx]
		if spec.FactKeyCol != d.FactKeyCol || spec.DimKeyCol != d.DimKeyCol {
			return nil, fmt.Errorf("cjoin: dimension %q join keys (%d=%d) do not match GQP chain (%d=%d)",
				d.Table.Name, d.FactKeyCol, d.DimKeyCol, spec.FactKeyCol, spec.DimKeyCol)
		}
		sub.dimIdx[i] = idx
		sub.dimRef[idx] = true
		sub.dimPredE[idx] = d.Pred
		if d.Pred != nil {
			sub.dimPredVec[idx] = expr.CompileVec(d.Pred)
		}
	}
	if q.FactPred != nil {
		sub.factVec = expr.CompileVec(q.FactPred)
		if !op.cfg.DisablePrune {
			sub.prune = expr.CompilePrune(q.FactPred)
		}
	}
	sub.outWidth = len(q.FactCols)
	for _, d := range q.Dims {
		sub.outWidth += len(d.PayloadCols)
	}
	sub.route = make([]routeCol, 0, sub.outWidth)
	for _, c := range q.FactCols {
		sub.route = append(sub.route, routeCol{dim: -1, col: c})
	}
	for i, d := range q.Dims {
		for _, c := range d.PayloadCols {
			sub.route = append(sub.route, routeCol{dim: sub.dimIdx[i], col: c})
		}
	}
	return sub, nil
}

// graftHost returns a running query that sub can fold onto: an ungrafted,
// uncanceled host over the same dimension set with structurally equal
// dimension predicates whose fact predicate is implied by sub's
// (expr.Subsumes is conservative, so a nil answer only costs a fresh
// bitmap slot, never correctness). Called from the scanner goroutine.
func (op *Operator) graftHost(active []*subscription, sub *subscription) *subscription {
	if op.cfg.DisableFold {
		return nil
	}
	for _, h := range active {
		if h.hostSub != nil || h.err != nil || h.canceled.Load() {
			continue
		}
		if !sameDims(h, sub) {
			continue
		}
		if !expr.Subsumes(h.factPredE, sub.factPredE) {
			continue
		}
		return h
	}
	return nil
}

// sameDims reports whether two queries constrain the dimension chain
// identically: same referenced dimensions, structurally equal predicates.
// The shared bitmap already folds in the host's dimension semijoins, so a
// graft is only sound when they coincide exactly.
func sameDims(a, b *subscription) bool {
	for d := range a.dimRef {
		if a.dimRef[d] != b.dimRef[d] || !expr.Equal(a.dimPredE[d], b.dimPredE[d]) {
			return false
		}
	}
	return true
}

// scan is the pipeline head: it owns the circular fact scan, the active
// query list, bitmap slot assignment and the tick sequence. Fact pages are
// dealt round-robin to the probe workers; admissions and retirements are
// published as control ticks broadcast to every worker (so all replicas
// switch bitmaps at the same stream position) and sent once to the
// distributor (which orders them against the data ticks by sequence
// number).
func (op *Operator) scan(fanIn chan<- *item) {
	var active []*subscription
	defer op.wg.Done()
	defer op.prodWG.Done()
	defer func() {
		for _, w := range op.workers {
			close(w.in)
		}
	}()
	// Publish still-active queries for the distributor's shutdown path.
	// Runs before the worker queues close (and therefore before the fan-in
	// closes), so the list is complete by the time the distributor fails
	// the remaining queries.
	defer func() {
		op.stragglerMu.Lock()
		op.stragglers = append(op.stragglers, active...)
		op.stragglerMu.Unlock()
	}()
	// Last defer runs first: a scanner panic aborts the operator (queries
	// fail with the cause) but never takes the process down.
	defer func() {
		if r := recover(); r != nil {
			op.abort(r)
		}
	}()

	npages := op.fact.File.NumPages()
	pos := 0
	nextSlot := 0
	var freeSlots []int
	var seq int64
	wi := 0 // next worker to deal a page to

	takeSlot := func() int {
		// Prefer recycled slots to keep bitmaps small.
		for {
			select {
			case s := <-op.freeCh:
				freeSlots = append(freeSlots, s)
				continue
			default:
			}
			break
		}
		if n := len(freeSlots); n > 0 {
			s := freeSlots[n-1]
			freeSlots = freeSlots[:n-1]
			return s
		}
		s := nextSlot
		nextSlot++
		op.stats.slotHighWater.Store(int64(nextSlot))
		return s
	}

	admit := func(sub *subscription) ctlMsg {
		if h := op.graftHost(active, sub); h != nil {
			// Fold: share the host's bitmap slot; the distributor applies
			// the residual predicate per routed tuple. Compiling here is
			// fine — admission is off the per-page hot path.
			sub.hostSub = h
			sub.id = h.id
			if re := expr.Residual(h.factPredE, sub.factPredE); re != nil {
				sub.residual = expr.CompileVec(re)
			}
			h.graftsLeft++
			op.stats.grafted.Add(1)
		} else {
			sub.id = takeSlot()
		}
		sub.pagesLeft = npages
		active = append(active, sub)
		op.stats.admitted.Add(1)
		return ctlMsg{kind: ctlAdmit, sub: sub}
	}

	// finishSub appends the control messages retiring sub. A host whose
	// grafts are still sweeping keeps its bits (holdBits); the release
	// follows the last graft's finish. Hosts precede their grafts in
	// active, so a host and its last graft finishing on the same tick emit
	// finish(host), finish(graft), release(host) — in that order.
	finishSub := func(sub *subscription, post []ctlMsg) []ctlMsg {
		sub.finished = true
		if sub.hostSub == nil {
			sub.holdBits = sub.graftsLeft > 0
			return append(post, ctlMsg{kind: ctlFinish, sub: sub})
		}
		post = append(post, ctlMsg{kind: ctlFinish, sub: sub})
		h := sub.hostSub
		h.graftsLeft--
		if h.graftsLeft == 0 && h.finished {
			post = append(post, ctlMsg{kind: ctlRelease, sub: h})
		}
		return post
	}

	// broadcast publishes one control tick: the epoch to every worker, and
	// an item (with its own copy of the control slices, since the epoch
	// outlives the item on slow workers) to the distributor.
	broadcast := func(pre, post []ctlMsg) bool {
		ep := &epoch{pre: pre, post: post}
		for _, w := range op.workers {
			select {
			case w.in <- wmsg{ep: ep}:
			case <-op.closeCh:
				return false
			}
		}
		it := op.getItem()
		it.seq = seq
		seq++
		it.pre = append(it.pre, pre...)
		it.post = append(it.post, post...)
		select {
		case fanIn <- it:
			return true
		case <-op.closeCh:
			return false
		}
	}

	for {
		// Control slices are freshly allocated per tick: the broadcast epoch
		// retains them and slow workers may still be reading them while the
		// scanner has moved on.
		var pre []ctlMsg
		if len(active) == 0 {
			// Idle: block until a query arrives or the operator closes.
			select {
			case sub := <-op.admitCh:
				pre = append(pre, admit(sub))
			case <-op.closeCh:
				return
			}
		}
		// Batch up any further admissions that arrived meanwhile.
	drainAdmits:
		for {
			select {
			case sub := <-op.admitCh:
				pre = append(pre, admit(sub))
			default:
				break drainAdmits
			}
		}
		if len(pre) > 0 {
			if !broadcast(pre, nil) {
				return
			}
		}

		if npages > 0 {
			// Union prune: the page is fetched only if some attached query
			// can match its zone maps. A pruned page still consumes one tick
			// of every active sweep (the retirement loop below decrements
			// pagesLeft unconditionally) — it contributes zero tuples to
			// every query, exactly as if it had been fetched and annotated.
			fetchPos := pos
			if !op.cfg.DisablePrune {
				if zones := op.fact.File.PageZones(fetchPos); zones != nil && len(active) > 0 {
					pruned := true
					for _, sub := range active {
						if sub.canceled.Load() {
							continue
						}
						if sub.prune == nil || op.safePrune(sub, zones) {
							pruned = false
							break
						}
					}
					if pruned {
						pos = (pos + 1) % npages
						op.stats.pagesPruned.Add(1)
						op.fact.File.NotePruned()
						goto retireTick
					}
				}
			}
			{
				t0 := time.Now()
				cb, err := op.fact.File.PageCols(fetchPos)
				op.addBusy(time.Since(t0))
				if err != nil {
					var pe *storage.PageError
					if errors.As(err, &pe) {
						// Quarantined page: blast-radius containment. Only the
						// queries whose zone checks cannot exclude the page are
						// failed (they would have consumed its tuples); every
						// query the page prunes away sweeps on unharmed, and the
						// page costs its survivors one tick, exactly like a
						// pruned page.
						zones := op.fact.File.PageZones(fetchPos)
						fpost := make([]ctlMsg, 0, len(active))
						remaining := active[:0]
						for _, sub := range active {
							covered := sub.prune == nil || zones == nil ||
								op.safePrune(sub, zones)
							if covered && !sub.canceled.Load() {
								sub.err = err
								op.stats.pageFailures.Add(1)
								fpost = finishSub(sub, fpost)
							} else {
								remaining = append(remaining, sub)
							}
						}
						active = remaining
						op.stats.pagesQuarantined.Add(1)
						if len(fpost) > 0 && !broadcast(nil, fpost) {
							return
						}
						pos = (pos + 1) % npages
						goto retireTick
					}
					// Unclassified read failure: abort every active query;
					// errors are delivered through finish markers on a
					// control tick.
					post := make([]ctlMsg, 0, len(active))
					for _, sub := range active {
						sub.err = err
						post = finishSub(sub, post)
					}
					active = active[:0]
					if !broadcast(nil, post) {
						return
					}
					continue
				}
				pos = (pos + 1) % npages
				op.stats.pagesScanned.Add(1)
				op.stats.factTuplesIn.Add(int64(cb.Len()))

				it := op.getItem()
				it.seq = seq
				seq++
				it.cols = cb
				it.page = fetchPos
				// Deal the page round-robin, but skip workers whose queues are
				// full so one slow worker cannot head-of-line block the rest —
				// the distributor's sequence merge makes any assignment
				// correct. Only when every queue is full does the scanner block
				// (on the round-robin choice), which is the backpressure path.
				sent := false
				for k := 0; k < len(op.workers) && !sent; k++ {
					select {
					case op.workers[(wi+k)%len(op.workers)].in <- wmsg{it: it}:
						wi = (wi + k + 1) % len(op.workers)
						sent = true
					default:
					}
				}
				if !sent {
					w := op.workers[wi]
					wi = (wi + 1) % len(op.workers)
					select {
					case w.in <- wmsg{it: it}:
					case <-op.closeCh:
						op.putItem(it)
						return
					}
				}
			}
		}

	retireTick:
		// Retire queries whose sweep ended with this page, that canceled
		// (or failed asynchronously), or whose deadline has passed. The
		// finish tick follows the sweep's last page, so every worker and
		// the distributor see that page first. time.Now is consulted only
		// while a deadline-bearing query is active — deadline-free sweeps
		// pay nothing.
		var post []ctlMsg
		var now time.Time
		remaining := active[:0]
		for _, sub := range active {
			if npages > 0 {
				sub.pagesLeft--
			}
			canceled := sub.canceled.Load()
			if canceled && sub.err == nil {
				// fail() wrote the cause before raising the flag; a plain
				// consumer cancellation leaves it nil.
				sub.err = sub.failCause
			}
			expired := false
			if !canceled && sub.pagesLeft > 0 && !sub.deadline.IsZero() {
				if now.IsZero() {
					now = time.Now()
				}
				if !now.Before(sub.deadline) {
					expired = true
					sub.err = context.DeadlineExceeded
					op.stats.deadlineExpired.Add(1)
				}
			}
			if sub.pagesLeft <= 0 || canceled || expired {
				post = finishSub(sub, post)
			} else {
				remaining = append(remaining, sub)
			}
		}
		active = remaining
		if len(post) > 0 {
			if !broadcast(nil, post) {
				return
			}
		}
	}
}

// safePrune evaluates sub's compiled zone check, converting a panic into a
// typed failure of sub alone. It reports false on panic — the caller treats
// the page as unmatchable for sub, which is harmless: the query is already
// failed and retires on the scanner's next tick.
func (op *Operator) safePrune(sub *subscription, zones []storage.ZoneMap) (match bool) {
	defer func() {
		if r := recover(); r != nil {
			op.stats.panicFailures.Add(1)
			sub.fail(&PanicError{Recovered: r})
			match = false
		}
	}()
	return sub.prune(zones)
}

// safeFactSel runs sub's vectorized fact predicate over the page batch,
// converting a panic into a typed failure of sub alone; the page then
// contributes no rows to it, and every other query on the page is untouched.
func (w *worker) safeFactSel(sub *subscription, cb *vec.ColBatch, all, sel []int32) (out []int32) {
	defer func() {
		if r := recover(); r != nil {
			w.op.stats.panicFailures.Add(1)
			sub.fail(&PanicError{Recovered: r})
			out = nil
		}
	}()
	return sub.factVec(cb, all, sel, &w.scratch)
}

// annotate fills it with the page's tuples that satisfy at least one active
// query's fact predicate, writing each survivor's query bitmap into the flat
// word arena. Each query's vectorized fact predicate runs over the whole
// column batch into a selection vector (tight typed-slice loops instead of a
// per-row closure call), and the query's bit is scattered into the bitmap of
// every selected row; a final pass compacts the surviving rows. This is the
// steady-state per-page hot path of every probe worker: it performs no
// allocations once the worker's buffers have warmed to the page size.
func (w *worker) annotate(it *item, active []*subscription, nslots int) {
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
	// Per-query zone skip: a query whose zone check fails for this page
	// skips its vectorized annotate pass entirely — its bitmap stays zero
	// for every row, exactly what evaluating the predicate would produce.
	// The page itself was fetched because some other attached query can
	// match it (the scanner's union prune).
	var zones []storage.ZoneMap
	zonesLoaded := false
	var zskips int64
	for _, sub := range active {
		// A canceled host keeps annotating while grafted readers still
		// consume its bits (this worker's epoch-ordered held count);
		// canceled queries nothing reads skip.
		if sub.canceled.Load() && w.held[sub] == 0 {
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

// dimTable is the shared half of one dimension of the chain: the
// dimension's rows as a dimtab.Table keeping every column, built once by
// NewOperator and probed concurrently by every worker through Find. cb is
// the table's entry batch (row e is entry e, columns in schema order):
// admission evaluates each query's vectorized dimension predicate over it,
// and the distributor routes payload columns out of it. Operator.Close
// releases it.
type dimTable struct {
	idx  int
	spec DimSpec
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
	hf, schema := spec.Table.File, spec.Table.Schema
	all := make([]int, schema.Len())
	for i := range all {
		all[i] = i
	}
	tab := dimtab.New(spec.DimKeyCol, all)
	for p, np := 0, hf.NumPages(); p < np; p++ {
		page, err := hf.PageCols(p)
		if err != nil {
			tab.Release()
			return nil, fmt.Errorf("cjoin: build hash table for %q: %w", spec.Table.Name, err)
		}
		tab.Append(page, page.AllSel())
		page.Release()
	}
	if err := tab.Seal(); err != nil {
		tab.Release()
		return nil, fmt.Errorf("cjoin: dimension %q: %w", spec.Table.Name, err)
	}
	if e := tab.Dup(); e >= 0 {
		err := &DuplicateKeyError{Table: spec.Table.Name, Column: schema.Cols[spec.DimKeyCol].Name,
			Key: tab.Batch().Col(spec.DimKeyCol).Datum(int(e))}
		tab.Release()
		return nil, err
	}
	return &dimTable{idx: idx, spec: spec, tab: tab, cb: tab.Batch()}, nil
}

// dimState is one worker's replica of a dimension's query state: entry
// bitmaps recording which queries' dimension predicates each entry
// satisfies, and the stage mask of queries referencing the dimension. All
// of it is owned by one worker goroutine; the epoch protocol delivers
// admissions and retirements in stream order, so updates are race-free
// without locks. Entry bitmaps live in one contiguous arena — entry i owns
// ebits[i*estride:(i+1)*estride) — so admission and retirement sweep a flat
// array instead of chasing per-entry pointers.
type dimState struct {
	tab *dimTable
	op  *Operator

	ebits   []uint64 // entry bitmap arena
	estride int      // words per entry bitmap
	mask    []uint64 // queries referencing this dimension

	scratch  vec.Scratch // admission-predicate temporaries, replica-owned
	admitSel []int32     // admission selection buffer, sized to the table
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
// mask, re-striding the arena when the query population outgrows it.
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

// admitQuery installs the query's bits in this replica: entry bitmaps for
// every dimension tuple satisfying its predicate, and the stage mask. A
// query with a dimension predicate is evaluated vectorized over the table's
// cached column batch — one kernel sweep instead of one compiled-closure
// call per entry; a predicate-free query marks every entry directly.
func (ds *dimState) admitQuery(sub *subscription) {
	if !sub.dimRef[ds.tab.idx] {
		return // bits outside the mask pass through unchanged
	}
	ds.growTo(sub.id)
	w, bit := sub.id/64, uint64(1)<<(uint(sub.id)&63)
	ds.mask[w] |= bit
	es := ds.estride
	if vp := sub.dimPredVec[ds.tab.idx]; vp != nil {
		all := ds.tab.cb.AllSel()
		if cap(ds.admitSel) < len(all) {
			ds.admitSel = make([]int32, len(all))
		}
		for _, i := range ds.safeDimSel(sub, vp, all) {
			ds.ebits[int(i)*es+w] |= bit
		}
		return
	}
	for i := 0; i < ds.tab.cb.Len(); i++ {
		ds.ebits[i*es+w] |= bit
	}
}

// safeDimSel runs sub's vectorized dimension predicate over the table's
// cached column batch, converting a panic into a typed failure of sub alone
// (its bits simply stay clear on this replica — it retires before
// delivering anything).
func (ds *dimState) safeDimSel(sub *subscription, vp expr.VecPred, all []int32) (out []int32) {
	defer func() {
		if r := recover(); r != nil {
			ds.op.stats.panicFailures.Add(1)
			sub.fail(&PanicError{Recovered: r})
			out = nil
		}
	}()
	return vp(ds.tab.cb, all, ds.admitSel[:len(all)], &ds.scratch)
}

// finishQuery removes the query's bits from this replica.
func (ds *dimState) finishQuery(sub *subscription) {
	if !bitvec.GetWord(ds.mask, sub.id) {
		return
	}
	bitvec.ClearWord(ds.mask, sub.id)
	w, bit := sub.id/64, uint64(1)<<(uint(sub.id)&63)
	es := ds.estride
	for i := 0; i < ds.tab.cb.Len(); i++ {
		ds.ebits[i*es+w] &^= bit
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
	fastInt := kc.AllInt()
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

// worker is one partitioned probe pipeline: it annotates its share of the
// fact stream and probes it through every dimension replica, all within one
// goroutine (no per-dimension hand-off), then forwards the surviving tuples
// to the distributor.
type worker struct {
	op  *Operator
	in  chan wmsg
	out chan<- *item

	dims   []dimState
	active []*subscription // replica of the scanner's active list
	nslots int             // high-water bitmap slot count among admitted queries

	// held counts this worker's view of live grafted readers per host: a
	// graft's ctlAdmit increments, its ctlFinish decrements. Both are
	// epoch-ordered against every page in this worker's queue, so "does a
	// graft still consume this host's bits?" is answered correctly for the
	// page being annotated — a shared flag mutated by the scanner would
	// race with in-flight pages (the scanner moves on as soon as a page is
	// queued) and drop annotation of a canceled host's final held pages.
	held map[*subscription]int

	// cur is the data item being processed, tracked so the panic-recovery
	// path can release its page-batch reference instead of leaking it.
	cur *item

	scratch vec.Scratch // vectorized-predicate temporaries, worker-owned
	selBuf  []int32     // per-query selection buffer, sized to the page
}

// admit applies one admission to the worker's replicas. Grafted queries
// are invisible to the workers: they read their host's bits, so admitting
// them here would double-annotate (and retiring them would clear the
// host's bits — they share a slot).
func (w *worker) admit(sub *subscription) {
	if h := sub.hostSub; h != nil {
		if w.held == nil {
			w.held = make(map[*subscription]int)
		}
		w.held[h]++
		return
	}
	if sub.id+1 > w.nslots {
		w.nslots = sub.id + 1
	}
	w.active = append(w.active, sub)
	for i := range w.dims {
		w.dims[i].admitQuery(sub)
	}
}

// retire applies one retirement to the worker's replicas. A host holding
// its bits for live grafts stays active (annotate keeps producing the
// shared bitmap column) until its ctlRelease arrives.
func (w *worker) retire(sub *subscription) {
	if h := sub.hostSub; h != nil {
		if n := w.held[h] - 1; n > 0 {
			w.held[h] = n
		} else {
			delete(w.held, h)
		}
		return
	}
	if sub.holdBits {
		return
	}
	w.drop(sub)
}

// drop removes a query's bits from this worker's replicas.
func (w *worker) drop(sub *subscription) {
	delete(w.held, sub)
	for i, s := range w.active {
		if s == sub {
			w.active = append(w.active[:i], w.active[i+1:]...)
			break
		}
	}
	for i := range w.dims {
		w.dims[i].finishQuery(sub)
	}
}

// run processes ticks until the scanner closes the queue. Control epochs
// switch the replicated query bitmaps; data ticks are annotated, probed
// through the whole chain and forwarded to the distributor.
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
			for _, c := range msg.ep.pre {
				if c.kind == ctlAdmit {
					w.admit(c.sub)
				}
			}
			for _, c := range msg.ep.post {
				switch c.kind {
				case ctlFinish:
					w.retire(c.sub)
				case ctlRelease:
					w.drop(c.sub)
				}
			}
			w.op.addBusy(time.Since(t0))
			continue
		}
		it := msg.it
		w.cur = it
		w.annotate(it, w.active, w.nslots)
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

// distributor merges the worker streams back into tick order, fans joined
// tuples out to the queries named in their bitmaps and retires queries when
// their finish ticks arrive. Out-of-order arrivals wait in a power-of-two
// ring indexed by sequence number; subscriptions are indexed by bitmap slot
// in a flat slice; and output rows are carved out of a per-batch datum
// arena — so merging and routing a tuple allocates nothing in steady state.
type distributor struct {
	op     *Operator
	in     <-chan *item
	subs   []*subscription // slot id → active subscription (nil when free)
	routed int64           // deliveries since the last counter flush

	next int64   // next tick to process
	ring []*item // reorder buffer; slot = seq & (len-1)

	// cur is the item being processed, tracked so the panic-recovery path
	// can release its page-batch reference instead of leaking it.
	cur *item

	// sel1 and scr are residualMatch's one-row selection and kernel scratch.
	sel1 [1]int32
	scr  vec.Scratch
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

// discard releases sub's undelivered output. A query failed at shutdown gets
// its error, not a last partial batch: a route that panicked may have left
// the pending columns uneven, or allocated them without a row.
func (d *distributor) discard(sub *subscription) {
	if sub.pendCols != nil {
		sub.pendCols.Release()
		sub.pendCols, sub.pendN = nil, 0
	}
}

// route appends the joined output tuple for sub column-wise, following the
// route map precomputed at subscription time: fact columns copy typed
// payloads straight from the page batch, and dimension payload columns copy
// typed payloads from the dimension table's entry-aligned column batch at
// the tuple's joined entry — the whole route loop is typed end to end, no
// Datum boxing on either kind of column.
func (d *distributor) route(sub *subscription, it *item, ti int) {
	if sub.canceled.Load() {
		return
	}
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

// register indexes an admitted subscription by its bitmap slot; grafted
// queries hang off their host instead (they share its slot). regd dedupes
// the shutdown path, which re-registers from the reorder ring and the
// straggler list.
func (d *distributor) register(sub *subscription) {
	if sub.regd {
		return
	}
	sub.regd = true
	if h := sub.hostSub; h != nil {
		h.grafts = append(h.grafts, sub)
		return
	}
	for sub.id >= len(d.subs) {
		d.subs = append(d.subs, nil)
	}
	d.subs[sub.id] = sub
}

// finish retires a query: flush, close, and — unless the query is a host
// still feeding grafted readers, or itself a graft — recycle its bitmap
// slot.
func (d *distributor) finish(sub *subscription) {
	d.deliver(sub)
	if sub.err == nil && sub.canceled.Load() && sub.failCause != nil {
		// Backstop for asynchronous failures (a predicate panic on a worker
		// replica, typically at admission): the scanner may complete a short
		// sweep before it ever observes the canceled flag, finishing the
		// query with a nil error. The finish marker is sequence-ordered
		// behind every page a worker forwarded for this query, so the
		// worker's fail() — cause write, then flag — is visible here.
		sub.err = sub.failCause
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
	sub.closed = true
	if h := sub.hostSub; h != nil {
		// The slot is the host's; just detach from its graft list.
		for i, g := range h.grafts {
			if g == sub {
				h.grafts = append(h.grafts[:i], h.grafts[i+1:]...)
				break
			}
		}
		return
	}
	if sub.holdBits {
		return // grafts still read these bits; ctlRelease recycles the slot
	}
	d.release(sub)
}

// release recycles a query's bitmap slot.
func (d *distributor) release(sub *subscription) {
	if sub.id < len(d.subs) && d.subs[sub.id] == sub {
		d.subs[sub.id] = nil
	}
	select {
	case d.op.freeCh <- sub.id:
	default: // free list full; the slot is simply not reused
	}
}

// routeAll fans one surviving tuple out to the slot's query and every
// grafted reader whose residual predicate accepts it.
func (d *distributor) routeAll(sub *subscription, it *item, ti int) {
	if !sub.closed {
		d.route(sub, it, ti)
	}
	for _, g := range sub.grafts {
		if g.closed || g.canceled.Load() {
			continue
		}
		if g.residual != nil && !d.residualMatch(g, it, ti) {
			continue
		}
		d.route(g, it, ti)
	}
}

// residualMatch evaluates a graft's residual fact predicate over the
// tuple's row of the page batch, as a one-row selection. A panicking
// residual fails the graft alone (reported false: the graft receives no
// further tuples and retires on the scanner's next tick).
func (d *distributor) residualMatch(g *subscription, it *item, ti int) (match bool) {
	defer func() {
		if r := recover(); r != nil {
			d.op.stats.panicFailures.Add(1)
			g.fail(&PanicError{Recovered: r})
			match = false
		}
	}()
	d.sel1[0] = it.rowIdx[ti]
	return len(g.residual(it.cols, d.sel1[:], d.sel1[:], &d.scr)) == 1
}

// process handles one tick: admissions, tuple routing, retirements.
func (d *distributor) process(it *item) {
	t0 := time.Now()
	d.cur = it
	for _, c := range it.pre {
		if c.kind == ctlAdmit {
			d.register(c.sub)
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
					if sub := d.subs[id]; sub != nil {
						d.routeAll(sub, it, i)
					}
				}
			}
		}
	}
	for _, c := range it.post {
		switch c.kind {
		case ctlFinish:
			d.finish(c.sub)
		case ctlRelease:
			d.release(c.sub)
		}
	}
	if d.routed > 0 {
		d.op.stats.tuplesRouted.Add(d.routed)
		d.routed = 0
	}
	d.op.addBusy(time.Since(t0))
	d.cur = nil
	d.op.putItem(it)
}

// run merges and processes ticks until every producer has exited and the
// fan-in closes, then fails whatever is still active with the shutdown
// cause (ErrClosed for an orderly Close, the recovered panic otherwise).
func (d *distributor) run() {
	defer d.op.wg.Done()
	d.merge()
	// If merge exited via panic the fan-in may still be open: drain it,
	// registering parked admissions (their queries must be failed below)
	// and recycling items so no page-batch reference leaks. The drain
	// terminates because abort closed closeCh, which stops the producers.
	for it := range d.in {
		for _, c := range it.pre {
			if c.kind == ctlAdmit {
				d.register(c.sub)
			}
		}
		d.op.putItem(it)
	}
	// Pipeline shut down. The fan-in closed after the scanner and every
	// worker exited, so no more ticks can arrive; ticks dropped on the way
	// down may have left sequence gaps, so first recover admissions parked
	// in the reorder ring and the scanner's still-active list, then fail
	// every remaining query. Registration is deduped by regd and closing
	// by closed (grafted queries share their host's slot, so slot
	// uniqueness alone no longer guarantees exactly-once); a graft always
	// reaches its host via hostSub, and every unfinished host lands in
	// d.subs through the recovery passes, so walking d.subs and each
	// entry's graft list covers every open output channel.
	for i, it := range d.ring {
		if it == nil {
			continue
		}
		for _, c := range it.pre {
			if c.kind == ctlAdmit {
				d.register(c.sub)
			}
		}
		// Recycle the parked item so its page-batch reference is not
		// stranded by the shutdown.
		d.ring[i] = nil
		d.op.putItem(it)
	}
	d.op.stragglerMu.Lock()
	for _, sub := range d.op.stragglers {
		d.register(sub)
	}
	d.op.stragglerMu.Unlock()
	cause := d.op.shutdownCause()
	for _, sub := range d.subs {
		if sub == nil {
			continue
		}
		for _, g := range sub.grafts {
			if g.closed {
				continue
			}
			g.err = cause
			d.discard(g)
			close(g.out)
			g.closed = true
		}
		if sub.closed {
			continue
		}
		sub.err = cause
		d.discard(sub)
		close(sub.out)
		sub.closed = true
	}
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
