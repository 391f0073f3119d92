// Package engine implements the QPipe execution engine: every relational
// operator is a stage, every query plan is decomposed into packets wired by
// page-based buffers, and Simultaneous Pipelining (SP) detects common
// sub-plans among in-flight packets at run time, evaluating one and serving
// the rest from its output. Every edge between packets is a Shared Pages List
// (internal/spl): under push SP each consumer has its own and the producer
// copies every page into each satellite's (the original model), under pull
// SP all consumers read one.
package engine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// StarRunner evaluates star queries on a shared Global Query Plan (the CJOIN
// operator implements this; the engine stays decoupled from its internals).
type StarRunner interface {
	// Run evaluates q, invoking emit for every batch of joined tuples, and
	// returns when the query completed or failed. emit is called from a
	// single goroutine.
	Run(ctx context.Context, q *plan.StarQuery, emit func(*batch.Batch) error) error
}

// Config tunes the engine.
type Config struct {
	// BatchSize is the number of rows per exchanged batch (page).
	BatchSize int

	// SP master-switches Simultaneous Pipelining.
	SP bool
	// SPStages selects the stages allowed to share; nil means every stage
	// (when SP is true). Keys are plan kinds.
	SPStages map[plan.Kind]bool
	// Model selects push-based sharing (a list per consumer, a column copy
	// per satellite) or pull-based sharing (one list all consumers read).
	Model SPModel

	// Star runs CJoin nodes on the shared Global Query Plan; nil disables
	// the CJOIN stage.
	Star StarRunner

	// NoPrune disables zone-map page pruning in table scans (the
	// pruning-on/off ablation toggle; pruning is on by default).
	NoPrune bool

	// ResultCache enables the bounded materialized result cache: plans are
	// fingerprinted and exact repeat templates answered from the previous
	// materialization, until any table they read changes. Results served
	// from the cache are shared between callers — treat Result.Rows as
	// read-only when the cache is on.
	ResultCache bool
	// ResultCacheSize bounds the number of cached results (default 256).
	ResultCacheSize int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BatchSize <= 0 {
		out.BatchSize = batch.DefaultCapacity
	}
	return out
}

// Engine executes query plans over a catalog.
type Engine struct {
	cat    *storage.Catalog
	cfg    Config
	stages [plan.KindCJoin + 1]*Stage
	cache  *resultCache // nil unless Config.ResultCache

	indexJoins atomic.Int64 // hash joins served by a shared index
	selScr     sync.Pool    // *vec.Scratch: a hash join's build-side selection temporaries
}

// New creates an engine over the catalog.
func New(cat *storage.Catalog, cfg Config) *Engine {
	e := &Engine{cat: cat, cfg: cfg.withDefaults()}
	for k := plan.KindScan; k <= plan.KindCJoin; k++ {
		sp := e.cfg.SP && (e.cfg.SPStages == nil || e.cfg.SPStages[k])
		e.stages[k] = newStage(k, sp)
	}
	if cfg.ResultCache {
		e.cache = newResultCache(cfg.ResultCacheSize)
	}
	return e
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// Config returns the engine configuration (defaults resolved).
func (e *Engine) Config() Config { return e.cfg }

// stage returns the stage running operators of kind k.
func (e *Engine) stage(k plan.Kind) *Stage { return e.stages[k] }

// Result is a fully materialized query result.
type Result struct {
	Schema *types.Schema
	Rows   []types.Row
}

// Execute runs one plan to completion and materializes its result: the
// one-root form of ExecuteBatch. With the result cache enabled, an exact
// repeat of a previously executed template (same fingerprint, unchanged
// tables) returns the shared materialization without dispatching any packet.
func (e *Engine) Execute(ctx context.Context, root plan.Node) (*Result, error) {
	var res [1]*Result
	if err := e.execute(ctx, []plan.Node{root}, res[:]); err != nil {
		return nil, err
	}
	return res[0], nil
}

// closedGate is a pre-opened start gate for a streamed query.
var closedGate = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Stream runs one plan and returns the reader delivering its output batches
// as they are produced, without materializing the result. The caller owns the
// reader: it must call Done on every delivered batch and Close the reader
// (early Close cancels the producing packet chain). Streaming bypasses the
// result cache in both directions — batches are consumed destructively, so
// there is nothing reusable to store, and serving a cached materialization
// would defeat the point of incremental delivery.
func (e *Engine) Stream(ctx context.Context, root plan.Node) (Reader, error) {
	return e.dispatch(ctx, root, closedGate)
}

// ExecuteBatch dispatches all plans before any packet starts producing, then
// runs them concurrently. This models clients coordinating to submit their
// queries in batches, which maximizes SP opportunities (Scenario IV) because
// every common sub-plan is registered before any sharing window can close.
// Every root is checked before the first dispatch: one whose hash join has a
// build side no shared index serves refuses the whole batch with a
// *BuildSideError, and nothing starts.
func (e *Engine) ExecuteBatch(ctx context.Context, roots []plan.Node) ([]*Result, error) {
	results := make([]*Result, len(roots))
	if err := e.execute(ctx, roots, results); err != nil {
		return nil, err
	}
	return results, nil
}

// execute runs roots to completion into results, one per root. Roots the
// result cache answers are served from it; the rest are dispatched behind one
// gate, drained concurrently, and stored in the cache only after a clean,
// uncanceled drain. A run the cache answers entirely allocates nothing.
func (e *Engine) execute(ctx context.Context, roots []plan.Node, results []*Result) error {
	for _, root := range roots {
		if err := checkJoins(root); err != nil {
			return err
		}
	}
	type query struct {
		i    int
		fp   expr.Fp
		snap cacheSnap
		r    Reader
		res  *Result
		err  error
	}
	var qs []query // the roots the cache did not answer
	for i, root := range roots {
		q := query{i: i}
		if e.cache != nil {
			q.fp = plan.Fingerprint(root)
			if res, ok := e.cache.get(q.fp); ok {
				results[i] = res
				continue
			}
			// Snapshot table versions before dispatch: a concurrent append
			// mid-execution leaves the stored entry stale, so the next lookup
			// invalidates instead of serving a torn read.
			q.snap = snapshotTables(root)
		}
		if qs == nil {
			qs = make([]query, 0, len(roots)-i)
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil
	}

	gate := make(chan struct{})
	for j := range qs {
		qs[j].r = e.dispatchNode(ctx, roots[qs[j].i], gate)
	}
	close(gate)

	var wg sync.WaitGroup
	for j := range qs {
		wg.Add(1)
		go func(q *query, root plan.Node) {
			defer wg.Done()
			q.res, q.err = drain(ctx, root, q.r)
			// A drain racing its context's cancellation can return nil error
			// with a truncated row set, which must never be served to repeat
			// templates.
			if q.err == nil && ctx.Err() == nil && e.cache != nil {
				e.cache.put(q.fp, q.res, q.snap.files, q.snap.vers)
			}
		}(&qs[j], roots[qs[j].i])
	}
	wg.Wait()
	for _, q := range qs {
		if q.err != nil {
			return q.err
		}
		results[q.i] = q.res
	}
	return nil
}

// drain materializes a root reader: where a query's rows are built, once.
func drain(ctx context.Context, root plan.Node, r Reader) (*Result, error) {
	defer r.Close()
	res := &Result{Schema: root.Schema()}
	for {
		b, err := r.Next(ctx)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, b.RowsView()...)
		b.Done()
	}
}

// BuildSideError refuses a plan holding a hash join whose build side is not
// a stored table under selections, Filter*(Scan(T)): every join the engine
// runs probes its build table's shared index (plan.HashJoin.IndexedBuild),
// and it builds no private table. A refused plan starts nothing.
type BuildSideError struct {
	Join *plan.HashJoin
	Kind plan.Kind // the kind of the build side's first node below its filters
}

func (e *BuildSideError) Error() string {
	ls, rs := e.Join.Left.Schema(), e.Join.Right.Schema()
	return fmt.Sprintf("engine: hash join %s = %s has build side %s, not Filter*(Scan(table))",
		ls.Cols[e.Join.LeftCol].Name, rs.Cols[e.Join.RightCol].Name, e.Kind)
}

// checkJoins returns a *BuildSideError for the first hash join in n's
// packet chain whose build side no shared index serves. It allocates
// nothing on an accepted plan, so a result-cache hit stays allocation-free.
func checkJoins(n plan.Node) error {
	for ; n != nil; n = packetInput(n) {
		j, ok := n.(*plan.HashJoin)
		if !ok {
			continue
		}
		b := j.Right
		for b.Kind() == plan.KindFilter {
			b = b.(*plan.Filter).Input
		}
		if b.Kind() != plan.KindScan {
			return &BuildSideError{Join: j, Kind: b.Kind()}
		}
	}
	return nil
}

// dispatch refuses root if a hash join in it has a build side no shared
// index serves, and otherwise instantiates (or SP-shares) the packets of
// root and returns the reader delivering its output. Packets wait on gate
// before producing.
func (e *Engine) dispatch(ctx context.Context, root plan.Node, gate <-chan struct{}) (Reader, error) {
	if err := checkJoins(root); err != nil {
		return nil, err
	}
	return e.dispatchNode(ctx, root, gate), nil
}

// dispatchNode instantiates (or SP-shares) the packet for node and, unless it
// attached to a host, the packet below it. Only a stage with SP on computes
// the node's fingerprint, its registry key. Every packet has at most one
// input (packetInput), so a query's packets form a chain: no chain holds one
// fingerprint twice, and no operator drains one input while another of its
// readers waits, so a query attaches wherever the registry offers a host.
func (e *Engine) dispatchNode(ctx context.Context, node plan.Node, gate <-chan struct{}) Reader {
	st := e.stage(node.Kind())
	var fp expr.Fp
	if st.sp {
		fp = plan.Fingerprint(node)
	}

	var primary Reader
	mk := func() *Packet {
		p, r := newPacket(node, st, fp, e.cfg.Model)
		primary = r
		return p
	}

	host, fresh := st.lookupOrRegister(fp, mk)
	if host != nil {
		if r, ok := host.addConsumer(); ok {
			st.spAttached.Add(1)
			return r
		}
		// Window closed: run our own packet and take over the slot so later
		// arrivals can share with us.
		st.spMissed.Add(1)
		fresh = mk()
		st.register(fp, host, fresh)
	}

	var in Reader
	if child := packetInput(node); child != nil {
		in = e.dispatchNode(ctx, child, gate)
	}
	go e.run(ctx, fresh, in, gate)
	return primary
}

// packetInput returns the child of n that runs as a packet: a hash join's
// probe side, since its build table's shared index serves the build side,
// the one input of any other operator, and nil for a scan or a CJOIN node.
// Unlike plan.Node.Children it allocates nothing, which checkJoins needs.
func packetInput(n plan.Node) plan.Node {
	switch v := n.(type) {
	case *plan.HashJoin:
		return v.Left
	case *plan.Filter:
		return v.Input
	case *plan.Project:
		return v.Input
	case *plan.Aggregate:
		return v.Input
	case *plan.Sort:
		return v.Input
	case *plan.Limit:
		return v.Input
	}
	return nil
}

// run executes one packet to completion.
func (e *Engine) run(ctx context.Context, p *Packet, in Reader, gate <-chan struct{}) {
	st := p.stage
	st.active.Add(1)
	defer st.active.Add(-1)

	// A producer blocked on a full list waits on a condition variable, so
	// deliver context cancellation by closing the packet's lists.
	stopAfter := context.AfterFunc(ctx, func() { p.close(ctx.Err()) })

	cleanup := func(err error) {
		p.close(err)
		st.unregister(p.fp, p)
		if in != nil {
			in.Close()
		}
		stopAfter()
	}

	select {
	case <-gate:
	case <-ctx.Done():
		cleanup(ctx.Err())
		return
	}

	st.executed.Add(1)
	err := e.safeRunOperator(ctx, p, in, p.writer())
	cleanup(err)
}

// PanicError is the typed failure a query receives when one of its operator
// packets panicked (a compiled predicate or kernel hitting malformed input).
// The panic is recovered at the packet-goroutine boundary, so the process
// and every unrelated query survive; consumers of the packet observe this
// error as the stream's close cause.
type PanicError struct{ Recovered any }

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: operator panic: %v", e.Recovered)
}

// safeRunOperator runs the packet's operator, converting a panic into a
// typed error delivered through the packet's normal close path.
func (e *Engine) safeRunOperator(ctx context.Context, p *Packet, in Reader, w Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.stage.panics.Add(1)
			err = &PanicError{Recovered: r}
		}
	}()
	return e.runOperator(ctx, p, in, w)
}

// EngineStats snapshots every stage's counters plus engine-wide gauges.
type EngineStats struct {
	Stages []StageStats
	// Busy is total operator processing time across stages; Busy divided by
	// (wall time x GOMAXPROCS) is the CPU-utilisation proxy reported by the
	// Scenario I harness.
	Busy time.Duration

	// OperatorPanics counts operator panics recovered at the packet
	// boundary across all stages — each one failed exactly one query's
	// packet (and its attached satellites) with a PanicError instead of
	// taking the process down.
	OperatorPanics int64

	// IndexJoins counts the hash joins run, each of which probed its build
	// table's shared join index; IndexBuilds counts the indexes built over
	// the catalog's tables, by those joins or by CJOIN, failed builds
	// included.
	IndexJoins  int64
	IndexBuilds int64

	// Result-cache counters; all zero when Config.ResultCache is off.
	CacheHits          int64
	CacheMisses        int64
	CacheEvictions     int64
	CacheInvalidations int64
}

// Stats snapshots engine counters.
func (e *Engine) Stats() EngineStats {
	var out EngineStats
	for _, st := range e.stages {
		s := st.Stats()
		out.Stages = append(out.Stages, s)
		out.Busy += s.Busy
		out.OperatorPanics += s.Panics
	}
	out.IndexJoins, out.IndexBuilds = e.indexJoins.Load(), e.cat.IndexBuilds()
	if e.cache != nil {
		out.CacheHits, out.CacheMisses, out.CacheEvictions, out.CacheInvalidations = e.cache.stats()
	}
	return out
}

// StageStatsFor returns one stage's counters.
func (e *Engine) StageStatsFor(k plan.Kind) StageStats { return e.stage(k).Stats() }
