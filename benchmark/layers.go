package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/batch"
	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/spl"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
	"repro/internal/workload"
)

// The traced run measures every layer from outside: counters are diffs of
// the layers' public Stats across the traced replay, timings are spans the
// harness opens around public calls on the workload's own tables. A metric
// that has no meaning on a workload (the HTTP metrics without a server, the
// pool counters that /statsz does not carry) is reported as 0 there.

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun replays the next queries of the seeded sequence with the same
// clients in four blocks, untraced, traced, traced, untraced, so that the
// query mix and any drift in the machine's speed fall on both sides alike;
// then it runs the per-layer phases, checks the workload's shape, and writes
// the spans. The Stats diffs, which tracing does not touch, span all four.
func tracedRun(ctx context.Context, cfg *runConfig, def workloadDef, t *target, specs []querySpec, reqs *requests, refs []digest, dur time.Duration, res *runResult) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpuAll0 := runtimeCPU()
	harness0, err := processCPU(os.Getpid())
	if err != nil {
		return err
	}
	tr := newTracer()
	var plain, traced, all []*window
	for _, on := range []bool{false, true, true, false} {
		block := driveSpec{dur: dur / 4, maxQueries: tracedQueries / 2}
		if on {
			block.tr = tr
		}
		b, err := drive(ctx, t, def.clients, reqs, refs, block)
		if err != nil {
			return err
		}
		all = append(all, b)
		if on {
			traced = append(traced, b)
		} else {
			plain = append(plain, b)
		}
	}
	harness1, err := processCPU(os.Getpid())
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	gc1, cpuAll1 := runtimeCPU()

	w := mergeWindows(all)
	res.Attempted += w.attempted
	res.Failed += w.failed
	if w.firstErr != nil && res.FirstError == "" {
		res.FirstError = w.firstErr.Error()
	}
	queries := float64(len(w.samples))
	replayCounters(res, w, queries, cfg.factPages)
	res.set("trace.overhead_share", 1-ratio(mergeWindows(traced).qps(), mergeWindows(plain).qps()), "share")

	// The Go runtime's figures describe the harness process, which is the
	// system under test only in process; over HTTP the harness is the client.
	inproc := t.srv == nil
	var allocs, allocKB, gcShare, clientShare float64
	if inproc {
		allocs = ratio(float64(ms1.Mallocs-ms0.Mallocs), queries)
		allocKB = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, queries)
		gcShare = ratio(gc1-gc0, cpuAll1-cpuAll0)
	} else {
		clientShare = ratio(float64(harness1-harness0), float64(harness1-harness0+w.cpu))
	}
	res.set("runtime.allocs_per_query", allocs, "count")
	res.set("runtime.alloc_kb_per_query", allocKB, "KB")
	res.set("runtime.gc_cpu_share", gcShare, "share")
	res.set("harness.client_cpu_share", clientShare, "share")

	p := &phases{ctx: ctx, tr: tr, res: res, gqp: !def.queryCentric}
	if inproc {
		p.db, p.cat, p.op = t.db, t.cat, t.op
	} else {
		// The server's tables are in another process; the phases run on a
		// system of the harness's own, built the way queryserver builds its.
		sys := repro.NewSystem(repro.Config{})
		defer sys.Close()
		db, err := sys.LoadSSB(cfg.sf, dataSeed)
		if err != nil {
			return err
		}
		p.db, p.cat, p.op = db, sys.Catalog(), sys.GQP()
	}
	for _, s := range specs[:min(len(specs), 32)] {
		p.insts = append(p.insts, s.make(p.db))
	}
	steps := []func() error{p.storage, p.exprPlan, p.cjoin, p.engine, p.spl, p.service,
		func() error { return p.lines(cfg) }}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if inproc {
		for _, name := range []string{"queryserver.http_overhead_ms", "queryserver.ttfb_ms"} {
			res.set(name, 0, "ms")
		}
		res.set("queryserver.ndjson_mb_per_s", 0, "MB/s")
		res.set("queryserver.bytes_per_query", 0, "B")
	} else if err := p.http(t.srv, specs, w); err != nil {
		return err
	}

	res.ShapeErrors = shapeErrors(def.name, res.Metrics)
	return tr.write(filepath.Join(cfg.outDir, def.name+".trace.json"))
}

// runtimeCPU reads the Go runtime's own accounting of GC and total CPU
// seconds (of this process, so it is meaningful for in-process workloads).
func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// replayCounters turns the Stats diffs across the traced replay into the
// per-query and share metrics.
func replayCounters(res *runResult, w *window, queries float64, factPages int) {
	b, a := w.before, w.after
	f := func(after, before int64) float64 { return float64(after - before) }

	hits, misses := f(a.pool.Hits, b.pool.Hits), f(a.pool.Misses, b.pool.Misses)
	fetched, pruned := f(a.decode.Fetched, b.decode.Fetched), f(a.decode.Pruned, b.decode.Pruned)
	res.set("storage.pool_hit_share", ratio(hits, hits+misses), "share")
	res.set("storage.evictions_per_query", ratio(f(a.pool.Evictions, b.pool.Evictions), queries), "count")
	res.set("storage.disk_reads_per_query", ratio(f(a.disk.PageReads, b.disk.PageReads), queries), "count")
	res.set("storage.pages_fetched_per_query", ratio(fetched, queries), "count")
	res.set("storage.pages_decoded_per_query", ratio(f(a.decode.Decoded, b.decode.Decoded), queries), "count")
	res.set("storage.prune_share", ratio(pruned, pruned+fetched), "share")
	res.set("storage.retries", f(a.decode.Retries, b.decode.Retries), "count")

	c0, c1 := b.cjoin, a.cjoin
	completed, tuplesIn := f(c1.Completed, c0.Completed), f(c1.FactTuplesIn, c0.FactTuplesIn)
	swept := f(c1.PagesScanned, c0.PagesScanned) + f(c1.PagesPruned, c0.PagesPruned)
	res.set("cjoin.queries_per_sweep", ratio(completed, swept/float64(max(factPages, 1))), "count")
	res.set("cjoin.tuples_in_per_query", ratio(tuplesIn, completed), "count")
	res.set("cjoin.probes_per_tuple", ratio(f(c1.Probes, c0.Probes), tuplesIn), "count")
	res.set("cjoin.routed_per_tuple", ratio(f(c1.TuplesRouted, c0.TuplesRouted), tuplesIn), "count")
	res.set("cjoin.scan_drop_share", ratio(f(c1.DroppedAtScan, c0.DroppedAtScan), tuplesIn), "share")
	res.set("cjoin.busy_share", ratio(float64(c1.Busy-c0.Busy), float64(w.wall)*float64(runtime.GOMAXPROCS(0))), "share")
	res.set("cjoin.pages_pruned_share", ratio(f(c1.PagesPruned, c0.PagesPruned), swept), "share")
	res.set("cjoin.zone_skips_per_query", ratio(f(c1.ZoneSkips, c0.ZoneSkips), completed), "count")
	res.set("cjoin.graft_share", ratio(f(c1.Grafted, c0.Grafted), f(c1.Admitted, c0.Admitted)), "share")

	stageNames := map[plan.Kind]string{plan.KindScan: "scan", plan.KindFilter: "filter",
		plan.KindProject: "project", plan.KindHashJoin: "hashjoin", plan.KindAggregate: "aggregate",
		plan.KindSort: "sort", plan.KindCJoin: "cjoin"}
	before := make(map[plan.Kind]engine.StageStats)
	for _, s := range b.engine.Stages {
		before[s.Kind] = s
	}
	var busy, attached, executed, copies float64
	stageBusy := make(map[plan.Kind]float64)
	for _, s := range a.engine.Stages {
		d := float64(s.Busy - before[s.Kind].Busy)
		stageBusy[s.Kind] = d
		busy += d
		attached += f(s.SPAttached, before[s.Kind].SPAttached)
		executed += f(s.Executed, before[s.Kind].Executed)
		copies += f(s.Copies, before[s.Kind].Copies)
	}
	for k, name := range stageNames {
		res.set("engine.busy_share."+name, ratio(stageBusy[k], busy), "share")
	}
	res.set("engine.sp_attach_share", ratio(attached, attached+executed), "share")
	res.set("engine.sp_copies_per_query", ratio(copies, queries), "count")
	ch, cm := f(a.engine.CacheHits, b.engine.CacheHits), f(a.engine.CacheMisses, b.engine.CacheMisses)
	res.set("engine.cache_hit_share", ratio(ch, ch+cm), "share")

	if a.gateway != nil {
		gatewayShares(res, b.gateway, a.gateway)
	}
}

// gatewayShares reports where admitted queries spent their time, and how
// many arrivals were refused, between two gateway snapshots.
func gatewayShares(res *runResult, b, a *service.Stats) {
	d := func(get func(*service.ClassStats) int64) float64 {
		return float64(get(&a.Short) + get(&a.Long) - get(&b.Short) - get(&b.Long))
	}
	queued := d(func(c *service.ClassStats) int64 { return c.NsQueued })
	sweep := d(func(c *service.ClassStats) int64 { return c.NsSweep })
	deliver := d(func(c *service.ClassStats) int64 { return c.NsDeliver })
	shed := d(func(c *service.ClassStats) int64 { return c.ShedOverload + c.ShedWouldMiss })
	total := queued + sweep + deliver
	res.set("service.queued_share", ratio(queued, total), "share")
	res.set("service.sweep_share", ratio(sweep, total), "share")
	res.set("service.deliver_share", ratio(deliver, total), "share")
	res.set("service.shed_share", ratio(shed, d(func(c *service.ClassStats) int64 { return c.Arrived })), "share")
}

// phases holds what the per-layer phases share.
type phases struct {
	ctx   context.Context
	tr    *tracer
	res   *runResult
	db    *ssb.DB
	cat   *storage.Catalog
	op    *cjoin.Operator
	insts []ssb.Instance // the workload's first queries, bound to db
	gqp   bool           // the workload's plans route stars to CJOIN
}

// timed runs f under a phase span and returns how long it took.
func (p *phases) timed(name string, f func() error) (time.Duration, error) {
	sp := p.tr.phase("phase." + name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return 0, fmt.Errorf("phase %s: %w", name, err)
	}
	return d, nil
}

// medianOf runs f n times under phase spans and returns the median duration.
func (p *phases) medianOf(n int, name string, f func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		d, err := p.timed(name, f)
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

func (p *phases) storage() error {
	fact := p.db.Lineorder
	pool, id, n, ncols := p.cat.Pool(), fact.File.ID(), fact.File.NumPages(), fact.Schema.Len()
	fetchRange := func(upto int) error {
		for i := 0; i < upto; i++ {
			fr, err := pool.Fetch(id, i)
			if err != nil {
				return err
			}
			pool.Unpin(fr)
		}
		return nil
	}
	// Cold: after EvictFile every fetch reaches the disk, simulated read
	// included. Half the pool at most, so nothing evicts what it loads.
	some := max(1, min(n, pool.Size()/2))
	pool.EvictFile(id)
	cold, err := p.timed("storage.fetch_cold", func() error { return fetchRange(some) })
	if err != nil {
		return err
	}
	p.res.set("storage.fetch_cold_us_per_page", float64(cold)/1e3/float64(some), "us")
	rounds := max(1, 50000/some)
	hot, err := p.timed("storage.fetch_hot", func() error {
		for r := 0; r < rounds; r++ {
			if err := fetchRange(some); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("storage.fetch_hot_ns_per_page", float64(hot)/float64(rounds*some), "ns")

	pages := make([][]byte, n)
	for i := range pages {
		fr, err := pool.Fetch(id, i)
		if err != nil {
			return err
		}
		pages[i] = bytes.Clone(fr.Data())
		pool.Unpin(fr)
	}
	tuples := 0
	dec, err := p.timed("storage.decode", func() error {
		for _, pg := range pages {
			cb, err := storage.DecodePageCols(pg, ncols)
			if err != nil {
				return err
			}
			tuples += cb.Len()
			cb.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("storage.decode_ns_per_tuple", ratio(float64(dec), float64(tuples)), "ns")
	p.res.set("storage.decode_mb_per_s", float64(n)*storage.PageSize/(1<<20)/dec.Seconds(), "MB/s")

	const zoneRounds = 20
	zoned := 0
	zr, err := p.timed("storage.zones_read", func() error {
		for r := 0; r < zoneRounds; r++ {
			for _, pg := range pages {
				zoned += len(storage.ReadPageZones(pg))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if zoned == 0 {
		return fmt.Errorf("phase storage.zones_read: fact pages carry no zone maps")
	}
	p.res.set("storage.zones_read_ns_per_page", float64(zr)/float64(zoneRounds*n), "ns")

	// The sweep is timed on its second pass: the first brings back what the
	// cold fetches above evicted, so that memory-resident workloads measure
	// a resident, decoded sweep.
	var scan time.Duration
	swept := 0
	for pass := 0; pass < 2; pass++ {
		swept = 0
		if scan, err = p.timed("storage.scan", func() error {
			cur := fact.Attach()
			defer cur.Close()
			for {
				cb, _, ok, err := cur.NextCols()
				if err != nil || !ok {
					return err
				}
				swept += cb.Len()
				cb.Release()
			}
		}); err != nil {
			return err
		}
	}
	p.res.set("storage.scan_ns_per_tuple", ratio(float64(scan), float64(swept)), "ns")
	return nil
}

// factPreds returns the fact predicates of the workload's queries; a
// workload whose templates carry none (Q2 to Q4 filter dimensions only) is
// given Q1.1 instances in their place.
func (p *phases) factPreds() []expr.Expr {
	var preds []expr.Expr
	for _, in := range p.insts {
		if in.Star.FactPred != nil && len(preds) < 8 {
			preds = append(preds, in.Star.FactPred)
		}
	}
	r := rand.New(rand.NewSource(p.res.Seed))
	for len(preds) < 8 {
		preds = append(preds, ssb.Instantiate(p.db, ssb.Q1_1, r).Star.FactPred)
	}
	return preds
}

func (p *phases) exprPlan() error {
	fact := p.db.Lineorder
	preds := p.factPreds()
	kernels := make([]expr.VecPred, len(preds))
	for i, e := range preds {
		kernels[i] = expr.CompileVec(e)
	}
	var annotate time.Duration
	evaluated := 0
	if _, err := p.timed("expr.annotate", func() error {
		cur := fact.Attach()
		defer cur.Close()
		var scr vec.Scratch
		var out []int32
		for {
			cb, _, ok, err := cur.NextCols()
			if err != nil || !ok {
				return err
			}
			if cap(out) < cb.Len() {
				out = make([]int32, cb.Len())
			}
			t0 := time.Now()
			for _, k := range kernels {
				k(cb, cb.AllSel(), out[:cb.Len()], &scr)
			}
			annotate += time.Since(t0)
			evaluated += cb.Len() * len(kernels)
			cb.Release()
		}
	}); err != nil {
		return err
	}
	p.res.set("expr.annotate_ns_per_tuple", ratio(float64(annotate), float64(evaluated)), "ns")

	n := fact.File.NumPages()
	zones := make([][]storage.ZoneMap, 0, n)
	for i := 0; i < n; i++ {
		if z := fact.File.PageZones(i); z != nil {
			zones = append(zones, z)
		}
	}
	var checks []expr.PruneCheck
	for _, e := range preds {
		if c := expr.CompilePrune(e); c != nil {
			checks = append(checks, c)
		}
	}
	const pruneRounds = 50
	canMatch := 0
	pc, err := p.timed("expr.prune_check", func() error {
		for r := 0; r < pruneRounds; r++ {
			for _, c := range checks {
				for _, z := range zones {
					if c(z) {
						canMatch++
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("expr.prune_check_ns_per_page", ratio(float64(pc), float64(pruneRounds*len(checks)*len(zones))), "ns")

	const subRounds = 200
	implied := 0
	sub, err := p.timed("expr.subsumes", func() error {
		for r := 0; r < subRounds; r++ {
			for _, a := range preds {
				for _, b := range preds {
					if expr.Subsumes(a, b) {
						implied++
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("expr.subsumes_ns_per_pair", float64(sub)/float64(subRounds*len(preds)*len(preds)), "ns")

	const rounds = 50
	compile, err := p.timed("expr.compile", func() error {
		for r := 0; r < rounds; r++ {
			for _, in := range p.insts {
				for _, e := range append([]expr.Expr{in.Star.FactPred}, dimPreds(in.Star)...) {
					if e != nil {
						expr.CompileVec(e)
						expr.CompilePrune(e)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("expr.compile_us_per_query", float64(compile)/1e3/float64(rounds*len(p.insts)), "us")

	roots := make([]plan.Node, len(p.insts))
	build, err := p.timed("plan.build", func() error {
		for r := 0; r < rounds; r++ {
			for i, in := range p.insts {
				roots[i] = in.Plan(p.gqp)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("plan.build_us_per_query", float64(build)/1e3/float64(rounds*len(p.insts)), "us")

	var fold uint64
	fp, err := p.timed("plan.fingerprint", func() error {
		for r := 0; r < rounds*10; r++ {
			for _, root := range roots {
				fold ^= plan.Fingerprint(root).Lo
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("plan.fingerprint_ns", float64(fp)/float64(rounds*10*len(roots)), "ns")
	// Computed only to be timed; keep the compiler from dropping the loops.
	runtime.KeepAlive(canMatch + implied + int(fold))
	return nil
}

func dimPreds(q *plan.StarQuery) []expr.Expr {
	out := make([]expr.Expr, len(q.Dims))
	for i, d := range q.Dims {
		out[i] = d.Pred
	}
	return out
}

// discard is a CJOIN emit callback that drops the batch it owns.
func discard(b *batch.Batch) error {
	b.Done()
	return nil
}

func (p *phases) cjoin() error {
	fact := p.db.Lineorder
	rows := float64(fact.NumRows())
	star := p.insts[0].Star
	solo, err := p.medianOf(3, "cjoin.solo_sweep", func() error { return p.op.Run(p.ctx, star, discard) })
	if err != nil {
		return err
	}
	p.res.set("cjoin.solo_sweep_ns_per_tuple", float64(solo)/rows, "ns")
	p.res.set("cjoin.sweep_gb_per_s", float64(fact.File.NumPages())*storage.PageSize/1e9/solo.Seconds(), "GB/s")

	const together = 16
	shared, err := p.timed("cjoin.shared_sweep", func() error {
		errs := make([]error, together)
		var wg sync.WaitGroup
		for i := 0; i < together; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = p.op.Run(p.ctx, p.insts[i%len(p.insts)].Star, discard)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("cjoin.shared_ns_per_tuple_query", float64(shared)/(rows*together), "ns")

	// Scaling base: the same solo sweep on a one-worker operator over the
	// same tables, divided by the sweep at the default worker count.
	one, err := cjoin.NewOperator(fact, []cjoin.DimSpec{
		{Table: p.db.Date, FactKeyCol: ssb.LOOrderDate, DimKeyCol: ssb.DDateKey},
		{Table: p.db.Customer, FactKeyCol: ssb.LOCustKey, DimKeyCol: ssb.CCustKey},
		{Table: p.db.Supplier, FactKeyCol: ssb.LOSuppKey, DimKeyCol: ssb.SSuppKey},
		{Table: p.db.Part, FactKeyCol: ssb.LOPartKey, DimKeyCol: ssb.PPartKey},
	}, cjoin.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer one.Close()
	single, err := p.medianOf(3, "cjoin.solo_sweep_1worker", func() error { return one.Run(p.ctx, star, discard) })
	if err != nil {
		return err
	}
	p.res.set("cjoin.workers_scaling", ratio(float64(single), float64(solo)), "ratio")

	// One-off roofline for the sweep figure above.
	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	copy(dst, src) // touch both before timing
	const copies = 4
	mc, err := p.timed("host.memcpy", func() error {
		for i := 0; i < copies; i++ {
			copy(dst, src)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("host.memcpy_gb_per_s", float64(copies*len(src))/1e9/mc.Seconds(), "GB/s")
	return nil
}

func (p *phases) engine() error {
	fact := p.db.Lineorder
	rows := float64(fact.NumRows())
	eng := engine.New(p.cat, engine.Config{})
	sum := []plan.AggSpec{{Func: plan.AggSum, Arg: expr.C(ssb.LORevenue, "lo_revenue"), Name: "revenue"}}
	scanAgg := plan.NewAggregate(plan.NewScan(fact), nil, sum)
	joinAgg := plan.NewAggregate(
		plan.NewHashJoin(plan.NewScan(fact), plan.NewScan(p.db.Date), ssb.LOOrderDate, ssb.DDateKey), nil, sum)
	for _, q := range []struct {
		name string
		root plan.Node
	}{{"engine.scan_agg", scanAgg}, {"engine.join_agg", joinAgg}} {
		d, err := p.medianOf(3, q.name, func() error {
			_, err := eng.Execute(p.ctx, q.root)
			return err
		})
		if err != nil {
			return err
		}
		p.res.set(q.name+"_ns_per_tuple", float64(d)/rows, "ns")
	}

	cached := engine.New(p.cat, engine.Config{Star: p.op, ResultCache: true})
	root := p.insts[0].Plan(p.gqp)
	if _, err := cached.Execute(p.ctx, root); err != nil {
		return err
	}
	const probes = 20000
	hit, err := p.timed("engine.cache_hit", func() error {
		for i := 0; i < probes; i++ {
			if _, err := cached.Execute(p.ctx, root); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if got := cached.Stats().CacheHits; got != probes {
		return fmt.Errorf("phase engine.cache_hit: %d hits of %d probes", got, probes)
	}
	p.res.set("engine.cache_hit_ns", float64(hit)/probes, "ns")
	return nil
}

func (p *phases) spl() error {
	const readers, pages = 4, 20000
	list := spl.New(0)
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		r, err := list.NewReader()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, r *spl.Reader) {
			defer wg.Done()
			defer r.Close()
			for {
				b, err := r.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				b.Done()
			}
		}(i, r)
	}
	page := batch.Of(types.Row{types.NewInt(1)})
	d, err := p.timed("spl.append_next", func() error {
		for i := 0; i < pages; i++ {
			if err := list.Append(page); err != nil {
				return err
			}
		}
		list.Close(nil)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		list.Close(err)
		wg.Wait()
		return err
	}
	p.res.set("spl.append_next_ns_per_batch", float64(d)/pages, "ns")
	return nil
}

// drainStream reads an engine stream to its end.
func drainStream(ctx context.Context, r engine.Reader) error {
	defer r.Close()
	for {
		b, err := r.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		b.Done()
	}
}

// service measures the gateway in process: classification cold and cached,
// and what Gateway.Stream adds to Engine.Stream on the same queries.
func (p *phases) service() error {
	eng := engine.New(p.cat, engine.Config{Star: p.op})
	gw := service.NewGateway(eng, service.Config{CJoin: p.op, Pool: p.cat.Pool()})
	roots := make([]plan.Node, len(p.insts))
	for i, in := range p.insts {
		roots[i] = in.Plan(p.gqp)
	}
	classify := func() error {
		for _, root := range roots {
			gw.Classify(root)
		}
		return nil
	}
	cold, err := p.timed("service.classify_cold", classify)
	if err != nil {
		return err
	}
	p.res.set("service.classify_cold_us", float64(cold)/1e3/float64(len(roots)), "us")
	const rounds = 200
	warm, err := p.timed("service.classify", func() error {
		for r := 0; r < rounds; r++ {
			_ = classify()
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.set("service.classify_ns", float64(warm)/float64(rounds*len(roots)), "ns")

	before := gw.Stats()
	extra := make([]float64, 0, len(roots))
	for i, root := range roots {
		direct := func() (time.Duration, error) {
			return p.timed("engine.stream", func() error {
				r, err := eng.Stream(p.ctx, root)
				if err != nil {
					return err
				}
				return drainStream(p.ctx, r)
			})
		}
		through := func() (time.Duration, error) {
			q := p.tr.query()
			defer q.end()
			c := q.child("service.classify")
			gw.Classify(root)
			c.end()
			s := q.child("gateway.stream")
			defer s.end()
			t0 := time.Now()
			err := gw.Stream(p.ctx, root, func(*batch.Batch) error {
				s.child("deliver.emit").end()
				return nil
			})
			if err != nil {
				return 0, fmt.Errorf("phase gateway.stream: %w", err)
			}
			return time.Since(t0), nil
		}
		// Whichever runs second finds the caches warm, so the order
		// alternates and the median of the differences cancels it.
		var d, g time.Duration
		var err error
		if i%2 == 0 {
			d, err = direct()
			if err == nil {
				g, err = through()
			}
		} else {
			g, err = through()
			if err == nil {
				d, err = direct()
			}
		}
		if err != nil {
			return err
		}
		extra = append(extra, float64(g-d)/1e3)
	}
	p.res.set("service.stream_overhead_us", median(extra), "us")
	if _, ok := p.res.Metrics["service.shed_share"]; !ok {
		after := gw.Stats()
		gatewayShares(p.res, &before, &after)
	}
	return nil
}

// lines times the paper's protected comparison set, one number each: a
// fixed disk-resident round of 16 Q2.1 queries over 4 plans, submitted as
// one batch. Each line runs the round twice and reports the second, so that
// every line starts from a pool the same round has just been through.
func (p *phases) lines(cfg *runConfig) error {
	env, err := workload.NewSSBEnvCfg(workload.EnvConfig{SF: cfg.sf, Residency: workload.DiskResident,
		PoolPages: cfg.diskPoolPages(), Seed: dataSeed})
	if err != nil {
		return err
	}
	defer env.Close()
	pool := ssb.Pool(env.SSB, ssb.Q2_1, 4, dataSeed)
	cjoinOnly := map[plan.Kind]bool{plan.KindCJoin: true}
	for _, line := range []struct {
		name string
		gqp  bool
		cfg  engine.Config
	}{
		{"lines.qc_round_ms", false, engine.Config{}},
		{"lines.push_sp_round_ms", false, engine.Config{SP: true, Model: engine.SPPush}},
		{"lines.pull_sp_round_ms", false, engine.Config{SP: true, Model: engine.SPPull}},
		{"lines.gqp_round_ms", true, engine.Config{}},
		{"lines.gqp_sp_round_ms", true, engine.Config{SP: true, Model: engine.SPPull, SPStages: cjoinOnly}},
	} {
		eng := env.Engine(line.cfg)
		roots := make([]plan.Node, 16)
		for i := range roots {
			roots[i] = pool[i%len(pool)].Plan(line.gqp)
		}
		var d time.Duration
		for round := 0; round < 2; round++ {
			if d, err = p.timed(strings.TrimSuffix(line.name, "_ms"), func() error {
				_, err := eng.ExecuteBatch(p.ctx, roots)
				return err
			}); err != nil {
				return err
			}
		}
		p.res.set(line.name, float64(d)/1e6, "ms")
	}
	return nil
}

// http compares the server with an in-process gateway on the same queries
// over one connection, and reports what the traced replay saw on the wire.
func (p *phases) http(srv *server, specs []querySpec, w *window) error {
	gw := service.NewGateway(engine.New(p.cat, engine.Config{Star: p.op}), service.Config{CJoin: p.op, Pool: p.cat.Pool()})
	var buf bytes.Buffer
	extra := make([]float64, 0, len(p.insts))
	for i, in := range p.insts {
		local, err := p.timed("gateway.stream", func() error {
			return gw.Stream(p.ctx, in.Plan(true), func(*batch.Batch) error { return nil })
		})
		if err != nil {
			return err
		}
		remote, err := p.timed("http.roundtrip", func() error {
			_, err := srv.get(p.ctx, specs[i].url, &buf, nil)
			return err
		})
		if err != nil {
			return err
		}
		extra = append(extra, float64(remote-local)/1e6)
	}
	p.res.set("queryserver.http_overhead_ms", median(extra), "ms")

	ttfb := make([]float64, len(w.samples))
	var bodyBytes, busy float64
	for i, s := range w.samples {
		ttfb[i] = float64(s.ttfb) / 1e6
		bodyBytes += float64(s.bytes)
		busy += s.lat.Seconds()
	}
	sort.Float64s(ttfb)
	p.res.set("queryserver.ttfb_ms", quantile(ttfb, 0.5), "ms")
	p.res.set("queryserver.ndjson_mb_per_s", ratio(bodyBytes/(1<<20), busy), "MB/s")
	p.res.set("queryserver.bytes_per_query", ratio(bodyBytes, float64(len(w.samples))), "B")
	return nil
}

// shapeErrors checks that the workload exercised the layers it was chosen
// for. A workload that has drifted off its shape measures something else,
// so the traced run fails loudly instead of reporting numbers.
func shapeErrors(workloadName string, m map[string]metric) []string {
	type bound struct {
		metric string
		op     string
		limit  float64
	}
	shapes := map[string][]bound{
		"gqp_mem": {{"storage.pool_hit_share", ">=", 0.99}},
		"qpipe_sp_disk": {{"cjoin.busy_share", "==", 0}, {"storage.pool_hit_share", "<", 0.9},
			{"engine.sp_attach_share", ">", 0}},
		// Eight windows of a tenth each are in flight, so up to eight tenths
		// of the pages matter to some query and the shared sweep can skip
		// whole only the rest; the others are skipped query by query.
		"gqp_prune_disk": {{"storage.prune_share", ">=", 0.5}, {"cjoin.zone_skips_per_query", ">", 0},
			{"storage.pool_hit_share", "<", 0.9}},
		"reuse_mem":  {{"engine.cache_hit_share", ">=", 0.4}},
		"http_serve": {{"service.shed_share", "==", 0}},
	}
	var errs []string
	for _, b := range shapes[workloadName] {
		v, ok := m[b.metric].Value, false
		switch b.op {
		case ">=":
			ok = v >= b.limit
		case ">":
			ok = v > b.limit
		case "<":
			ok = v < b.limit
		case "==":
			ok = v == b.limit
		}
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: %s = %.4g, want %s %g", workloadName, b.metric, v, b.op, b.limit))
		}
	}
	return errs
}

// crossShapeErrors checks the one shape that compares two workloads, when
// traced runs of both are at hand: pruning must keep the fact tuples that
// enter the pipeline per query on gqp_prune_disk well below gqp_mem's. The
// factor is 0.6, not a fifth. Eight queries share gqp_mem's full sweep,
// which leaves an eighth of the table per query, and the eight windows of a
// tenth each overlap too little to fall to a fifth of that; 0.51 is measured.
func crossShapeErrors(runs []runResult) []string {
	const name, factor = "cjoin.tuples_in_per_query", 0.6
	var mem, prune *runResult
	for i := range runs {
		switch r := &runs[i]; {
		case !r.Trace:
		case r.Workload == "gqp_mem":
			mem = r
		case r.Workload == "gqp_prune_disk":
			prune = r
		}
	}
	if mem == nil || prune == nil {
		return nil
	}
	if got, limit := prune.Metrics[name].Value, factor*mem.Metrics[name].Value; got > limit {
		return []string{fmt.Sprintf("gqp_prune_disk: %s = %.6g, want <= %g x gqp_mem's = %.6g", name, got, factor, limit)}
	}
	return nil
}
