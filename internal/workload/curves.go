package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/ssb"
	"repro/internal/tpch"
)

// The paper's five protected comparison lines, with the engine
// configurations the benchmark's lines.*_round_ms metrics use. In every line
// each query runs its own predicates and operators; the query-centric and SP
// lines' hash joins probe the dimension indexes CJOIN holds, so they share
// the build and nothing else.
var (
	QueryCentric = Line{Label: "query-centric"}
	PushSP       = Line{Label: "push-sp", Engine: engine.Config{SP: true, Model: engine.SPPush}}
	PullSP       = Line{Label: "pull-sp", Engine: engine.Config{SP: true, Model: engine.SPPull}}
	GQP          = Line{Label: "gqp", GQP: true}
	GQPSP        = Line{Label: "gqp+sp", GQP: true, Engine: engine.Config{SP: true, Model: engine.SPPull,
		SPStages: map[plan.Kind]bool{plan.KindCJoin: true}}}

	// Lines is the protected set in the paper's order.
	Lines = []Line{QueryCentric, PushSP, PullSP, GQP, GQPSP}
)

// as derives a curve's line from a protected one.
func (l Line) as(label string, mod func(*Line)) Line {
	l.Label = label
	if mod != nil {
		mod(&l)
	}
	return l
}

// fromPool draws uniformly from pre-generated instances.
func fromPool(pool []ssb.Instance) Source {
	return func(r *rand.Rand, gqp bool) plan.Node { return pool[r.Intn(len(pool))].Plan(gqp) }
}

// window draws a quantity window selecting the fraction x of the fact table
// at a random offset, so instances at one selectivity rarely share; join puts
// a supplier hash join above the star in both plan forms.
func window(join bool) SourceFunc {
	return func(env *Env, x float64, _ int64) Source {
		width := min(max(int64(x*50+0.5), 1), 50)
		return func(r *rand.Rand, gqp bool) plan.Node {
			start := r.Int63n(50 - width + 1)
			if join {
				return ssb.ParametricWindowJoin(env.SSB, width, start).Plan(gqp)
			}
			return ssb.ParametricWindow(env.SSB, width, start).Plan(gqp)
		}
	}
}

// dateWindows is a pool of n date windows of pct percent of the calendar
// (pct 0 = the x value).
func dateWindows(pct, n int) SourceFunc {
	return func(env *Env, x float64, seed int64) Source {
		sel := pct
		if sel == 0 {
			sel = int(x)
		}
		return fromPool(ssb.DateWindowPool(env.SSB, sel, n, seed+int64(x*1000)))
	}
}

// Curves is the registry: the paper's Scenarios I-IV and this repository's
// reuse (IIr), pruning (IVp), overload (V) and fault (F) axes.
var Curves = []*Curve{
	{
		Name: "I", Title: "push- vs pull-based SP at the scan stage: identical TPC-H Q1 instances submitted together",
		Axis: "concurrency", X: []float64{1, 2, 4, 8, 16, 32},
		Lines: []Line{QueryCentric, PushSP, PullSP}, Kind: Batch,
		Env: EnvConfig{Residency: MemoryResident}, TPCH: true,
		SPStages: map[plan.Kind]bool{plan.KindScan: true},
		Source: func(env *Env, _ float64, _ int64) Source {
			return func(*rand.Rand, bool) plan.Node { return tpch.Q1Plan(env.Lineitem, 90) }
		},
		Counters: []string{"completed", "sp_attached", "sp_copies"},
		Check: func(t *Table) (counters, shape []string) {
			if k := t.X[len(t.X)-1]; k >= 2 {
				// Satellites attach under both models; only push copies pages.
				t.less(&counters, ref{k, QueryCentric.Label, "sp_attached"}, ref{k, PushSP.Label, "sp_attached"})
				t.less(&counters, ref{k, QueryCentric.Label, "sp_attached"}, ref{k, PullSP.Label, "sp_attached"})
				t.less(&counters, ref{k, PullSP.Label, "sp_copies"}, ref{k, PushSP.Label, "sp_copies"})
				t.less(&shape, ref{k, PullSP.Label, "latency"}, ref{k, PushSP.Label, "latency"})
			}
			t.holds(&counters, QueryCentric.Label, "sp_attached", "== 0")
			t.holds(&counters, PullSP.Label, "sp_copies", "== 0")
			return
		},
	},
	{
		Name: "II", Title: "impact of concurrency: SSB Q2.1 with randomized parameters",
		Axis: "clients", X: []float64{1, 2, 4, 8, 16, 32},
		Lines: []Line{PullSP, GQP}, Kind: ClosedLoop,
		Env: EnvConfig{Residency: DiskResident},
		Source: func(env *Env, _ float64, seed int64) Source {
			return fromPool(ssb.Pool(env.SSB, ssb.Q2_1, 64, seed))
		},
		Counters: []string{"completed", "admits", "sp_attached", "sp_missed", "index_joins", "index_builds"},
		Check: func(t *Table) (counters, shape []string) {
			t.holds(&counters, PullSP.Label, "admits", "== 0")
			t.holds(&counters, GQP.Label, "admits", "> 0")
			// The query-centric joins probe the dimension indexes CJOIN
			// built before the window; none is built again.
			t.holds(&counters, PullSP.Label, "index_joins", "> 0")
			t.holds(&counters, PullSP.Label, "index_builds", "== 0")
			t.holds(&counters, GQP.Label, "index_joins", "== 0")
			// Shared operators gain on query-centric ones as concurrency grows
			// (where they overtake moves with the machine: 8-32 clients here).
			ratio := func(x float64) float64 {
				g, _ := t.get(x, GQP.Label, "qps")
				p, _ := t.get(x, PullSP.Label, "qps")
				return g / max(p, 1)
			}
			if lo, hi := t.X[0], t.X[len(t.X)-1]; hi >= 8*lo && !(ratio(lo) < ratio(hi)) {
				shape = append(shape, fmt.Sprintf("gqp/pull-sp qps@%g = %.3g !< @%g = %.3g", lo, ratio(lo), hi, ratio(hi)))
			}
			return
		},
	},
	{
		Name: "IIr", Title: "result reuse: hot-set repeats among fresh instances of all 13 templates",
		Axis: "repeat %", X: []float64{0, 25, 50, 75, 90},
		Lines: []Line{
			GQP.as("reuse", func(l *Line) { l.Engine.ResultCache = true }),
			GQP.as("noreuse", nil),
		},
		Kind: ClosedLoop, Clients: 8,
		Env: EnvConfig{Residency: DiskResident},
		// A hot set of 4 instances (rotating over the templates, the same at
		// every x) answers a draw with probability x%; otherwise a fresh
		// instance the result cache cannot reuse.
		Source: func(env *Env, x float64, seed int64) Source {
			r := rand.New(rand.NewSource(seed + 7))
			hot := make([]ssb.Instance, 4)
			for i := range hot {
				hot[i] = ssb.Instantiate(env.SSB, ssb.AllTemplates[i%len(ssb.AllTemplates)], r)
			}
			return func(r *rand.Rand, gqp bool) plan.Node {
				if r.Intn(100) < int(x) {
					return hot[r.Intn(len(hot))].Plan(gqp)
				}
				return ssb.Instantiate(env.SSB, ssb.AllTemplates[r.Intn(len(ssb.AllTemplates))], r).Plan(gqp)
			}
		},
		Counters: []string{"completed", "cache_hits", "cache_misses", "admits"},
		Check: func(t *Table) (counters, shape []string) {
			lo, hi := t.X[0], t.X[len(t.X)-1]
			t.holds(&counters, "noreuse", "cache_hits", "== 0")
			if lo < hi {
				t.less(&counters, ref{lo, "reuse", "cache_hits/q"}, ref{hi, "reuse", "cache_hits/q"})
			}
			if hi >= 50 {
				t.less(&shape, ref{hi, "noreuse", "qps"}, ref{hi, "reuse", "qps"})
			}
			return
		},
	},
	{
		Name: "III", Title: "impact of selectivity at low concurrency: randomized quantity windows, so SP rarely fires",
		Axis: "selectivity", X: []float64{0.02, 0.1, 0.25, 0.5, 0.75, 1.0},
		Lines: []Line{PullSP, GQP,
			PullSP.as("pull-sp+join", func(l *Line) { l.Source = window(true) }),
			GQP.as("gqp+join", func(l *Line) { l.Source = window(true) })},
		Kind: ClosedLoop, Clients: 2,
		Env:      EnvConfig{Residency: MemoryResident},
		Source:   window(false),
		Counters: []string{"completed", "admits", "sp_attached"},
		Check: func(t *Table) (counters, shape []string) {
			t.holds(&counters, PullSP.Label, "admits", "== 0")
			t.holds(&counters, GQP.Label, "admits", "> 0")
			for _, x := range t.X {
				// The GQP's bookkeeping keeps it below query-centric operators,
				// and the extra supplier join costs both forms; at a few
				// percent of the fact table the lines run together.
				if x < 0.25 {
					continue
				}
				t.less(&shape, ref{x, GQP.Label, "qps"}, ref{x, PullSP.Label, "qps"})
				t.less(&shape, ref{x, "pull-sp+join", "qps"}, ref{x, PullSP.Label, "qps"})
				t.less(&shape, ref{x, "gqp+join", "qps"}, ref{x, GQP.Label, "qps"})
			}
			return
		},
	},
	{
		Name: "IV", Title: "impact of similarity: SSB Q2.1 drawn from x distinct plans",
		Axis: "plans", X: []float64{1, 2, 4, 8, 16, 32},
		Lines: []Line{PullSP, GQP, GQPSP}, Kind: Batch, Clients: 16,
		Env: EnvConfig{Residency: DiskResident},
		Source: func(env *Env, x float64, seed int64) Source {
			return fromPool(ssb.Pool(env.SSB, ssb.Q2_1, int(x), seed+int64(x)))
		},
		Counters: []string{"completed", "admits", "sp_attached", "sp_attached_cjoin", "sp_missed"},
		Check: func(t *Table) (counters, shape []string) {
			// With one plan, SP on the CJOIN stage admits one query per round
			// and serves the rest as satellites of its output.
			t.less(&counters, ref{1, GQPSP.Label, "admits/q"}, ref{1, GQP.Label, "admits/q"})
			t.less(&counters, ref{1, GQP.Label, "sp_attached_cjoin"}, ref{1, GQPSP.Label, "sp_attached_cjoin"})
			t.holds(&counters, GQP.Label, "sp_attached_cjoin", "== 0")
			// Reactive sharing fades as the plans diverge.
			if lo, hi := t.X[0], t.X[len(t.X)-1]; hi >= 8*lo {
				t.less(&shape, ref{hi, PullSP.Label, "qps"}, ref{lo, PullSP.Label, "qps"})
			}
			return
		},
	},
	{
		Name: "IVp", Title: "zone-map pruning: 8 date windows of x% of a date-clustered fact table",
		Axis: "date-selectivity %", X: []float64{2, 10, 25, 50, 100},
		Lines: []Line{
			GQP.as("prune", nil),
			GQP.as("noprune", func(l *Line) { l.Vary = func(c *EnvConfig) { c.NoPrune = true } }),
		},
		Kind: Batch, Clients: 8,
		Env:      EnvConfig{Residency: DiskResident, DateClustered: true},
		Source:   dateWindows(0, 8),
		Counters: []string{"completed", "pages_fetched", "pages_pruned", "pages_decoded", "cjoin_pages_pruned", "zone_skips"},
		Check: func(t *Table) (counters, shape []string) {
			t.holds(&counters, "noprune", "pages_pruned", "== 0")
			t.holds(&counters, "noprune", "zone_skips", "== 0")
			for _, x := range t.X {
				if x <= 10 {
					t.less(&counters, ref{x, "prune", "pages_fetched/q"}, ref{x, "noprune", "pages_fetched/q"})
					t.less(&shape, ref{x, "noprune", "qps"}, ref{x, "prune", "qps"})
				}
			}
			return
		},
	},
	{
		Name: "V", Title: "overload: Poisson arrivals of 2% (80%) and 95% (20%) date windows at x times capacity",
		Axis: "load multiplier", X: []float64{0.5, 1, 1.5, 2, 3},
		Lines: []Line{GQP.as("gateway", nil)}, Kind: OpenLoop,
		Env:     EnvConfig{Residency: MemoryResident, DateClustered: true},
		Gateway: service.Config{ShortSlots: 4, LongSlots: 2, QueueDepth: 32, HighWater: 16},
		Source: func(env *Env, _ float64, seed int64) Source {
			shorts := ssb.DateWindowPool(env.SSB, 2, 16, seed)
			long := ssb.DateWindow(env.SSB, 95, 0)
			return func(r *rand.Rand, gqp bool) plan.Node {
				if r.Float64() < 0.2 {
					return long.Plan(gqp)
				}
				return shorts[r.Intn(len(shorts))].Plan(gqp)
			}
		},
		Counters: []string{"capacity_qps", "offered_qps", "arrivals", "completed", "shed_overload", "shed_would_miss",
			"failed_typed", "untyped", "ns_queued", "ns_sweep", "ns_deliver",
			"short_p50_ns", "short_p99_ns", "long_p50_ns", "long_p99_ns"},
		Check: func(t *Table) (counters, shape []string) {
			t.holds(&counters, "gateway", "untyped", "== 0")
			t.holds(&counters, "gateway", "completed", "> 0")
			// Past capacity goodput holds (the shared sweep admits the excess
			// or the tier sheds it); what is forbidden is a cliff.
			at1, ok1 := t.get(1, "gateway", "qps")
			hi := t.X[len(t.X)-1]
			if past, ok := t.get(hi, "gateway", "qps"); ok && ok1 && hi > 1 && past < 0.5*at1 {
				shape = append(shape, fmt.Sprintf("goodput@%g = %.4g < half of goodput@1 = %.4g", hi, past, at1))
			}
			return
		},
	},
	{
		Name: "F", Title: "fault isolation: the fraction x of a date-clustered fact table's pages permanently poisoned, 10% date windows",
		Axis: "fault rate", X: []float64{0, 0.01, 0.05, 0.1, 0.25},
		Lines: []Line{GQP.as("contained", nil)}, Kind: ClosedLoop, Clients: 8,
		Env:    EnvConfig{Residency: DiskResident, DateClustered: true, FaultInjection: true},
		Source: dateWindows(10, 16),
		// Only the fact table is faulted, so blast radius is a pure function
		// of which windows cover which pages. Each rate starts clean: heal,
		// lift the quarantines, poison, then evict so that resident pages
		// reach the fault layer again. Poisoned pages are permanent and skip
		// retries; the tight retry budget bounds a misclassification.
		Arm: func(env *Env, rate float64, seed int64) {
			pool, fact := env.Cat.Pool(), env.SSB.Lineorder.File.ID()
			env.Fault.Target(fact)
			pool.SetRetryPolicy(2, 100*time.Microsecond)
			env.Fault.Heal()
			pool.ClearQuarantine()
			if rate > 0 {
				env.Fault.PoisonRate(rate, uint64(seed)+0x9e3779b97f4a7c15)
			}
			pool.EvictFile(fact)
		},
		Counters: []string{"completed", "failed_typed", "failed_uncovered", "untyped", "quarantined", "retries", "injected_reads"},
		Check: func(t *Table) (counters, shape []string) {
			// Every query ends in complete results or a typed fault, and a
			// fault only where the query's window covers a quarantined page.
			t.holds(&counters, "contained", "untyped", "== 0")
			t.holds(&counters, "contained", "failed_uncovered", "== 0")
			t.holds(&counters, "contained", "failed_typed", "== 0", 0)
			t.holds(&counters, "contained", "completed", "> 0")
			// Goodput degrades with the share of queries that fail, no faster.
			clean, ok0 := t.get(0, "contained", "qps")
			hi := t.X[len(t.X)-1]
			okN, _ := t.get(hi, "contained", "completed")
			failN, _ := t.get(hi, "contained", "failed_typed")
			if got, ok := t.get(hi, "contained", "qps"); ok && ok0 && hi > 0 && okN+failN > 0 {
				if want := clean * okN / (okN + failN); got < 0.5*want {
					shape = append(shape, fmt.Sprintf("goodput@%g = %.4g < half of surviving share x goodput@0 = %.4g", hi, got, want))
				}
			}
			return
		},
	},
}

// CurveByName finds a registered curve (nil when there is none).
func CurveByName(name string) *Curve {
	for _, c := range Curves {
		if c.Name == name {
			return c
		}
	}
	return nil
}
