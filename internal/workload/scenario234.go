package workload

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/ssb"
)

// Scenario II-IV line labels.
const (
	LineQPipeSP = "qpipe+sp" // query-centric operators with SP on all stages
	LineGQP     = "gqp"      // CJOIN global query plan (SP off for the CJOIN stage)
	LineGQPSP   = "gqp+sp"   // CJOIN with SP enabled for the CJOIN stage

	// Scenario III join-template lines: ParametricWindowJoin puts a
	// supplier hash join above the exchange in both plan flavors, so these
	// lines measure the engine join stage under the scenario mix.
	LineJoinQPipe = "qpipe+sp+join" // supplier join above query-centric plans
	LineJoinGQP   = "gqp+join"      // supplier join above the CJOIN output
)

// allStages enables SP for every stage except the listed exclusions.
func allStages(except ...plan.Kind) map[plan.Kind]bool {
	m := make(map[plan.Kind]bool)
	for k := plan.KindScan; k <= plan.KindCJoin; k++ {
		m[k] = true
	}
	for _, k := range except {
		m[k] = false
	}
	return m
}

// qpipeSPConfig is the query-centric line: SP on all (non-CJOIN) stages,
// pull-based, as "QPipe execution engine and query-centric relational
// operators" with SP enabled.
func qpipeSPConfig() engine.Config {
	return engine.Config{SP: true, Model: engine.SPPull, SPStages: allStages(plan.KindCJoin)}
}

// gqpConfig is the GQP line without SP on the CJOIN stage. (Plain proactive
// sharing: every query is admitted into the global plan.)
func gqpConfig() engine.Config {
	return engine.Config{SP: true, Model: engine.SPPull, SPStages: allStages(plan.KindCJoin)}
}

// gqpNoSPConfig disables reactive sharing entirely (the Scenario IV "gqp"
// baseline, so the gqp-vs-gqp+sp contrast isolates SP on the shared
// operator; see EXPERIMENTS.md for the deviation note).
func gqpNoSPConfig() engine.Config { return engine.Config{} }

// gqpSPConfig enables SP exactly for the CJOIN stage (the §3 integration,
// Figure 2): queries with an identical star sub-plan admit once — the
// satellites pull the host's joined tuples through an SPL and run their own
// aggregations above it.
func gqpSPConfig() engine.Config {
	return engine.Config{SP: true, Model: engine.SPPull,
		SPStages: map[plan.Kind]bool{plan.KindCJoin: true}}
}

// ---------------------------------------------------------------------------
// Scenario II: impact of concurrency

// ScenarioIIConfig parameterizes Scenario II (§4.4): throughput vs number of
// concurrent clients, disk-resident, randomized template parameters
// (decreasing SP efficiency), selectivity fixed by the template.
type ScenarioIIConfig struct {
	SF              float64
	Clients         []int // x-axis
	Template        ssb.Template
	PoolSize        int // randomized instances drawn per client (large = few common sub-plans)
	Duration        time.Duration
	Residency       Residency
	BufferPoolPages int
	Batching        bool
	Seed            int64
	// Workers is the CJOIN probe parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c ScenarioIIConfig) withDefaults() ScenarioIIConfig {
	if c.SF <= 0 {
		c.SF = 0.01
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 2, 4, 8, 16, 32}
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 64
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Residency == DefaultResidency {
		c.Residency = DiskResident // the demo default for this scenario
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScenarioIIPoint is one x-axis point: per-line throughput (queries/sec),
// mean per-query latency, and the CPU-utilisation proxy.
type ScenarioIIPoint struct {
	Clients     int
	Throughput  map[string]float64
	MeanLatency map[string]time.Duration
	CPUUtil     map[string]float64
	Allocs      map[string]float64 // heap allocations per completed query
}

// ScenarioIIResult is the full Scenario II series.
type ScenarioIIResult struct {
	Config ScenarioIIConfig
	Lines  []string
	Points []ScenarioIIPoint
}

// RunScenarioII measures throughput as concurrency grows. Expected shape:
// shared operators in a GQP overtake query-centric operators at high
// concurrency.
func RunScenarioII(ctx context.Context, cfg ScenarioIIConfig) (*ScenarioIIResult, error) {
	cfg = cfg.withDefaults()
	env, err := NewSSBEnvCfg(EnvConfig{SF: cfg.SF, Residency: cfg.Residency,
		PoolPages: cfg.BufferPoolPages, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer env.Close()

	pool := ssb.Pool(env.SSB, cfg.Template, cfg.PoolSize, cfg.Seed)
	res := &ScenarioIIResult{Config: cfg, Lines: []string{LineQPipeSP, LineGQP}}
	for _, clients := range cfg.Clients {
		pt := ScenarioIIPoint{
			Clients:     clients,
			Throughput:  make(map[string]float64),
			MeanLatency: make(map[string]time.Duration),
			CPUUtil:     make(map[string]float64),
			Allocs:      make(map[string]float64),
		}
		for _, line := range res.Lines {
			useGQP := line == LineGQP
			ecfg := qpipeSPConfig()
			if useGQP {
				ecfg = gqpConfig()
			}
			e := env.Engine(ecfg)
			src := func(r *rand.Rand) plan.Node {
				return pool[r.Intn(len(pool))].Plan(useGQP)
			}
			m, err := throughput(ctx, e, env.CJoinBusy, clients, cfg.Duration, cfg.Batching, src, cfg.Seed)
			if err != nil {
				return nil, err
			}
			pt.Throughput[line] = m.Throughput
			pt.MeanLatency[line] = m.MeanLatency
			pt.CPUUtil[line] = m.CPUUtil
			pt.Allocs[line] = m.AllocsPerQuery
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Scenario III: impact of selectivity

// ScenarioIIIConfig parameterizes Scenario III (§4.4): throughput vs
// selectivity at low concurrency, memory-resident — exposing the GQP's
// bookkeeping overhead against query-centric operators.
type ScenarioIIIConfig struct {
	SF            float64
	Selectivities []float64 // x-axis, fraction of fact rows selected
	Clients       int       // fixed low concurrency
	Duration      time.Duration
	Residency     Residency
	Seed          int64
	// Workers is the CJOIN probe parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c ScenarioIIIConfig) withDefaults() ScenarioIIIConfig {
	if c.SF <= 0 {
		c.SF = 0.01
	}
	if len(c.Selectivities) == 0 {
		c.Selectivities = []float64{0.02, 0.1, 0.25, 0.5, 0.75, 1.0}
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Residency == DefaultResidency {
		c.Residency = MemoryResident
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScenarioIIIPoint is one selectivity point.
type ScenarioIIIPoint struct {
	Selectivity float64
	Throughput  map[string]float64
	MeanLatency map[string]time.Duration
	CPUUtil     map[string]float64
	Allocs      map[string]float64 // heap allocations per completed query
}

// ScenarioIIIResult is the full Scenario III series.
type ScenarioIIIResult struct {
	Config ScenarioIIIConfig
	Lines  []string
	Points []ScenarioIIIPoint
}

// RunScenarioIII measures throughput as selectivity grows at fixed low
// concurrency. Instances at the same selectivity differ in their predicate
// window (randomized), so SP rarely fires — isolating per-operator costs.
// Expected shape: the query-centric line stays above the GQP line.
func RunScenarioIII(ctx context.Context, cfg ScenarioIIIConfig) (*ScenarioIIIResult, error) {
	cfg = cfg.withDefaults()
	env, err := NewSSBEnvCfg(EnvConfig{SF: cfg.SF, Residency: cfg.Residency,
		Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer env.Close()

	res := &ScenarioIIIResult{Config: cfg, Lines: []string{LineQPipeSP, LineGQP,
		LineJoinQPipe, LineJoinGQP}}
	for _, sel := range cfg.Selectivities {
		width := int64(sel*50 + 0.5)
		if width < 1 {
			width = 1
		}
		if width > 50 {
			width = 50
		}
		pt := ScenarioIIIPoint{
			Selectivity: sel,
			Throughput:  make(map[string]float64),
			MeanLatency: make(map[string]time.Duration),
			CPUUtil:     make(map[string]float64),
			Allocs:      make(map[string]float64),
		}
		for _, line := range res.Lines {
			useGQP := line == LineGQP || line == LineJoinGQP
			joinTpl := line == LineJoinQPipe || line == LineJoinGQP
			ecfg := qpipeSPConfig()
			if useGQP {
				ecfg = gqpConfig()
			}
			e := env.Engine(ecfg)
			src := func(r *rand.Rand) plan.Node {
				start := r.Int63n(50 - width + 1)
				if joinTpl {
					return ssb.ParametricWindowJoin(env.SSB, width, start).Plan(useGQP)
				}
				return ssb.ParametricWindow(env.SSB, width, start).Plan(useGQP)
			}
			m, err := throughput(ctx, e, env.CJoinBusy, cfg.Clients, cfg.Duration, false, src, cfg.Seed)
			if err != nil {
				return nil, err
			}
			pt.Throughput[line] = m.Throughput
			pt.MeanLatency[line] = m.MeanLatency
			pt.CPUUtil[line] = m.CPUUtil
			pt.Allocs[line] = m.AllocsPerQuery
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Scenario IV: impact of similarity

// ScenarioIVConfig parameterizes Scenario IV (§4.4): throughput and SP
// opportunities vs the number of possible distinct plans, at fixed high
// concurrency with batched submission, disk-resident.
type ScenarioIVConfig struct {
	SF              float64
	Plans           []int // x-axis: size of the distinct-plan pool
	Clients         int   // fixed high concurrency
	Template        ssb.Template
	Duration        time.Duration
	Residency       Residency
	BufferPoolPages int
	Seed            int64
	// Workers is the CJOIN probe parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c ScenarioIVConfig) withDefaults() ScenarioIVConfig {
	if c.SF <= 0 {
		c.SF = 0.01
	}
	if len(c.Plans) == 0 {
		c.Plans = []int{1, 2, 4, 8, 16, 32}
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Residency == DefaultResidency {
		c.Residency = DiskResident
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScenarioIVPoint is one plan-diversity point: throughput per line plus the
// sharing counters behind it ("the most significant metric for this
// scenario").
type ScenarioIVPoint struct {
	Plans      int
	Throughput map[string]float64
	// MeanLatency and Allocs mirror the scenario II/III metrics.
	MeanLatency map[string]time.Duration
	Allocs      map[string]float64
	// SPAttachedCJoin counts satellites attached at the CJOIN stage
	// (identical star sub-plans served by one admission).
	SPAttachedCJoin map[string]int64
	// SPAttachedTotal counts satellites across all stages.
	SPAttachedTotal map[string]int64
	// Admitted counts queries actually admitted into the GQP.
	Admitted map[string]int64
}

// ScenarioIVResult is the full Scenario IV series.
type ScenarioIVResult struct {
	Config ScenarioIVConfig
	Lines  []string
	Points []ScenarioIVPoint
}

// ---------------------------------------------------------------------------
// Scenario IV pruning axis: date-clustered fact table, windowed date queries

// Pruning-axis line labels.
const (
	LinePrune   = "prune"   // zone-map pruning on (engine scans + CJOIN shared scan)
	LineNoPrune = "noprune" // pruning disabled — the pre-zone-map baseline
)

// ScenarioIVPruneConfig parameterizes the Scenario IV pruning axis: the fact
// table is date-clustered (time-ordered ingest layout) and disk-resident,
// clients draw contiguous lo_orderdate windows at a fixed selectivity through
// the CJOIN global plan, and the identical sweep runs with zone-map pruning
// on and off. The x-axis is window selectivity in percent of the calendar.
type ScenarioIVPruneConfig struct {
	SF              float64
	Selectivities   []int // x-axis: date-window selectivity in percent
	Clients         int
	Plans           int // distinct windows per selectivity (randomized starts)
	Duration        time.Duration
	BufferPoolPages int
	Seed            int64
	// Workers is the CJOIN probe parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c ScenarioIVPruneConfig) withDefaults() ScenarioIVPruneConfig {
	if c.SF <= 0 {
		c.SF = 0.01
	}
	if len(c.Selectivities) == 0 {
		c.Selectivities = []int{2, 10, 25, 50, 100}
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Plans <= 0 {
		c.Plans = 8
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ScenarioIVPrunePoint is one selectivity point with the pruning
// observability counters behind the throughput numbers.
type ScenarioIVPrunePoint struct {
	Selectivity int
	Throughput  map[string]float64
	MeanLatency map[string]time.Duration
	// PagesFetched / PagesPruned / PagesDecoded are buffer-pool deltas over
	// the measurement window; CJoinPruned counts fact pages the shared scan
	// skipped whole, ZoneSkips per-(page,query) annotate passes skipped.
	PagesFetched map[string]int64
	PagesPruned  map[string]int64
	PagesDecoded map[string]int64
	CJoinPruned  map[string]int64
	ZoneSkips    map[string]int64
}

// ScenarioIVPruneResult is the full pruning-axis series.
type ScenarioIVPruneResult struct {
	Config ScenarioIVPruneConfig
	Lines  []string
	Points []ScenarioIVPrunePoint
}

// RunScenarioIVPrune measures zone-map pruning on the date-clustered fact
// table. Expected shape: at low selectivity the pruning line wins big — most
// pages are proven irrelevant from their zone maps and never fetched — and
// the lines converge at 100% selectivity where nothing can be pruned.
func RunScenarioIVPrune(ctx context.Context, cfg ScenarioIVPruneConfig) (*ScenarioIVPruneResult, error) {
	cfg = cfg.withDefaults()
	res := &ScenarioIVPruneResult{Config: cfg, Lines: []string{LinePrune, LineNoPrune}}
	res.Points = make([]ScenarioIVPrunePoint, len(cfg.Selectivities))
	for i, sel := range cfg.Selectivities {
		res.Points[i] = ScenarioIVPrunePoint{
			Selectivity:  sel,
			Throughput:   make(map[string]float64),
			MeanLatency:  make(map[string]time.Duration),
			PagesFetched: make(map[string]int64),
			PagesPruned:  make(map[string]int64),
			PagesDecoded: make(map[string]int64),
			CJoinPruned:  make(map[string]int64),
			ZoneSkips:    make(map[string]int64),
		}
	}
	for _, line := range res.Lines {
		// One environment per line: pruning is fixed at CJOIN construction.
		// Identical seed → bit-identical data either way.
		env, err := NewSSBEnvCfg(EnvConfig{SF: cfg.SF, Residency: DiskResident,
			PoolPages: cfg.BufferPoolPages, Seed: cfg.Seed, Workers: cfg.Workers,
			DateClustered: true, NoPrune: line == LineNoPrune})
		if err != nil {
			return nil, err
		}
		for i, sel := range cfg.Selectivities {
			pool := ssb.DateWindowPool(env.SSB, sel, cfg.Plans, cfg.Seed+int64(sel))
			e := env.Engine(gqpNoSPConfig())
			poolBefore := env.Cat.Pool().DecodeStats()
			cjBefore := env.CJoin.Stats()
			src := func(r *rand.Rand) plan.Node {
				return pool[r.Intn(len(pool))].Plan(true)
			}
			m, err := throughput(ctx, e, env.CJoinBusy, cfg.Clients, cfg.Duration, true, src, cfg.Seed)
			if err != nil {
				env.Close()
				return nil, err
			}
			poolAfter := env.Cat.Pool().DecodeStats()
			cjAfter := env.CJoin.Stats()
			pt := &res.Points[i]
			pt.Throughput[line] = m.Throughput
			pt.MeanLatency[line] = m.MeanLatency
			pt.PagesFetched[line] = poolAfter.Fetched - poolBefore.Fetched
			pt.PagesPruned[line] = poolAfter.Pruned - poolBefore.Pruned
			pt.PagesDecoded[line] = poolAfter.Decoded - poolBefore.Decoded
			pt.CJoinPruned[line] = cjAfter.PagesPruned - cjBefore.PagesPruned
			pt.ZoneSkips[line] = cjAfter.ZoneSkips - cjBefore.ZoneSkips
		}
		env.Close()
	}
	return res, nil
}

// RunScenarioIV measures the SP+GQP combination. Expected shape: with few
// distinct plans, SP on the CJOIN stage admits only one query per identical
// star sub-plan (saving admission and bookkeeping), so gqp+sp beats plain
// gqp; the gap closes as plan diversity grows and SP opportunities vanish.
func RunScenarioIV(ctx context.Context, cfg ScenarioIVConfig) (*ScenarioIVResult, error) {
	cfg = cfg.withDefaults()
	env, err := NewSSBEnvCfg(EnvConfig{SF: cfg.SF, Residency: cfg.Residency,
		PoolPages: cfg.BufferPoolPages, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer env.Close()

	res := &ScenarioIVResult{Config: cfg, Lines: []string{LineQPipeSP, LineGQP, LineGQPSP}}
	for _, nplans := range cfg.Plans {
		pool := ssb.Pool(env.SSB, cfg.Template, nplans, cfg.Seed+int64(nplans))
		pt := ScenarioIVPoint{
			Plans:           nplans,
			Throughput:      make(map[string]float64),
			MeanLatency:     make(map[string]time.Duration),
			Allocs:          make(map[string]float64),
			SPAttachedCJoin: make(map[string]int64),
			SPAttachedTotal: make(map[string]int64),
			Admitted:        make(map[string]int64),
		}
		for _, line := range res.Lines {
			var ecfg engine.Config
			useGQP := true
			switch line {
			case LineQPipeSP:
				ecfg = qpipeSPConfig()
				useGQP = false
			case LineGQP:
				ecfg = gqpNoSPConfig()
			default:
				ecfg = gqpSPConfig()
			}
			e := env.Engine(ecfg)
			before := env.CJoin.Stats()
			src := func(r *rand.Rand) plan.Node {
				return pool[r.Intn(len(pool))].Plan(useGQP)
			}
			m, err := throughput(ctx, e, env.CJoinBusy, cfg.Clients, cfg.Duration, true, src, cfg.Seed)
			if err != nil {
				return nil, err
			}
			pt.Throughput[line] = m.Throughput
			pt.MeanLatency[line] = m.MeanLatency
			pt.Allocs[line] = m.AllocsPerQuery
			after := env.CJoin.Stats()
			pt.Admitted[line] = after.Admitted - before.Admitted
			var total int64
			for _, st := range e.Stats().Stages {
				total += st.SPAttached
				if st.Kind == plan.KindCJoin {
					pt.SPAttachedCJoin[line] = st.SPAttached
				}
			}
			pt.SPAttachedTotal[line] = total
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
