package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arena"
	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Source draws a client's next query; gqp picks the CJOIN form of a star
// query over its query-centric expansion.
type Source func(r *rand.Rand, gqp bool) plan.Node

// SourceFunc binds a query mix to an environment at one x value.
type SourceFunc func(env *Env, x float64, seed int64) Source

// Line is one plotted line: an engine configuration and a plan form. The
// paper's five protected lines are the Lines; a curve may relabel one and run
// it over a varied environment or its own query mix.
type Line struct {
	Label  string
	Engine engine.Config
	GQP    bool // CJOIN plans; false expands stars into hash-join chains
	// Vary alters the environment the line runs over (ablations fixed at
	// CJOIN construction).
	Vary func(*EnvConfig)
	// Source overrides the curve's query mix for this line.
	Source SourceFunc
}

// Kind is how a curve's cells are measured.
type Kind int

const (
	// Batch submits all clients' queries at once, round after round: the
	// mean latency is the response time of a round.
	Batch Kind = iota
	// ClosedLoop runs clients that each submit, wait, and submit again.
	ClosedLoop
	// OpenLoop sends Poisson arrivals through a service.Gateway at x times
	// the closed-loop capacity calibrated with one client per gateway slot.
	OpenLoop
)

func (k Kind) String() string { return [...]string{"batch", "closed-loop", "open-loop"}[k] }

// Curve is one figure of the demonstration: an axis, the lines drawn over
// it, where their queries come from, how a cell is measured, which counters
// are diffed around the window, and the orderings the figure must show.
type Curve struct {
	Name  string
	Title string
	Axis  string
	X     []float64 // default x values
	Lines []Line
	Kind  Kind
	// Clients is the fixed client count; zero means x is the client count.
	Clients int
	// Env is the environment's shape (residency, clustering, faults); scale,
	// seed, workers and pool size come from Params. TPCH selects the
	// lineitem table over the SSB star schema.
	Env  EnvConfig
	TPCH bool
	// SPStages restricts the SP lines to these stages (nil = every stage).
	SPStages map[plan.Kind]bool
	Source   SourceFunc
	// Arm prepares the environment for x before the window (fault injection).
	Arm func(env *Env, x float64, seed int64)
	// Gateway sizes the OpenLoop tier.
	Gateway service.Config
	// Counters names the counters reported per cell, in print order.
	Counters []string
	// Check returns the violated orderings over counters, which hold on any
	// machine, and over time.
	Check func(t *Table) (counters, shape []string)
}

// Params is what a caller may set about a run; zero values take the curve's
// defaults. Everything else about a curve is its registry entry.
type Params struct {
	SF        float64       // scale factor (default 0.01)
	Duration  time.Duration // window per cell (default 2s)
	Seed      int64         // data and query seed (default 1)
	Workers   int           // CJOIN probe workers (0 = GOMAXPROCS)
	Residency Residency     // DefaultResidency = the curve's own
	PoolPages int           // buffer-pool frames (0 = sized by residency)
	X         []float64     // x values (nil = the curve's own)
	Clients   int           // fixed client count (0 = the curve's own)
}

// ParseX parses a comma-separated x-value list, the form both front-ends
// take Params.X in; the empty string means the curve's own values.
func ParseX(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var xs []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad x list %q: %w", s, err)
		}
		xs = append(xs, v)
	}
	return xs, nil
}

// Cell is one line's measurement at one x value.
type Cell struct {
	QPS            float64            `json:"qps"` // completed queries per second
	LatencyNs      float64            `json:"mean_latency_ns"`
	CPU            float64            `json:"cpu"` // operator busy time / (wall x GOMAXPROCS), at most 1
	AllocsPerQuery float64            `json:"allocs_per_query"`
	Counters       map[string]float64 `json:"counters"`
}

// Table is the result of running a curve: Cells[i][j] is X[i] on Lines[j].
type Table struct {
	Curve             string    `json:"curve"`
	Title             string    `json:"title"`
	Setup             string    `json:"setup"`
	Axis              string    `json:"axis"`
	X                 []float64 `json:"x"`
	Lines             []string  `json:"lines"`
	Counters          []string  `json:"counters"`
	Cells             [][]Cell  `json:"cells"`
	CounterViolations []string  `json:"counter_violations"`
	ShapeViolations   []string  `json:"shape_violations"`
}

// Verdict is the one-line outcome of the curve's Check.
func (t *Table) Verdict() string {
	if v := append(slices.Clone(t.CounterViolations), t.ShapeViolations...); len(v) > 0 {
		return "shape: VIOLATED " + strings.Join(v, "; ")
	}
	return "shape: ok"
}

// Header names the columns of Rows.
func (t *Table) Header() []string {
	return append([]string{t.Axis, "line", "q/s", "latency", "cpu", "allocs/q"}, t.Counters...)
}

// Rows renders one row per (x, line) cell, counters in declared order;
// counters named *_ns print as durations.
func (t *Table) Rows() [][]string {
	var rows [][]string
	for i, x := range t.X {
		for j, line := range t.Lines {
			c := t.Cells[i][j]
			row := []string{strconv.FormatFloat(x, 'g', -1, 64), line,
				fmt.Sprintf("%.1f", c.QPS), time.Duration(c.LatencyNs).Round(10 * time.Microsecond).String(),
				fmt.Sprintf("%.2f", c.CPU), fmt.Sprintf("%.0f", c.AllocsPerQuery)}
			for _, name := range t.Counters {
				if strings.HasSuffix(name, "_ns") {
					row = append(row, time.Duration(c.Counters[name]).Round(time.Microsecond).String())
				} else {
					row = append(row, strconv.FormatFloat(math.Round(c.Counters[name]*10)/10, 'f', -1, 64))
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// get reads one metric of the (x, line) cell: "qps", "latency", or a counter
// name, with a "/q" suffix dividing by the cell's completed queries. ok is
// false when the run did not cover the cell.
func (t *Table) get(x float64, line, metric string) (v float64, ok bool) {
	i, j := slices.Index(t.X, x), slices.Index(t.Lines, line)
	if i < 0 || j < 0 {
		return 0, false
	}
	c := t.Cells[i][j]
	name, perQuery := strings.CutSuffix(metric, "/q")
	switch name {
	case "qps":
		v = c.QPS
	case "latency":
		v = c.LatencyNs
	default:
		v = c.Counters[name]
	}
	if perQuery {
		v /= max(c.Counters["completed"], 1)
	}
	return v, true
}

// ref names one metric of one cell in a Check.
type ref struct {
	x      float64
	line   string
	metric string
}

func (r ref) String() string { return fmt.Sprintf("%s %s@%g", r.line, r.metric, r.x) }

// less records a violation unless a < b; cells the run did not cover are
// skipped, so a check survives an x override.
func (t *Table) less(out *[]string, a, b ref) {
	av, aok := t.get(a.x, a.line, a.metric)
	bv, bok := t.get(b.x, b.line, b.metric)
	if aok && bok && !(av < bv) {
		*out = append(*out, fmt.Sprintf("%v = %.4g !< %v = %.4g", a, av, b, bv))
	}
}

// holds records a violation for every covered cell of line, at xs or else at
// every x, whose metric is not zero (want "== 0") or not positive ("> 0").
func (t *Table) holds(out *[]string, line, metric, want string, xs ...float64) {
	if len(xs) == 0 {
		xs = t.X
	}
	for _, x := range xs {
		v, covered := t.get(x, line, metric)
		pass := v == 0
		if want == "> 0" {
			pass = v > 0
		}
		if covered && !pass {
			*out = append(*out, fmt.Sprintf("%v = %.4g, want %s", ref{x, line, metric}, v, want))
		}
	}
}

// Run measures every (x, line) cell of the curve and checks its orderings.
func Run(ctx context.Context, c *Curve, p Params) (*Table, error) {
	if p.SF <= 0 {
		p.SF = 0.01
	}
	if p.Duration <= 0 {
		p.Duration = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	xs := c.X
	if len(p.X) > 0 {
		xs = p.X
	}
	clients := c.Clients
	if p.Clients > 0 && clients > 0 {
		clients = p.Clients
	}
	ecfg := c.Env
	ecfg.SF, ecfg.Seed, ecfg.Workers, ecfg.PoolPages = p.SF, p.Seed, p.Workers, p.PoolPages
	if p.Residency != DefaultResidency {
		ecfg.Residency = p.Residency
	}
	newEnv := func(vary func(*EnvConfig)) (*Env, error) {
		cfg := ecfg
		if vary != nil {
			vary(&cfg)
		}
		if c.TPCH {
			return NewTPCHEnv(cfg.SF, cfg.Residency, cfg.PoolPages, cfg.Seed)
		}
		return NewSSBEnvCfg(cfg)
	}

	t := &Table{Curve: c.Name, Title: c.Title, Axis: c.Axis, X: xs, Counters: c.Counters,
		Setup: fmt.Sprintf("sf=%g, %s, %s", p.SF, ecfg.Residency, c.Kind)}
	if clients > 0 {
		t.Setup += fmt.Sprintf(", %d clients", clients)
	}
	t.Cells = make([][]Cell, len(xs))
	for i := range t.Cells {
		t.Cells[i] = make([]Cell, len(c.Lines))
	}
	// One environment per line, built from the same seed: every line starts
	// from the same cold pool, and ablations fixed at CJOIN construction
	// (Line.Vary) need their own operator anyway.
	for j, line := range c.Lines {
		t.Lines = append(t.Lines, line.Label)
		env, err := newEnv(line.Vary)
		if err != nil {
			return nil, err
		}
		cells, err := runLine(ctx, c, line, env, xs, clients, p)
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("curve %s, line %s: %w", c.Name, line.Label, err)
		}
		for i, cell := range cells {
			t.Cells[i][j] = cell
		}
	}
	t.CounterViolations, t.ShapeViolations = c.Check(t)
	return t, nil
}

// engineConfig is the line's engine configuration under the curve's stage
// restriction.
func (c *Curve) engineConfig(line Line) engine.Config {
	cfg := line.Engine
	if cfg.SP && cfg.SPStages == nil {
		cfg.SPStages = c.SPStages
	}
	return cfg
}

// runLine measures one line over env: one cell per x.
func runLine(ctx context.Context, c *Curve, line Line, env *Env, xs []float64, clients int, p Params) ([]Cell, error) {
	cells := make([]Cell, 0, len(xs))
	ecfg := c.engineConfig(line)
	mix := c.Source
	if line.Source != nil {
		mix = line.Source
	}
	var capacity float64
	if c.Kind == OpenLoop {
		// Capacity is the closed-loop rate with one client per gateway slot;
		// a query the calibration sheds or fails is not capacity.
		e := env.Engine(ecfg)
		gw := c.Gateway
		o, _ := closedLoop(ctx, e.Execute, gw.ShortSlots+gw.LongSlots, p.Duration/2, mix(env, 1, p.Seed), line.GQP, p.Seed, true)
		capacity = max(o.qps(), 1)
	}
	for _, x := range xs {
		seed := p.Seed + int64(x*1000)
		if c.Arm != nil {
			c.Arm(env, x, p.Seed)
		}
		// A fresh engine (and gateway) per cell: SP registry, result cache
		// and the tier's estimators start empty at every point.
		e := env.Engine(ecfg)
		src := mix(env, x, p.Seed)
		n := clients
		if n == 0 {
			n = max(int(x), 1)
		}
		var gw *service.Gateway
		if c.Kind == OpenLoop {
			gw = service.NewGateway(e, c.Gateway)
		}
		before := snapshot(env, e, gw)
		var o outcome
		var err error
		switch c.Kind {
		case Batch:
			o, err = batchRounds(ctx, e, n, p.Duration, src, line.GQP, seed)
		case ClosedLoop:
			o, err = closedLoop(ctx, e.Execute, n, p.Duration, src, line.GQP, seed, c.Env.FaultInjection)
		case OpenLoop:
			o = openLoop(ctx, gw, x*capacity, p.Duration, src, line.GQP, seed)
		}
		if err != nil {
			return nil, err
		}
		all := snapshot(env, e, gw)
		for k, v := range before {
			all[k] -= v
		}
		all["completed"], all["failed_typed"], all["untyped"] = float64(o.ok), float64(o.failed), float64(o.untyped)
		all["failed_uncovered"], all["arrivals"] = float64(o.uncovered), float64(o.arrivals)
		all["capacity_qps"], all["offered_qps"] = capacity, x*capacity
		for class, name := range [...]string{"short", "long"} {
			all[name+"_p50_ns"], all[name+"_p99_ns"] = quantile(o.class[class], 0.50), quantile(o.class[class], 0.99)
		}
		cell := Cell{QPS: o.qps(), Counters: make(map[string]float64, len(c.Counters))}
		if o.ok > 0 {
			cell.LatencyNs = float64(o.latency) / float64(o.ok)
			cell.AllocsPerQuery = all["mallocs"] / float64(o.ok)
		}
		// Operator sections are timed with wall clocks, so preemption under
		// oversubscription can inflate the sum past 100%.
		cell.CPU = min(all["busy_ns"]/(float64(o.elapsed)*float64(runtime.GOMAXPROCS(0))), 1)
		for _, name := range c.Counters {
			v, ok := all[name]
			if !ok {
				return nil, fmt.Errorf("counter %q is not one snapshot reads", name)
			}
			cell.Counters[name] = v
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// snapshot reads every cumulative counter a curve may diff around a window,
// from the Stats() calls of the engine, the CJOIN operator, the buffer pool,
// the fault layer and the gateway, plus operator busy time and heap mallocs.
func snapshot(env *Env, e *engine.Engine, gw *service.Gateway) map[string]float64 {
	m := make(map[string]float64, 32)
	es := e.Stats()
	for _, st := range es.Stages {
		m["sp_attached"] += float64(st.SPAttached)
		m["sp_copies"] += float64(st.Copies)
		if st.Kind == plan.KindCJoin {
			m["sp_attached_cjoin"] = float64(st.SPAttached)
		}
	}
	m["cache_hits"], m["cache_misses"] = float64(es.CacheHits), float64(es.CacheMisses)
	var cs cjoin.Stats
	if env.CJoin != nil {
		cs = env.CJoin.Stats()
	}
	m["admits"], m["grafts"] = float64(cs.Admitted), float64(cs.Grafted)
	m["cjoin_pages_pruned"], m["zone_skips"] = float64(cs.PagesPruned), float64(cs.ZoneSkips)
	ds := env.Cat.Pool().DecodeStats()
	m["pages_fetched"], m["pages_pruned"], m["pages_decoded"] = float64(ds.Fetched), float64(ds.Pruned), float64(ds.Decoded)
	m["cols_decoded"] = float64(ds.ColsDecoded)
	m["quarantined"], m["retries"] = float64(ds.Quarantined), float64(ds.Retries)
	ps := vec.PoolStats() // gauges, not counters: a diff is the window's net change
	m["batches_out"], m["batch_bytes_out"], m["batch_bytes_parked"] = float64(ps.BatchesOut), float64(ps.BytesOut), float64(ps.BytesParked)
	// Buffer memory, gauges too: every byte is in one of the arena (pages by
	// role), batch_bytes_out and batch_bytes_parked.
	as := arena.Snapshot()
	m["arena_mapped_bytes"], m["arena_pages_in_use"] = float64(as.MappedBytes), float64(as.PagesInUse)
	m["arena_pages_device"], m["arena_pages_frames"] = float64(as.PagesDevice), float64(as.PagesFrames)
	m["arena_pages_held"], m["arena_pages_decoded"] = float64(as.PagesHeld), float64(as.PagesDecoded)
	m["arena_reclaimed"] = float64(as.Reclaimed)
	if env.Fault != nil {
		m["injected_reads"] = float64(env.Fault.Injected())
	}
	var gs service.Stats
	if gw != nil {
		gs = gw.Stats()
	}
	m["shed_overload"] = float64(gs.Short.ShedOverload + gs.Long.ShedOverload)
	m["shed_would_miss"] = float64(gs.Short.ShedWouldMiss + gs.Long.ShedWouldMiss)
	m["ns_queued"] = float64(gs.Short.NsQueued + gs.Long.NsQueued)
	m["ns_sweep"] = float64(gs.Short.NsSweep + gs.Long.NsSweep)
	m["ns_deliver"] = float64(gs.Short.NsDeliver + gs.Long.NsDeliver)
	m["busy_ns"] = float64(es.Busy + env.CJoinBusy())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["mallocs"] = float64(ms.Mallocs)
	return m
}

// outcome is what one measurement window produced. Every finished query is
// in exactly one of ok, shed (counted by the gateway), failed and untyped.
type outcome struct {
	ok, failed, untyped int64
	uncovered           int64              // failures not explained by a quarantined page the query had to read
	arrivals            int64              // open loop: queries sent
	latency             time.Duration      // summed response time of the ok queries
	elapsed             time.Duration      // wall time of the window
	class               [2][]time.Duration // open loop: ok response times per gateway class
}

func (o *outcome) qps() float64 {
	if o.elapsed <= 0 {
		return 0
	}
	return float64(o.ok) / o.elapsed.Seconds()
}

// verdict sorts a finished query into the outcome partition.
type verdict int

const (
	completed   verdict = iota
	shed                // the gateway refused it: overload or a deadline it would miss
	failedTyped         // a quarantined page, an injected fault, a deadline or cancel, a contained panic, a shutdown
	untyped             // anything else: a containment bug, not a fault
)

func classify(err error) verdict {
	var pe *storage.PageError
	var cpe *cjoin.PanicError
	var epe *engine.PanicError
	switch {
	case err == nil:
		return completed
	case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrWouldMiss):
		return shed
	case errors.As(err, &pe), errors.Is(err, storage.ErrInjected),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.As(err, &cpe), errors.As(err, &epe), errors.Is(err, cjoin.ErrClosed):
		return failedTyped
	}
	return untyped
}

// record adds one finished query to the outcome.
func (o *outcome) record(root plan.Node, err error, took time.Duration) {
	switch classify(err) {
	case completed:
		o.ok++
		o.latency += took
	case failedTyped:
		o.failed++
		if !covers(root, err) {
			o.uncovered++
		}
	case untyped:
		o.untyped++
	}
}

// covers reports whether err is a quarantined page of the star query's fact
// table that the query's fact predicate cannot rule out from the page's zone
// map — the only failure blast-radius containment allows a star query.
func covers(root plan.Node, err error) bool {
	var pe *storage.PageError
	star := starOf(root)
	if star == nil || !errors.As(err, &pe) || pe.File != star.Fact.File.ID() {
		return false
	}
	check := expr.CompilePrune(star.FactPred)
	return check == nil || check(star.Fact.File.PageZones(pe.Page))
}

// starOf finds the plan's CJOIN star query.
func starOf(n plan.Node) *plan.StarQuery {
	if cj, ok := n.(*plan.CJoin); ok {
		return cj.Star
	}
	for _, ch := range n.Children() {
		if q := starOf(ch); q != nil {
			return q
		}
	}
	return nil
}

// batchRounds submits rounds of `clients` simultaneous queries ("ensures
// maximal SP sharing and decreases admission costs for GQP") for roughly dur,
// at least one round.
func batchRounds(ctx context.Context, e *engine.Engine, clients int, dur time.Duration, src Source, gqp bool, seed int64) (outcome, error) {
	r := rand.New(rand.NewSource(seed))
	var o outcome
	start := time.Now()
	for deadline := start.Add(dur); o.ok == 0 || time.Now().Before(deadline); {
		roots := make([]plan.Node, clients)
		for i := range roots {
			roots[i] = src(r, gqp)
		}
		r0 := time.Now()
		if _, err := e.ExecuteBatch(ctx, roots); err != nil {
			return o, err
		}
		o.latency += time.Since(r0) * time.Duration(clients)
		o.ok += int64(clients)
	}
	o.elapsed = time.Since(start)
	return o, nil
}

// closedLoop runs `clients` clients that each submit a query, wait for it and
// submit the next, for roughly dur. With tolerate, a failed query is an
// outcome and its client moves on; without, the first failure stops its
// client and is returned.
func closedLoop(ctx context.Context, exec func(context.Context, plan.Node) (*engine.Result, error),
	clients int, dur time.Duration, src Source, gqp bool, seed int64, tolerate bool) (outcome, error) {
	var mu sync.Mutex
	var total outcome
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var o outcome
			var stopped error
			r := rand.New(rand.NewSource(seed + int64(i)*7919))
			for time.Now().Before(deadline) {
				root := src(r, gqp)
				q0 := time.Now()
				_, err := exec(ctx, root)
				o.record(root, err, time.Since(q0))
				if err != nil && !tolerate {
					stopped = err
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			total.ok, total.failed, total.untyped = total.ok+o.ok, total.failed+o.failed, total.untyped+o.untyped
			total.uncovered, total.latency = total.uncovered+o.uncovered, total.latency+o.latency
			if firstErr == nil {
				firstErr = stopped
			}
		}(i)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total, firstErr
}

// openLoop sends Poisson arrivals at `rate` per second through the gateway
// for roughly dur and waits for every one to finish.
func openLoop(ctx context.Context, gw *service.Gateway, rate float64, dur time.Duration, src Source, gqp bool, seed int64) outcome {
	r := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	var o outcome
	var arrivals int64
	var wg sync.WaitGroup
	start := time.Now()
	for deadline := start.Add(dur); time.Now().Before(deadline); {
		time.Sleep(time.Duration(r.ExpFloat64() / rate * float64(time.Second)))
		root := src(r, gqp)
		arrivals++
		wg.Add(1)
		go func() {
			defer wg.Done()
			class, _ := gw.Classify(root)
			q0 := time.Now()
			_, err := gw.Submit(ctx, root)
			took := time.Since(q0)
			mu.Lock()
			defer mu.Unlock()
			o.record(root, err, took)
			if err == nil {
				o.class[class] = append(o.class[class], took)
			}
		}()
	}
	wg.Wait()
	o.arrivals, o.elapsed = arrivals, time.Since(start)
	return o
}

// quantile returns the q-quantile of the latency sample in nanoseconds.
func quantile(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[min(int(q*float64(len(lat))), len(lat)-1)])
}
