package workload

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/ssb"
	"repro/internal/vec"
)

// Every registered curve runs end to end at one x point: each declared line
// has a cell that completed queries, each declared counter is reported, and
// the orderings over counters hold. (Orderings over time are not asserted:
// 200 ms windows on a shared machine cannot resolve them.)
func TestEveryCurveRuns(t *testing.T) {
	at := map[string]float64{"I": 4, "II": 2, "IIr": 75, "III": 0.5, "IV": 1, "IVp": 10, "V": 2, "F": 0.25}
	if len(at) != len(Curves) {
		t.Fatalf("registry has %d curves, the test covers %d", len(Curves), len(at))
	}
	for _, c := range Curves {
		t.Run(c.Name, func(t *testing.T) {
			if c.Check == nil || c.Source == nil || len(c.X) == 0 {
				t.Fatal("a curve needs a Check, a Source and default x values")
			}
			x, ok := at[c.Name]
			if !ok {
				t.Fatalf("no x point chosen for curve %s", c.Name)
			}
			tab, err := Run(context.Background(), c, Params{SF: 0.005, Duration: 200 * time.Millisecond, X: []float64{x}})
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Cells) != 1 || len(tab.Cells[0]) != len(c.Lines) {
				t.Fatalf("cells = %d x %d, want 1 x %d", len(tab.Cells), len(tab.Cells[0]), len(c.Lines))
			}
			for j, cell := range tab.Cells[0] {
				if cell.QPS <= 0 || cell.LatencyNs <= 0 || cell.CPU < 0 || cell.CPU > 1 {
					t.Errorf("line %s: qps %v, latency %v ns, cpu %v", tab.Lines[j], cell.QPS, cell.LatencyNs, cell.CPU)
				}
				for _, name := range c.Counters {
					if _, ok := cell.Counters[name]; !ok {
						t.Errorf("line %s: counter %s missing", tab.Lines[j], name)
					}
				}
			}
			if len(tab.CounterViolations) > 0 {
				t.Errorf("counter orderings violated: %v", tab.CounterViolations)
			}
			if len(tab.Rows()) != len(c.Lines) || len(tab.Rows()[0]) != len(tab.Header()) {
				t.Errorf("rendering: %d rows of %d columns under %d headers", len(tab.Rows()), len(tab.Rows()[0]), len(tab.Header()))
			}
		})
	}
}

// The five protected lines mean one thing each: the configurations the
// benchmark's lines.*_round_ms metrics run.
func TestLinesPinnedToEngineConfigs(t *testing.T) {
	want := []Line{
		{Label: "query-centric", Engine: engine.Config{}},
		{Label: "push-sp", Engine: engine.Config{SP: true, Model: engine.SPPush}},
		{Label: "pull-sp", Engine: engine.Config{SP: true, Model: engine.SPPull}},
		{Label: "gqp", GQP: true, Engine: engine.Config{}},
		{Label: "gqp+sp", GQP: true, Engine: engine.Config{SP: true, Model: engine.SPPull,
			SPStages: map[plan.Kind]bool{plan.KindCJoin: true}}},
	}
	if !reflect.DeepEqual(Lines, want) {
		t.Fatalf("protected lines drifted:\n got  %+v\n want %+v", Lines, want)
	}
	// Every line of every curve is a protected line, relabelled at most: the
	// curve may vary its environment, its query mix and the result cache.
	for _, c := range Curves {
		for _, l := range c.Lines {
			cfg := l.Engine
			cfg.ResultCache = false
			found := false
			for _, p := range Lines {
				found = found || (p.GQP == l.GQP && reflect.DeepEqual(p.Engine, cfg))
			}
			if !found {
				t.Errorf("curve %s line %s runs a configuration outside the protected set: %+v", c.Name, l.Label, l.Engine)
			}
		}
	}
}

func TestCurveIVSharingCounters(t *testing.T) {
	tab, err := Run(context.Background(), CurveByName("IV"), Params{
		SF: 0.002, X: []float64{1, 4}, Clients: 8, Duration: 200 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With a single distinct plan and batched submission, SP on the CJOIN
	// stage must attach satellites; without it there must be none.
	if v, _ := tab.get(1, GQPSP.Label, "sp_attached_cjoin"); v == 0 {
		t.Errorf("gqp+sp at plans=1: no CJOIN-stage satellites")
	}
	if v, _ := tab.get(1, GQP.Label, "sp_attached_cjoin"); v != 0 {
		t.Errorf("gqp at plans=1: unexpected CJOIN-stage satellites %v", v)
	}
	// SP saves admissions: the gqp+sp line must admit fewer queries per
	// executed query than plain gqp at plans=1.
	sp, _ := tab.get(1, GQPSP.Label, "admits/q")
	plain, _ := tab.get(1, GQP.Label, "admits/q")
	if sp >= plain {
		t.Errorf("admissions per query at plans=1: gqp+sp %v, gqp %v", sp, plain)
	}
	for i, x := range tab.X {
		for j, line := range tab.Lines {
			if tab.Cells[i][j].QPS <= 0 {
				t.Errorf("plans=%v line=%s: throughput %v", x, line, tab.Cells[i][j].QPS)
			}
		}
	}
}

// arenaBalance settles the finalizers of what earlier tests dropped, notes the
// arena's gauges and the live-batch count, and returns the check to run once
// the test has closed the environments it opened: every page is back, from
// its owner and not from a finalizer, and every batch reference too.
func arenaBalance(t *testing.T) (check func()) {
	arena.Settle()
	before, live := arena.Snapshot(), vec.LiveBatches()
	return func() {
		t.Helper()
		if now := arena.Snapshot(); now.PagesInUse != before.PagesInUse || now.Reclaimed != before.Reclaimed {
			t.Errorf("arena after the battery: %+v, before it %+v", now, before)
		}
		if now := vec.LiveBatches(); now != live {
			t.Errorf("LiveBatches = %d after the battery, want %d", now, live)
		}
	}
}

// TestCurveFSmoke runs a tiny fault axis end to end and asserts the
// containment invariant the curve exists to demonstrate: every query
// finishes as either a success or a typed fault — never an untyped error —
// and the fault-free point actually does work.
func TestCurveFSmoke(t *testing.T) {
	balanced := arenaBalance(t)
	tab, err := Run(context.Background(), CurveByName("F"), Params{
		SF: 0.001, X: []float64{0, 0.25}, Clients: 2, Duration: 150 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	balanced() // Run closed the environment it opened
	if len(tab.Cells) != 2 {
		t.Fatalf("points = %d, want 2", len(tab.Cells))
	}
	for i, x := range tab.X {
		c := tab.Cells[i][0].Counters
		if c["untyped"] != 0 {
			t.Errorf("rate %.2f: untyped = %v, want 0 (containment bug)", x, c["untyped"])
		}
		if c["failed_uncovered"] != 0 {
			t.Errorf("rate %.2f: %v queries failed without covering a quarantined page", x, c["failed_uncovered"])
		}
		if c["completed"]+c["failed_typed"] == 0 {
			t.Errorf("rate %.2f: no queries finished", x)
		}
	}
	clean := tab.Cells[0][0]
	if clean.QPS <= 0 || clean.Counters["completed"] == 0 {
		t.Errorf("fault-free point: goodput %.1f, completed %v — want > 0", clean.QPS, clean.Counters["completed"])
	}
	if clean.Counters["failed_typed"] != 0 {
		t.Errorf("fault-free point: failed_typed = %v, want 0", clean.Counters["failed_typed"])
	}
}

// TestOverloadSmoke is the CI overload-smoke gate: curve V at twice the
// calibrated capacity for a short window must show graceful degradation —
// zero untyped errors, nonzero goodput, and typed shedding absorbing the
// excess.
func TestOverloadSmoke(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	balanced := arenaBalance(t)
	tab, err := Run(context.Background(), CurveByName("V"), Params{
		SF: 0.002, X: []float64{1, 2}, Duration: time.Second, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	balanced()
	if len(tab.Cells) != 2 {
		t.Fatalf("got %d points, want 2", len(tab.Cells))
	}
	atCap, twoX := tab.Cells[0][0], tab.Cells[1][0]
	for i, x := range tab.X {
		if n := tab.Cells[i][0].Counters["untyped"]; n != 0 {
			t.Fatalf("multiplier %.1f: %v untyped errors", x, n)
		}
		if tab.Cells[i][0].QPS <= 0 {
			t.Fatalf("multiplier %.1f: zero goodput", x)
		}
	}
	// Past capacity, graceful degradation means goodput holds near the
	// at-capacity point — either the sharing machinery absorbs the extra
	// arrivals (CJOIN joins them to the running sweep, so capacity grows
	// with concurrency) or the tier sheds the excess with typed errors. Both are
	// "no cliff"; what is forbidden is goodput collapse or untyped failure.
	if twoX.QPS < 0.5*atCap.QPS {
		t.Errorf("2x goodput %.1f/s collapsed below half of at-capacity %.1f/s", twoX.QPS, atCap.QPS)
	}
	if len(tab.ShapeViolations) > 0 {
		t.Errorf("the curve's own check disagrees: %v", tab.ShapeViolations)
	}
	waitSettled(t, "goroutines", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+2
	})
}

// TestCurveVOverloadChaos storms a tiny gateway with curve V's query mix,
// random client disconnects, and deadline storms, then asserts the service
// tier's invariants: every query either completes or fails with a typed
// error, no goroutines outlive the drain, and every pooled batch reference
// is returned.
func TestCurveVOverloadChaos(t *testing.T) {
	balanced := arenaBalance(t)
	defer balanced()
	env, err := NewSSBEnvCfg(EnvConfig{SF: 0.002, Residency: MemoryResident,
		Seed: 7, DateClustered: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	src := CurveByName("V").Source(env, 1, 7)
	e := env.Engine(GQP.Engine)

	// Warm every page into the pool, every column decoded, so pool residency
	// is part of the LiveBatches and bytes-out baselines.
	if _, err := e.Execute(context.Background(), ssb.DateWindow(env.SSB, 95, 0).Plan(true)); err != nil {
		t.Fatal(err)
	}
	for _, name := range env.Cat.Tables() {
		if _, err := env.Cat.MustTable(name).File.AllRows(); err != nil {
			t.Fatal(err)
		}
	}

	goroutinesBefore := runtime.NumGoroutine()
	liveBefore, bytesBefore := vec.LiveBatches(), vec.PoolStats().BytesOut
	pagesBefore := arena.Snapshot().PagesInUse // everything resident and decoded: the storm adds nothing

	// Deliberately tiny tier: 1+1 slots, 4-deep queues, high-water 2 — the
	// storm must hit every shedding and rejection path.
	gw := service.NewGateway(e, service.Config{
		ShortSlots: 1, LongSlots: 1, QueueDepth: 4, HighWater: 2,
		CJoin: env.CJoin, Pool: env.Cat.Pool(),
	})

	const storm = 300
	var wg sync.WaitGroup
	var untypedN atomic.Int64
	var completedN atomic.Int64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			switch i % 3 {
			case 1: // deadline storm: budgets from generous to hopeless
				ctx, cancel = context.WithTimeout(ctx, time.Duration(r.Intn(20000))*time.Microsecond)
			case 2: // random client disconnects mid-flight
				ctx, cancel = context.WithCancel(ctx)
				after := time.Duration(r.Intn(5000)) * time.Microsecond
				disconnect := cancel
				go func() {
					time.Sleep(after)
					disconnect()
				}()
			}
			defer cancel()
			pri := service.Normal
			if i%5 == 0 {
				pri = service.High
			}
			_, err := gw.SubmitOpts(ctx, src(r, true), pri)
			switch classify(err) {
			case completed:
				completedN.Add(1)
			case untyped:
				t.Errorf("untyped error: %v", err)
				untypedN.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if untypedN.Load() != 0 {
		t.Fatalf("%d untyped errors during the storm", untypedN.Load())
	}
	if completedN.Load() == 0 {
		t.Fatal("storm completed zero queries — overload tier starved everything")
	}

	st := gw.Stats()
	if st.TotalQueued != 0 {
		t.Fatalf("queue not drained: %d still parked", st.TotalQueued)
	}
	total := st.Short.Arrived + st.Long.Arrived
	if total != storm {
		t.Fatalf("arrivals accounted %d, want %d", total, storm)
	}
	outcomes := st.Short.Completed + st.Long.Completed +
		st.Short.Failed + st.Long.Failed +
		st.Short.ShedOverload + st.Long.ShedOverload +
		st.Short.ShedWouldMiss + st.Long.ShedWouldMiss +
		st.Short.CanceledQueued + st.Long.CanceledQueued
	if outcomes != storm {
		t.Fatalf("outcome partition %d, want %d (stats: %+v)", outcomes, storm, st)
	}

	// Drain invariants: goroutines and batch refs return to baseline.
	waitSettled(t, "goroutines", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+2
	})
	waitSettled(t, "live batches", func() bool {
		return vec.LiveBatches() <= liveBefore
	})
	waitSettled(t, "payload bytes out", func() bool {
		return vec.PoolStats().BytesOut <= bytesBefore
	})
	waitSettled(t, "arena pages in use", func() bool {
		return arena.Snapshot().PagesInUse == pagesBefore
	})
}

// waitSettled polls cond for up to 10s before failing.
func waitSettled(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not settle within 10s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestParseX(t *testing.T) {
	got, err := ParseX("0.02, 1,8")
	if err != nil || !reflect.DeepEqual(got, []float64{0.02, 1, 8}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if got, err := ParseX(""); err != nil || got != nil {
		t.Errorf("an empty list must mean the curve's own values, got %v, %v", got, err)
	}
	if _, err := ParseX("0.1,?"); err == nil {
		t.Error("bad element must fail")
	}
}

// Guard: the outcome partition must accept both service sentinels as sheds
// and the context errors as typed (a regression here would misclassify shed
// or canceled queries as untyped).
func TestClassifyCoversSentinels(t *testing.T) {
	if classify(&service.OverloadError{}) != shed {
		t.Error("OverloadError not typed")
	}
	if classify(&service.WouldMissError{}) != shed {
		t.Error("WouldMissError not typed")
	}
	if classify(context.DeadlineExceeded) != failedTyped || classify(context.Canceled) != failedTyped {
		t.Error("context errors not typed")
	}
	if classify(errors.New("mystery")) != untyped {
		t.Error("arbitrary error classified as typed")
	}
}

// The measurement loops themselves: a closed loop's rate and latency agree,
// a batch of identical queries shares, and a failing query surfaces.
func TestMeasurementLoops(t *testing.T) {
	env, err := NewSSBEnv(0.001, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := context.Background()
	in := ssb.Instantiate(env.SSB, ssb.Q1_1, rand.New(rand.NewSource(2)))
	src := func(r *rand.Rand, gqp bool) plan.Node { return in.Plan(gqp) }

	o, err := closedLoop(ctx, env.Engine(QueryCentric.Engine).Execute, 2, 150*time.Millisecond, src, false, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	mean := o.latency / time.Duration(max(o.ok, 1))
	if o.qps() <= 0 || mean <= 0 || mean > time.Second {
		t.Fatalf("closed loop: %v q/s, mean latency %v", o.qps(), mean)
	}
	// clients/latency ~ throughput, within a loose factor for scheduling.
	if implied := 2 / mean.Seconds(); o.qps() > implied*2 || o.qps() < implied/4 {
		t.Errorf("throughput %.1f inconsistent with latency %v (implied %.1f)", o.qps(), mean, implied)
	}

	e := env.Engine(PullSP.Engine)
	if o, err = batchRounds(ctx, e, 4, 150*time.Millisecond, src, false, 1); err != nil || o.ok == 0 || o.latency <= 0 {
		t.Fatalf("batch rounds: %+v, %v", o, err)
	}
	var attached int64
	for _, st := range e.Stats().Stages {
		attached += st.SPAttached
	}
	if attached == 0 {
		t.Error("batched identical queries produced no SP satellites")
	}

	bad := &plan.StarQuery{Fact: env.SSB.Date, FactCols: []int{0}} // wrong fact table
	badSrc := func(*rand.Rand, bool) plan.Node { return plan.NewCJoin(bad) }
	e = env.Engine(GQP.Engine)
	if _, err := closedLoop(ctx, e.Execute, 2, 100*time.Millisecond, badSrc, true, 1, false); err == nil {
		t.Error("closed loop must surface query errors")
	}
	if _, err := batchRounds(ctx, e, 2, 100*time.Millisecond, badSrc, true, 1); err == nil {
		t.Error("batch rounds must surface query errors")
	}
}
