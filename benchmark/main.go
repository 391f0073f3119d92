// Command benchmark is the repository's regression benchmark: five sharing
// workloads measured end to end, and a traced run that measures each layer
// from outside. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const (
	specFile = "BENCHMARK.json"
	// Share of the timed window spent warming up first, untimed: pool
	// residency, the decoded-column cache, the gateway's classification cache.
	warmupShare = 0.15
	// Set-up is repeated and its median reported, because a single set-up
	// of well under a second is at the mercy of one scheduling hiccup.
	setupRepeats = 3
	// The traced run replays this many queries of the seeded sequence with
	// tracing on, and as many with it off.
	tracedQueries = 400
	// Fact pages per pool page on the disk-resident workloads.
	diskPoolDivisor = 4
	// The data is SSB at this scale factor (600 000 fact rows, 465 v2 fact
	// pages) from this generation seed. Neither is a flag: results at
	// another scale or on other data do not compare with the baseline.
	scaleFactor = 0.1
	dataSeed    = 1
)

// runConfig is one run's settings.
type runConfig struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	sf          float64 // scaleFactor; only the smoke test runs smaller
	queryserver string  // path of the cmd/queryserver binary
	outDir      string
	factPages   int // of the oracle's database, which holds the same data
}

// diskPoolPages sizes the disk-resident workloads' pool: a quarter of the
// fact table, so the working set is four times the pool.
func (c *runConfig) diskPoolPages() int { return max(c.factPages/diskPoolDivisor, 32) }

func main() {
	cfg := runConfig{sf: scaleFactor}
	var trace int
	var compare bool
	var out string
	var appendOut bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the query sequence is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.queryserver, "queryserver", ".bench_build/queryserver", "cmd/queryserver binary (http_serve)")
	flag.StringVar(&out, "out", "benchmark/out/result.json", "result file; traces are written beside it")
	flag.BoolVar(&appendOut, "append", false, "append the runs to an existing result file")
	flag.BoolVar(&compare, "compare", false, "compare two result files given as arguments and exit")
	flag.Parse()

	spec, err := loadSpec(specFile)
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace != 0
	cfg.outDir = filepath.Dir(out)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	file := resultFile{Env: environment(&cfg)}
	if appendOut {
		if err := readJSON(out, &file); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}
	// SIGINT and SIGTERM cancel the run, so that every exit path goes through
	// the deferred close that stops the server subprocess and waits for it.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	var last *runResult
	attempted, failed := 0, 0
	for _, name := range names {
		def, ok := findWorkload(name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		c := cfg // each run fills in its own fact page count
		res, err := runWorkload(ctx, &c, def, spec)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for _, m := range res.metricNames() {
			fmt.Printf("%s %s %.6g %s\n", name, m, res.Metrics[m].Value, res.Metrics[m].Unit)
		}
		if res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d queries failed: %s\n", name, res.Failed, res.Attempted, res.FirstError)
		}
		file.Runs = append(file.Runs, *res)
		last = res
		attempted += res.Attempted
		failed += res.Failed
	}
	correct, shapeErrs := verdict(file.Runs[len(file.Runs)-len(names):])
	if err := writeJSON(out, file); err != nil {
		fatal(err)
	}
	// The last line of standard output is the result object. The driver runs
	// one workload at a time; with -workload all, correct and the counts
	// cover every run and the metrics are the last workload's. It carries
	// the metrics BENCHMARK.json names for the run's mode; a run measures
	// more, and prints and stores them all.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, spec.reported(last)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	for _, e := range shapeErrs {
		fmt.Fprintln(os.Stderr, "benchmark: workload shape:", e)
	}
	if len(shapeErrs) > 0 {
		os.Exit(1)
	}
}

// verdict sums up the runs of one command: whether every query of every
// workload was verified and every shape held, and the shapes that did not.
func verdict(runs []runResult) (correct bool, shapeErrs []string) {
	correct = true
	shapeErrs = crossShapeErrors(runs)
	for _, r := range runs {
		correct = correct && r.Failed == 0
		shapeErrs = append(shapeErrs, r.ShapeErrors...)
	}
	return correct && len(shapeErrs) == 0, shapeErrs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FirstError  string            `json:"first_error,omitempty"`
	Samples     int               `json:"samples"` // verified latencies behind the percentiles
	P95Valid    bool              `json:"p95_valid"`
	WarmupS     float64           `json:"warmup_s"`
	WindowS     float64           `json:"window_s"`
	FactPages   int               `json:"fact_pages"`
	PoolPages   int               `json:"pool_pages"`
	SetupS      []float64         `json:"setup_s_samples"`
	Metrics     map[string]metric `json:"metrics"`
	ShapeErrors []string          `json:"shape_errors,omitempty"`
}

func (r *runResult) metricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultFile is the stored form of one or more runs.
type resultFile struct {
	Env  map[string]any `json:"env"`
	Runs []runResult    `json:"runs"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runWorkload performs one run: oracle, set-up, warm-up and the timed
// window; a traced run adds the traced replay and the per-layer phases.
func runWorkload(ctx context.Context, cfg *runConfig, def workloadDef, spec *benchSpec) (*runResult, error) {
	specs, seqs, refs, err := prepare(ctx, cfg, def)
	if err != nil {
		return nil, err
	}
	reqs := newRequests(seqs)
	res := &runResult{Workload: def.name, Seed: cfg.seed, Trace: cfg.trace,
		FactPages: cfg.factPages, Metrics: make(map[string]metric)}

	var t *target
	for i := 0; i < setupRepeats; i++ {
		if t != nil {
			t.close()
			freeMemory()
		}
		t0 := time.Now()
		if t, err = def.setup(cfg, specs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer t.close()
	if t.cat != nil {
		res.PoolPages = t.cat.Pool().Size()
	}
	freeMemory()

	window := time.Duration(cfg.seconds * float64(time.Second))
	warmup := time.Duration(float64(window) * warmupShare)
	res.WarmupS, res.WindowS = warmup.Seconds(), window.Seconds()
	if _, err := drive(ctx, t, def.clients, reqs, refs, driveSpec{dur: warmup}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	w, err := drive(ctx, t, def.clients, reqs, refs, driveSpec{dur: window})
	if err != nil {
		return nil, err
	}
	res.endToEnd(w)
	if cfg.trace {
		if err := tracedRun(ctx, cfg, def, t, specs, reqs, refs, window, res); err != nil {
			return nil, err
		}
	}
	if err := spec.check(res); err != nil {
		return nil, err
	}
	return res, nil
}

// prepare draws the workload's queries from the seed and computes their
// references on the oracle's own environment.
func prepare(ctx context.Context, cfg *runConfig, def workloadDef) ([]querySpec, [][]int, []digest, error) {
	env, eng, err := oracle(cfg.sf, def.clustered)
	if err != nil {
		return nil, nil, nil, err
	}
	defer freeMemory()
	defer env.Close()
	specs, seqs := def.specs(env.SSB, rand.New(rand.NewSource(cfg.seed)), def.clients)
	refs, err := computeDigests(ctx, eng, env.SSB, specs)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.factPages = env.SSB.Lineorder.File.NumPages()
	return specs, seqs, refs, nil
}

// freeMemory returns what earlier phases left behind to the operating
// system, so that the resident set sampled in the window is the system's.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// endToEnd derives the window's metrics: BENCHMARK.json's end-to-end
// metrics and the four time-based ones it lists per layer.
func (r *runResult) endToEnd(w *window) {
	lat := w.latenciesMs()
	r.Attempted, r.Failed, r.Samples = w.attempted, w.failed, len(lat)
	if w.firstErr != nil {
		r.FirstError = w.firstErr.Error()
	}
	// A p95 needs ten samples beyond it to mean anything.
	r.P95Valid = len(lat) >= 200
	done := float64(len(lat))
	r.set("setup_s", median(r.SetupS), "s")
	r.set("qps", done/w.wall.Seconds(), "1/s")
	r.set("lat_p50_ms", quantile(lat, 0.50), "ms")
	r.set("lat_p95_ms", quantile(lat, 0.95), "ms")
	r.set("ok_share", done/float64(max(w.attempted, 1)), "share")
	r.set("cpu_ms_per_query", float64(w.cpu)/1e6/max(done, 1), "ms")
	r.set("peak_rss_mb", float64(w.peakRSS)/(1<<20), "MB")
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}
