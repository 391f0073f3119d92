package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the five workloads' smoke runs overlap whatever GOMAXPROCS
// is: they spend their time in timed windows, and go test would otherwise
// run them one after another on a single processor.
func TestMain(m *testing.M) {
	if err := flag.Set("test.parallel", "5"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smokeConfig is a run small enough for go test: sf 0.01 and a 1 s window,
// with every result still verified against the oracle.
func smokeConfig(t *testing.T, trace bool) *runConfig {
	return &runConfig{seed: 1, seconds: 1, trace: trace, sf: 0.01, outDir: t.TempDir()}
}

func buildQueryserver(t *testing.T) string {
	binary := filepath.Join(t.TempDir(), "queryserver")
	if out, err := exec.Command("go", "build", "-o", binary, "repro/cmd/queryserver").CombinedOutput(); err != nil {
		t.Fatalf("build queryserver: %v\n%s", err, out)
	}
	return binary
}

// TestSmoke runs every workload and checks that each reports the metrics
// BENCHMARK.json names for either mode and no other (runWorkload fails
// otherwise), that no query failed, and that the trace is written.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the harness has %d", specFile, len(spec.Workloads), len(workloads))
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
	}
	for _, w := range spec.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("%s names workload %q, which the harness does not have", specFile, w.Name)
		}
		// The subtests run side by side: a smoke run checks what is reported,
		// not how fast, and together they finish well inside 20 s.
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var queryserver string
			if w.Name == "http_serve" {
				if testing.Short() {
					t.Skip("needs a queryserver build")
				}
				queryserver = buildQueryserver(t)
			}
			// A traced run holds an untraced one: the same window, then the
			// replay and the phases. Its result is checked in both modes.
			cfg := smokeConfig(t, true)
			cfg.queryserver = queryserver
			res, err := runWorkload(context.Background(), cfg, def, spec)
			if err != nil {
				t.Fatal(err)
			}
			untraced := *res
			untraced.Trace = false
			if err := spec.check(&untraced); err != nil {
				t.Error(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d: %s", res.Attempted, res.Failed, res.FirstError)
			}
			// At this scale the tables are a few dozen pages and the
			// workloads need not have their shape; only report it.
			for _, e := range res.ShapeErrors {
				t.Log("shape (not checked at sf 0.01):", e)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, w.Name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestServerIsReaped checks the subprocess hygiene directly: once stop
// returns, the process no longer exists.
func TestServerIsReaped(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a queryserver build")
	}
	srv, err := startServer(buildQueryserver(t), 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.cmd.Process.Pid
	srv.stop()
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("queryserver pid %d after stop: %v, want no such process", pid, err)
	}
}

// TestCorruptReferenceFails checks that the oracle has teeth: with one
// reference digest corrupted, the queries that use it count as failed.
func TestCorruptReferenceFails(t *testing.T) {
	def, _ := findWorkload("gqp_mem")
	cfg := smokeConfig(t, false)
	ctx := context.Background()
	specs, seqs, refs, err := prepare(ctx, cfg, def)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := def.setup(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	for i := range refs {
		refs[i].Sum++
	}
	w, err := drive(ctx, tg, def.clients, newRequests(seqs), refs, driveSpec{dur: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := &runResult{Metrics: make(map[string]metric), SetupS: []float64{1}}
	res.endToEnd(w)
	if w.attempted == 0 || w.failed != w.attempted {
		t.Errorf("attempted %d, failed %d: every result should have missed its corrupted reference", w.attempted, w.failed)
	}
	if ok := res.Metrics["ok_share"].Value; ok >= 1 {
		t.Errorf("ok_share = %v with corrupted references, want below 1", ok)
	}
}

// TestVerdict checks that one command's verdict covers every workload it
// ran, not the last one, and the assertion that spans two workloads: it
// needs traced runs of both, and fails when pruning leaves too many tuples.
func TestVerdict(t *testing.T) {
	run := func(workload string, tuples float64) runResult {
		return runResult{Workload: workload, Trace: true,
			Metrics: map[string]metric{"cjoin.tuples_in_per_query": {Value: tuples, Unit: "count"}}}
	}
	failed, offShape := run("gqp_mem", 80000), run("qpipe_sp_disk", 0)
	failed.Failed = 1
	offShape.ShapeErrors = []string{"qpipe_sp_disk: engine.sp_attach_share = 0, want > 0"}
	for _, c := range []struct {
		runs    []runResult
		correct bool
		shapes  int
	}{
		{[]runResult{run("gqp_mem", 80000), run("gqp_prune_disk", 41000)}, true, 0},
		{[]runResult{run("gqp_mem", 80000), run("gqp_prune_disk", 60000)}, false, 1},
		{[]runResult{run("gqp_prune_disk", 60000)}, true, 0},
		{[]runResult{failed, run("http_serve", 0)}, false, 0},
		{[]runResult{offShape, run("http_serve", 0)}, false, 1},
	} {
		if correct, shapes := verdict(c.runs); correct != c.correct || len(shapes) != c.shapes {
			t.Errorf("verdict = %v, %q, want %v and %d shape errors", correct, shapes, c.correct, c.shapes)
		}
	}
}

// TestCompareVerdicts checks the three verdicts on made-up result files: a
// change inside the bound is ok, one beyond it regressed, and a p95 from a
// run with too few samples unresolved whatever its value. The time-based
// metrics are judged by the issue's bounds, the others by BENCHMARK.json's,
// and a per-layer metric without a bound is not compared.
func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2}},
		PerLayer: []metricSpec{{Name: "qps", Unit: "1/s", Better: "higher"},
			{Name: "lat_p50_ms", Unit: "ms", Better: "lower"},
			{Name: "lat_p95_ms", Unit: "ms", Better: "lower"},
			{Name: "storage.retries", Unit: "count", Better: "lower"}},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(qps, p50 float64) string {
		var f resultFile
		for i := 0; i < 4; i++ {
			f.Runs = append(f.Runs, runResult{Workload: "w", Metrics: map[string]metric{
				"peak_rss_mb": {Value: 400}, "qps": {Value: qps + float64(i)},
				"lat_p50_ms": {Value: p50}, "lat_p95_ms": {Value: 2 * p50}}})
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	regressed, err := compareFiles(&out, spec, file(1000, 10), file(950, 12))
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a median latency a fifth worse under a bound of a tenth did not count as a regression")
	}
	if strings.Contains(out.String(), "storage.retries") {
		t.Error("a per-layer metric without a bound was compared")
	}
	for _, want := range []string{`peak_rss_mb\s.*\sok\n`, `qps\s.*\sok\n`, `lat_p50_ms\s.*\sregressed\n`, `lat_p95_ms\s.*\sunresolved \(under 200 samples\)\n`} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("no row matches %q in\n%s", want, out.String())
		}
	}
}
