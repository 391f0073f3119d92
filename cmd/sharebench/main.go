// Command sharebench runs the registered curves of internal/workload — the
// paper's Scenarios I-IV (§4.3-4.4) and this repository's reuse (IIr),
// pruning (IVp), overload (V) and fault (F) axes — and prints each as a text
// table followed by the verdict of the curve's machine-checked orderings.
//
// Examples:
//
//	sharebench -curve all
//	sharebench -curve III -x 0.02,0.5,1 -clients 2
//	sharebench -curve IV -x 1,8,32 -duration 500ms
//	sharebench -curve all -json out.json -check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/workload"
)

// checkMode is the -check flag: bare (or "all") makes any violated ordering
// fatal, "counters" only the orderings over counters, which hold at any
// window length on any machine.
type checkMode string

func (m *checkMode) String() string   { return string(*m) }
func (m *checkMode) IsBoolFlag() bool { return true }
func (m *checkMode) Set(s string) error {
	switch s {
	case "true", "all":
		*m = "all"
	case "counters":
		*m = "counters"
	case "false":
		*m = ""
	default:
		return fmt.Errorf("want -check, -check=all or -check=counters")
	}
	return nil
}

func parseResidency(s string) (workload.Residency, error) {
	switch strings.ToLower(s) {
	case "":
		return workload.DefaultResidency, nil
	case "memory":
		return workload.MemoryResident, nil
	case "disk":
		return workload.DiskResident, nil
	}
	return 0, fmt.Errorf("unknown residency %q (want memory or disk)", s)
}

// selectCurves resolves the -curve flag: "all" or a comma-separated list of
// registered names.
func selectCurves(names string) ([]*workload.Curve, error) {
	if names == "all" {
		return workload.Curves, nil
	}
	var out []*workload.Curve
	for _, name := range strings.Split(names, ",") {
		c := workload.CurveByName(strings.TrimSpace(name))
		if c == nil {
			var known []string
			for _, c := range workload.Curves {
				known = append(known, c.Name)
			}
			return nil, fmt.Errorf("unknown curve %q (want all or one of %s)", name, strings.Join(known, ", "))
		}
		out = append(out, c)
	}
	return out, nil
}

// report is the -json document.
type report struct {
	Env    map[string]any    `json:"env"`
	Tables []*workload.Table `json:"tables"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	log.SetFlags(0)
	var (
		curve     = flag.String("curve", "all", "curves to run: all, or a comma-separated list of I, II, IIr, III, IV, IVp, V, F")
		xs        = flag.String("x", "", "x values overriding the curve's own (comma-separated)")
		sf        = flag.Float64("sf", 0.01, "scale factor (fraction of SF=1; 0.01 = 60k fact rows)")
		seed      = flag.Int64("seed", 1, "data and query seed")
		duration  = flag.Duration("duration", 2*time.Second, "measurement window per cell")
		workers   = flag.Int("workers", 0, "CJOIN probe workers (0 = GOMAXPROCS)")
		residency = flag.String("residency", "", "override the curve's residency: memory or disk")
		poolPages = flag.Int("pool-pages", 0, "buffer pool pages (0 = sized by residency)")
		clients   = flag.Int("clients", 0, "override the curve's fixed client count")
		jsonPath  = flag.String("json", "", "also write {env, tables} as JSON to this path")
		check     checkMode
	)
	flag.Var(&check, "check", "exit 1 when a curve's orderings are violated; -check=counters gates only the orderings over counters")
	flag.Parse()
	// "-check counters" reads as it is written in CI: a boolean flag cannot
	// take a detached value, so accept the mode as the one trailing argument.
	if flag.NArg() > 0 && (flag.NArg() > 1 || check == "" || check.Set(flag.Arg(0)) != nil) {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}
	curves, err := selectCurves(*curve)
	if err != nil {
		log.Fatal(err)
	}
	x, err := workload.ParseX(*xs)
	if err != nil {
		log.Fatal(err)
	}
	res, err := parseResidency(*residency)
	if err != nil {
		log.Fatal(err)
	}
	params := workload.Params{SF: *sf, Duration: *duration, Seed: *seed, Workers: *workers,
		Residency: res, PoolPages: *poolPages, X: x, Clients: *clients}

	rep := report{Env: map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0), "commit": commit(), "sf": *sf, "seed": *seed,
	}}
	violated := false
	for _, c := range curves {
		t, err := workload.Run(context.Background(), c, params)
		if err != nil {
			log.Fatal(err)
		}
		rep.Tables = append(rep.Tables, t)
		printTable(t)
		violated = violated || len(t.CounterViolations) > 0 || (check == "all" && len(t.ShapeViolations) > 0)
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("marshal -json results: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			log.Fatalf("write -json results: %v", err)
		}
	}
	if check != "" && violated {
		os.Exit(1)
	}
}

func printTable(t *workload.Table) {
	fmt.Printf("\n%s\nCurve %s: %s\n%s\n%s\n", strings.Repeat("=", 78), t.Curve, t.Title, t.Setup, strings.Repeat("=", 78))
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, strings.Join(t.Header(), "\t")+"\t")
	for _, row := range t.Rows() {
		fmt.Fprintln(w, strings.Join(row, "\t")+"\t")
	}
	w.Flush()
	fmt.Println(t.Verdict())
}
