// Command sharebench regenerates the paper's four demonstration scenarios
// (§4.3-4.4) as text tables — the same series the demo GUI plots in Figures
// 4 and 5. Every knob the GUI exposes is a flag.
//
// Examples:
//
//	sharebench -scenario 1 -sf 0.02 -cores 8
//	sharebench -scenario 2 -clients 1,2,4,8,16 -duration 2s
//	sharebench -scenario 3 -selectivity 0.02,0.25,0.5,1.0
//	sharebench -scenario 4 -plans 1,2,4,8,16 -template Q2.1
//	sharebench -scenario 5 -load 0.5,1,2,3 -duration 2s
//	sharebench -scenario all
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/ssb"
	"repro/internal/workload"
)

var (
	scenario    = flag.String("scenario", "all", "scenario to run: 1, 2, 2r (repeat axis), 3, 4, 4p (pruning axis), 5 (overload axis), f (fault axis) or all")
	sf          = flag.Float64("sf", 0.01, "scale factor (fraction of SF=1; 0.01 = 60k fact rows)")
	seed        = flag.Int64("seed", 1, "workload generation seed")
	duration    = flag.Duration("duration", 2*time.Second, "throughput measurement duration per point")
	cores       = flag.Int("cores", 0, "cores to bind (scenario 1; 0 = all)")
	concurrency = flag.String("concurrency", "1,2,4,8,16,32", "scenario 1 x-axis")
	clients     = flag.String("clients", "1,2,4,8,16,32", "scenario 2 x-axis")
	selectivity = flag.String("selectivity", "0.02,0.1,0.25,0.5,0.75,1.0", "scenario 3 x-axis")
	plans       = flag.String("plans", "1,2,4,8,16,32", "scenario 4 x-axis")
	pruneSel    = flag.String("prune-selectivity", "2,10,25,50,100", "scenario 4p x-axis: date-window selectivity in percent")
	repeatPcts  = flag.String("repeat", "0,25,50,75,90", "scenario 2r x-axis: repeat-template probability in percent")
	faultRates  = flag.String("fault-rates", "0,0.01,0.05,0.1,0.25", "scenario f x-axis: fraction of fact pages permanently poisoned")
	loadMults   = flag.String("load", "0.5,1,1.5,2,3", "scenario 5 x-axis: offered load as a multiple of calibrated capacity")
	nclients    = flag.Int("nclients", 0, "fixed client count (scenario 3: default 2, scenario 4: default 16)")
	template    = flag.String("template", "Q2.1", "SSB template for scenarios 2 and 4")
	residency   = flag.String("residency", "", "override residency: memory or disk")
	batching    = flag.Bool("batching", false, "batched submission for scenario 2")
	poolPages   = flag.Int("pool-pages", 0, "buffer pool pages (0 = scenario default)")
	workers     = flag.Int("workers", 0, "CJOIN probe workers, scenarios 2-4 (0 = GOMAXPROCS)")
	jsonPath    = flag.String("json", "", "also write machine-readable results (JSON array) to this path")
	cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the scenario runs to this path")
)

// benchRecord is one (scenario, line, axis point) measurement of the JSON
// output: ns/op is the mean per-query response time (the workload response
// time for scenario 1), allocs/op the heap allocations per completed query,
// q/s the throughput (zero for scenario 1, which measures response time).
type benchRecord struct {
	Scenario    string  `json:"scenario"`
	Line        string  `json:"line"`
	Axis        string  `json:"axis"`
	X           float64 `json:"x"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	QPS         float64 `json:"qps"`
	CPUUtil     float64 `json:"cpu_util"`

	// Pruning observability (scenario 4p): buffer-pool page fetches, pages
	// skipped by zone maps without a fetch, pages decoded, fact pages the
	// CJOIN shared scan skipped whole, and per-(page,query) annotate passes
	// skipped.
	PagesFetched int64 `json:"pages_fetched,omitempty"`
	PagesPruned  int64 `json:"pages_pruned,omitempty"`
	PagesDecoded int64 `json:"pages_decoded,omitempty"`
	CJoinPruned  int64 `json:"cjoin_pages_pruned,omitempty"`
	ZoneSkips    int64 `json:"zone_skips,omitempty"`

	// Reuse observability (scenario 2r): result-cache hits and misses, and
	// CJOIN admissions folded onto an already-running subsuming query.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	Grafts      int64 `json:"grafts,omitempty"`

	// Fault observability (scenario f): successfully completed queries per
	// second, the typed-failure and untyped-error partitions of the rest,
	// pages quarantined, transient-read retries, and reads the fault layer
	// failed.
	Goodput       float64 `json:"goodput,omitempty"`
	FailedTyped   int64   `json:"failed_typed,omitempty"`
	UntypedErrors int64   `json:"untyped_errors,omitempty"`
	Quarantined   int64   `json:"quarantined,omitempty"`
	Retries       int64   `json:"retries,omitempty"`
	InjectedReads int64   `json:"injected_reads,omitempty"`

	// Overload observability (scenario 5): offered arrival rate, the shed
	// partition, the wait-state split (queued/sweeping/delivering nanoseconds
	// summed over the window), and per-class completion latency tails.
	OfferedQPS    float64 `json:"offered_qps,omitempty"`
	ShedOverload  int64   `json:"shed_overload,omitempty"`
	ShedWouldMiss int64   `json:"shed_would_miss,omitempty"`
	NsQueued      int64   `json:"ns_queued,omitempty"`
	NsSweep       int64   `json:"ns_sweep,omitempty"`
	NsDeliver     int64   `json:"ns_deliver,omitempty"`
	ShortP50Ns    int64   `json:"short_p50_ns,omitempty"`
	ShortP99Ns    int64   `json:"short_p99_ns,omitempty"`
	LongP50Ns     int64   `json:"long_p50_ns,omitempty"`
	LongP99Ns     int64   `json:"long_p99_ns,omitempty"`
}

// jsonRecords accumulates every scenario's points for the -json output.
var jsonRecords []benchRecord

func writeJSON(path string) {
	out, err := json.MarshalIndent(jsonRecords, "", "  ")
	if err != nil {
		log.Fatalf("marshal -json results: %v", err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		log.Fatalf("write -json results: %v", err)
	}
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseTemplate(s string) (ssb.Template, error) {
	for _, t := range ssb.AllTemplates {
		if strings.EqualFold(t.String(), s) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown template %q (want Q1.1..Q4.3)", s)
}

func parseResidency(s string) (repro.Residency, error) {
	switch strings.ToLower(s) {
	case "":
		return workload.DefaultResidency, nil
	case "memory":
		return repro.MemoryResident, nil
	case "disk":
		return repro.DiskResident, nil
	default:
		return 0, fmt.Errorf("unknown residency %q (want memory or disk)", s)
	}
}

// mustInts and friends adapt the parsers for flag handling in main.
func mustInts(s string) []int {
	v, err := parseIntList(s)
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func mustFloats(s string) []float64 {
	v, err := parseFloatList(s)
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func mustTemplate(s string) ssb.Template {
	v, err := parseTemplate(s)
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func mustResidency(s string) repro.Residency {
	v, err := parseResidency(s)
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	log.SetFlags(0)
	flag.Parse()
	ctx := context.Background()

	run := map[string]bool{}
	if *scenario == "all" {
		run["1"], run["2"], run["2r"], run["3"], run["4"], run["4p"], run["5"], run["f"] = true, true, true, true, true, true, true, true
	} else {
		for _, s := range strings.Split(*scenario, ",") {
			run[strings.TrimSpace(s)] = true
		}
	}
	if len(run) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("create -cpuprofile file: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("start CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("close -cpuprofile file: %v", err)
			}
		}()
	}
	if run["1"] {
		runScenarioI(ctx)
	}
	if run["2"] {
		runScenarioII(ctx)
	}
	if run["2r"] {
		runScenarioIIRepeat(ctx)
	}
	if run["3"] {
		runScenarioIII(ctx)
	}
	if run["4"] {
		runScenarioIV(ctx)
	}
	if run["4p"] {
		runScenarioIVPrune(ctx)
	}
	if run["5"] {
		runScenarioV(ctx)
	}
	if run["f"] {
		runScenarioF(ctx)
	}
	if *jsonPath != "" {
		writeJSON(*jsonPath)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 78))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 78))
}

func runScenarioI(ctx context.Context) {
	cfg := repro.ScenarioIConfig{
		SF:              *sf,
		Cores:           *cores,
		Concurrency:     mustInts(*concurrency),
		Residency:       mustResidency(*residency),
		BufferPoolPages: *poolPages,
		Seed:            *seed,
	}
	res, err := repro.RunScenarioI(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario I: %v", err)
	}
	header(fmt.Sprintf("Scenario I: push- vs pull-based SP — TPC-H Q1, sf=%g, cores=%d, %s",
		res.Config.SF, res.Config.Cores, res.Config.Residency))
	fmt.Printf("%-14s", "concurrency")
	for _, l := range res.Lines {
		fmt.Printf("%18s", l)
	}
	fmt.Printf("   | CPU utilisation\n")
	for _, pt := range res.Points {
		fmt.Printf("%-14d", pt.Concurrency)
		for _, l := range res.Lines {
			fmt.Printf("%18s", pt.Response[l].Round(100*time.Microsecond))
		}
		fmt.Printf("   |")
		for _, l := range res.Lines {
			fmt.Printf(" %s=%.2f", shortLabel(l), pt.CPUUtil[l])
		}
		fmt.Println()
	}
	for _, pt := range res.Points {
		for _, l := range res.Lines {
			jsonRecords = append(jsonRecords, benchRecord{
				Scenario: "1", Line: l, Axis: "concurrency", X: float64(pt.Concurrency),
				NsPerOp: float64(pt.Response[l].Nanoseconds()), CPUUtil: pt.CPUUtil[l],
			})
		}
	}
	fmt.Println("\nexpected shape: push-SP grows with concurrency at flat CPU (copy serialization")
	fmt.Println("point); pull-SP stays near-flat; query-centric is competitive only while")
	fmt.Println("concurrency <= cores.")
}

// shortLine abbreviates scenario II-IV line labels for compact columns.
func shortLine(l string) string {
	switch l {
	case workload.LineQPipeSP:
		return "qp"
	case workload.LineGQP:
		return "gqp"
	case workload.LineGQPSP:
		return "gqp+sp"
	default:
		return l
	}
}

func shortLabel(l string) string {
	switch l {
	case workload.LineQueryCentric:
		return "qc"
	case workload.LinePushSP:
		return "push"
	case workload.LinePullSP:
		return "pull"
	default:
		return l
	}
}

func runScenarioII(ctx context.Context) {
	cfg := repro.ScenarioIIConfig{
		SF:              *sf,
		Clients:         mustInts(*clients),
		Template:        mustTemplate(*template),
		Duration:        *duration,
		Residency:       mustResidency(*residency),
		BufferPoolPages: *poolPages,
		Batching:        *batching,
		Seed:            *seed,
		Workers:         *workers,
	}
	res, err := repro.RunScenarioII(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario II: %v", err)
	}
	header(fmt.Sprintf("Scenario II: impact of concurrency — SSB %s, sf=%g, %s, randomized params",
		res.Config.Template, res.Config.SF, res.Config.Residency))
	fmt.Printf("%-12s", "clients")
	for _, l := range res.Lines {
		fmt.Printf("%16s", l+" q/s")
	}
	fmt.Printf("   | mean latency / CPU\n")
	for _, pt := range res.Points {
		fmt.Printf("%-12d", pt.Clients)
		for _, l := range res.Lines {
			fmt.Printf("%16.1f", pt.Throughput[l])
		}
		fmt.Printf("   |")
		for _, l := range res.Lines {
			fmt.Printf(" %s=%s/%.2f", shortLine(l), pt.MeanLatency[l].Round(time.Millisecond), pt.CPUUtil[l])
		}
		fmt.Println()
	}
	for _, pt := range res.Points {
		for _, l := range res.Lines {
			jsonRecords = append(jsonRecords, benchRecord{
				Scenario: "2", Line: l, Axis: "clients", X: float64(pt.Clients),
				NsPerOp: float64(pt.MeanLatency[l].Nanoseconds()), AllocsPerOp: pt.Allocs[l],
				QPS: pt.Throughput[l], CPUUtil: pt.CPUUtil[l],
			})
		}
	}
	fmt.Println("\nexpected shape: the GQP line overtakes the query-centric line as concurrency grows.")
}

func runScenarioIIRepeat(ctx context.Context) {
	n := *nclients
	if n == 0 {
		n = 8
	}
	cfg := repro.ScenarioIIRepeatConfig{
		SF:              *sf,
		RepeatPcts:      mustInts(*repeatPcts),
		Clients:         n,
		Duration:        *duration,
		BufferPoolPages: *poolPages,
		Seed:            *seed,
		Workers:         *workers,
	}
	res, err := repro.RunScenarioIIRepeat(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario IIr: %v", err)
	}
	header(fmt.Sprintf("Scenario IIr: query folding & result reuse — SSB, sf=%g, %d clients, disk-resident",
		res.Config.SF, res.Config.Clients))
	fmt.Printf("%-12s", "repeat")
	for _, l := range res.Lines {
		fmt.Printf("%16s", l+" q/s")
	}
	fmt.Printf("%12s%12s%12s\n", "hits", "misses", "grafts")
	for _, pt := range res.Points {
		fmt.Printf("%-12s", fmt.Sprintf("%d%%", pt.RepeatPct))
		for _, l := range res.Lines {
			fmt.Printf("%16.1f", pt.Throughput[l])
		}
		l := workload.LineReuse
		fmt.Printf("%12d%12d%12d\n", pt.CacheHits[l], pt.CacheMisses[l], pt.Grafted[l])
	}
	for _, pt := range res.Points {
		for _, l := range res.Lines {
			jsonRecords = append(jsonRecords, benchRecord{
				Scenario: "2r", Line: l, Axis: "repeat-pct", X: float64(pt.RepeatPct),
				NsPerOp: float64(pt.MeanLatency[l].Nanoseconds()), QPS: pt.Throughput[l],
				CacheHits: pt.CacheHits[l], CacheMisses: pt.CacheMisses[l],
				Grafts: pt.Grafted[l],
			})
		}
	}
	fmt.Println("\nexpected shape: the lines start close at 0% repeats and diverge hard as the")
	fmt.Println("repeat share grows — hot-set templates answer from the materialized result")
	fmt.Println("cache without touching the fact table, and implied concurrent predicates")
	fmt.Println("fold onto running sweeps instead of admitting their own.")
}

func runScenarioIII(ctx context.Context) {
	n := *nclients
	if n == 0 {
		n = 2
	}
	cfg := repro.ScenarioIIIConfig{
		SF:            *sf,
		Selectivities: mustFloats(*selectivity),
		Clients:       n,
		Duration:      *duration,
		Residency:     mustResidency(*residency),
		Seed:          *seed,
		Workers:       *workers,
	}
	res, err := repro.RunScenarioIII(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario III: %v", err)
	}
	header(fmt.Sprintf("Scenario III: impact of selectivity — sf=%g, %d clients, %s",
		res.Config.SF, res.Config.Clients, res.Config.Residency))
	fmt.Printf("%-14s", "selectivity")
	for _, l := range res.Lines {
		fmt.Printf("%16s", l+" q/s")
	}
	fmt.Printf("   | mean latency / CPU\n")
	for _, pt := range res.Points {
		fmt.Printf("%-14.2f", pt.Selectivity)
		for _, l := range res.Lines {
			fmt.Printf("%16.1f", pt.Throughput[l])
		}
		fmt.Printf("   |")
		for _, l := range res.Lines {
			fmt.Printf(" %s=%s/%.2f", shortLine(l), pt.MeanLatency[l].Round(time.Millisecond), pt.CPUUtil[l])
		}
		fmt.Println()
	}
	for _, pt := range res.Points {
		for _, l := range res.Lines {
			jsonRecords = append(jsonRecords, benchRecord{
				Scenario: "3", Line: l, Axis: "selectivity", X: pt.Selectivity,
				NsPerOp: float64(pt.MeanLatency[l].Nanoseconds()), AllocsPerOp: pt.Allocs[l],
				QPS: pt.Throughput[l], CPUUtil: pt.CPUUtil[l],
			})
		}
	}
	fmt.Println("\nexpected shape: at low concurrency the GQP's bitmap bookkeeping keeps it below")
	fmt.Println("query-centric operators across the sweep; the join-template lines sit below their")
	fmt.Println("no-join counterparts (extra supplier join).")
}

func runScenarioIV(ctx context.Context) {
	n := *nclients
	if n == 0 {
		n = 16
	}
	cfg := repro.ScenarioIVConfig{
		SF:              *sf,
		Plans:           mustInts(*plans),
		Clients:         n,
		Template:        mustTemplate(*template),
		Duration:        *duration,
		Residency:       mustResidency(*residency),
		BufferPoolPages: *poolPages,
		Seed:            *seed,
		Workers:         *workers,
	}
	res, err := repro.RunScenarioIV(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario IV: %v", err)
	}
	header(fmt.Sprintf("Scenario IV: impact of similarity — SSB %s, sf=%g, %d clients, batched, %s",
		res.Config.Template, res.Config.SF, res.Config.Clients, res.Config.Residency))
	fmt.Printf("%-10s", "plans")
	for _, l := range res.Lines {
		fmt.Printf("%14s", l+" q/s")
	}
	fmt.Printf("%14s%14s\n", "gqp+sp admits", "cjoin satell.")
	for _, pt := range res.Points {
		fmt.Printf("%-10d", pt.Plans)
		for _, l := range res.Lines {
			fmt.Printf("%14.1f", pt.Throughput[l])
		}
		fmt.Printf("%14d%14d\n", pt.Admitted[workload.LineGQPSP], pt.SPAttachedCJoin[workload.LineGQPSP])
	}
	for _, pt := range res.Points {
		for _, l := range res.Lines {
			jsonRecords = append(jsonRecords, benchRecord{
				Scenario: "4", Line: l, Axis: "plans", X: float64(pt.Plans),
				NsPerOp: float64(pt.MeanLatency[l].Nanoseconds()), AllocsPerOp: pt.Allocs[l],
				QPS: pt.Throughput[l],
			})
		}
	}
	fmt.Println("\nexpected shape: with few distinct plans gqp+sp admits a fraction of the queries")
	fmt.Println("(satellites share the host's CJOIN output) and outperforms plain gqp; the gap")
	fmt.Println("closes as the number of distinct plans grows.")
}

func runScenarioIVPrune(ctx context.Context) {
	n := *nclients
	if n == 0 {
		n = 8
	}
	cfg := repro.ScenarioIVPruneConfig{
		SF:              *sf,
		Selectivities:   mustInts(*pruneSel),
		Clients:         n,
		Duration:        *duration,
		BufferPoolPages: *poolPages,
		Seed:            *seed,
		Workers:         *workers,
	}
	res, err := repro.RunScenarioIVPrune(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario IVp: %v", err)
	}
	header(fmt.Sprintf("Scenario IVp: zone-map pruning — date-clustered SSB, sf=%g, %d clients, disk-resident",
		res.Config.SF, res.Config.Clients))
	fmt.Printf("%-14s", "selectivity")
	for _, l := range res.Lines {
		fmt.Printf("%14s", l+" q/s")
	}
	fmt.Printf("%12s%12s%12s%12s\n", "fetched", "pruned", "cj pruned", "zone skips")
	for _, pt := range res.Points {
		fmt.Printf("%-14s", fmt.Sprintf("%d%%", pt.Selectivity))
		for _, l := range res.Lines {
			fmt.Printf("%14.1f", pt.Throughput[l])
		}
		l := workload.LinePrune
		fmt.Printf("%12d%12d%12d%12d\n",
			pt.PagesFetched[l], pt.PagesPruned[l], pt.CJoinPruned[l], pt.ZoneSkips[l])
	}
	for _, pt := range res.Points {
		for _, l := range res.Lines {
			jsonRecords = append(jsonRecords, benchRecord{
				Scenario: "4p", Line: l, Axis: "date-selectivity", X: float64(pt.Selectivity),
				NsPerOp: float64(pt.MeanLatency[l].Nanoseconds()), QPS: pt.Throughput[l],
				PagesFetched: pt.PagesFetched[l], PagesPruned: pt.PagesPruned[l],
				PagesDecoded: pt.PagesDecoded[l], CJoinPruned: pt.CJoinPruned[l],
				ZoneSkips: pt.ZoneSkips[l],
			})
		}
	}
	fmt.Println("\nexpected shape: at low selectivity the prune line wins big — zone maps prove")
	fmt.Println("most date-clustered pages irrelevant before they are fetched — and the lines")
	fmt.Println("converge at 100% selectivity where nothing can be pruned.")
}

func runScenarioV(ctx context.Context) {
	cfg := repro.ScenarioVConfig{
		SF:              *sf,
		LoadMultipliers: mustFloats(*loadMults),
		Duration:        *duration,
		Seed:            *seed,
		Workers:         *workers,
	}
	res, err := repro.RunScenarioV(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario V: %v", err)
	}
	header(fmt.Sprintf("Scenario V: overload behavior — sf=%g, capacity %.1f q/s (closed-loop, %d+%d slots)",
		res.Config.SF, res.CapacityPerSec, res.Config.ShortSlots, res.Config.LongSlots))
	fmt.Printf("%-10s%12s%12s%10s%10s%10s%12s%12s%12s%12s\n",
		"load", "offered q/s", "goodput q/s", "done", "shed-ol", "shed-wm",
		"short p50", "short p99", "long p50", "long p99")
	for _, pt := range res.Points {
		fmt.Printf("%-10s%12.1f%12.1f%10d%10d%10d%12s%12s%12s%12s\n",
			fmt.Sprintf("%.1fx", pt.Multiplier), pt.OfferedPerSec, pt.Goodput,
			pt.Completed, pt.ShedOverload, pt.ShedWouldMiss,
			pt.ShortP50.Round(time.Microsecond), pt.ShortP99.Round(time.Microsecond),
			pt.LongP50.Round(time.Microsecond), pt.LongP99.Round(time.Microsecond))
		jsonRecords = append(jsonRecords, benchRecord{
			Scenario: "5", Line: "gateway", Axis: "load-multiplier", X: pt.Multiplier,
			QPS: pt.Goodput, Goodput: pt.Goodput, OfferedQPS: pt.OfferedPerSec,
			ShedOverload: pt.ShedOverload, ShedWouldMiss: pt.ShedWouldMiss,
			FailedTyped: pt.FailedTyped, UntypedErrors: pt.Untyped,
			NsQueued: pt.NsQueued, NsSweep: pt.NsSweep, NsDeliver: pt.NsDeliver,
			ShortP50Ns: pt.ShortP50.Nanoseconds(), ShortP99Ns: pt.ShortP99.Nanoseconds(),
			LongP50Ns: pt.LongP50.Nanoseconds(), LongP99Ns: pt.LongP99.Nanoseconds(),
		})
	}
	fmt.Println("\nexpected shape: goodput rises with offered load until capacity, then holds")
	fmt.Println("(the admission tier sheds the excess with typed errors, or CJOIN folding")
	fmt.Println("absorbs it) instead of collapsing; the short class's p99 stays bounded at")
	fmt.Println("every multiplier because short scans never queue behind full-table sweeps.")
}

func runScenarioF(ctx context.Context) {
	n := *nclients
	if n == 0 {
		n = 8
	}
	cfg := repro.ScenarioFConfig{
		SF:              *sf,
		FaultRates:      mustFloats(*faultRates),
		Clients:         n,
		Duration:        *duration,
		BufferPoolPages: *poolPages,
		Seed:            *seed,
		Workers:         *workers,
	}
	res, err := repro.RunScenarioF(ctx, cfg)
	if err != nil {
		log.Fatalf("scenario F: %v", err)
	}
	header(fmt.Sprintf("Scenario F: fault isolation — date-clustered SSB, sf=%g, %d clients, disk-resident",
		res.Config.SF, res.Config.Clients))
	fmt.Printf("%-12s%14s%10s%10s%10s%14s%10s%12s\n",
		"fault rate", "goodput q/s", "ok", "failed", "untyped", "quarantined", "retries", "inj. reads")
	for _, pt := range res.Points {
		fmt.Printf("%-12s%14.1f%10d%10d%10d%14d%10d%12d\n",
			fmt.Sprintf("%.2f", pt.FaultRate), pt.Goodput, pt.Succeeded,
			pt.FailedTyped, pt.UntypedErrors, pt.PagesQuarantined, pt.Retries,
			pt.InjectedReads)
		jsonRecords = append(jsonRecords, benchRecord{
			Scenario: "f", Line: "contained", Axis: "fault-rate", X: pt.FaultRate,
			NsPerOp: float64(pt.MeanLatency.Nanoseconds()), QPS: pt.Goodput,
			Goodput: pt.Goodput, FailedTyped: pt.FailedTyped,
			UntypedErrors: pt.UntypedErrors, Quarantined: pt.PagesQuarantined,
			Retries: pt.Retries, InjectedReads: pt.InjectedReads,
		})
	}
	fmt.Println("\nexpected shape: goodput degrades roughly in proportion to the poisoned page")
	fmt.Println("fraction — only queries whose date windows cover a quarantined page fail, each")
	fmt.Println("with a typed error — and the untyped column stays at zero (the containment")
	fmt.Println("invariant: every query ends in complete results or a typed fault).")
}
