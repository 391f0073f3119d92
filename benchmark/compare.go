package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's contract defines a metric's spread.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// issueBounds are the regression bounds that ISSUE 11 fixed for the
// time-based metrics of the window. BENCHMARK.json lists these per layer,
// where metrics carry no bound, because on a shared sandbox they do not
// repeat within them and the driver rejects a benchmark whose own spread
// exceeds a bound. A comparison applies them all the same, and says
// unresolved wherever the spread is wider.
var issueBounds = map[string]float64{"qps": 0.08, "lat_p50_ms": 0.10, "lat_p95_ms": 0.15, "cpu_ms_per_query": 0.08}

// compareFiles applies BENCHMARK.json's bounds, and issueBounds, to two
// result files: b is judged against a. It prints one row per workload and
// metric of the timed window and reports whether any regressed. Every change is given as a share of a's
// median. A metric whose own spread on either side is wider than its bound
// cannot show a change that small and is marked unresolved, not ok; so is a
// p95 taken from fewer than 200 samples.
func compareFiles(out io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	// thin reports whether any of the runs behind values had too few samples
	// for its p95 to mean anything.
	values := func(f *resultFile, workload, name string) (vs []float64, thin bool) {
		for _, r := range f.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				vs = append(vs, m.Value)
				thin = thin || !r.P95Valid
			}
		}
		return vs, thin
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median (n)\tnew median (n)\tchange of base\tbase spread\tnew spread\tbound\tverdict")
	metrics := append([]metricSpec(nil), spec.EndToEnd...)
	for _, m := range spec.PerLayer {
		if b, ok := issueBounds[m.Name]; ok {
			m.Bound = b
			metrics = append(metrics, m)
		}
	}
	for _, w := range spec.Workloads {
		for _, m := range metrics {
			va, thinA := values(&a, w.Name, m.Name)
			vb, thinB := values(&b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%.3g\tmissing\n", w.Name, m.Name, m.Unit, m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			spreadA, spreadB := ratio(a3-a1, ma), ratio(b3-b1, ma)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case m.Name == "lat_p95_ms" && (thinA || thinB):
				verdict = "unresolved (under 200 samples)"
			case max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.2f%%\t%.2f%%\t%.2f%%\t%.1f%%\t%s\n",
				w.Name, m.Name, m.Unit, ma, len(va), mb, len(vb), 100*ratio(mb-ma, ma),
				100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
	}
	return regressed, tw.Flush()
}
