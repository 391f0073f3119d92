package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// BenchmarkGroupedAggregate measures the per-tuple cost of the grouped
// aggregation paths on the Scenario III shape (SUM(int) grouped by a
// low-cardinality key) and on a two-key variant with a dictionary-coded
// string key:
//
//   - line=rows: every key and argument evaluated by expr.CompileNum's
//     row-by-row fallback (each row read into a scratch row and Eval'd),
//     then the same column folds.
//   - line=cols: plain column keys and argument, read in place.
//   - line=cols-arith: the same with an arithmetic argument, SUM(v*g) — the
//     SSB Q1.x / Q4.x shape, evaluated by the expr.CompileNum kernel.
//
// ns/tuple is the comparison metric (the final numbers of the retired
// pre-groupTable map baseline are in CHANGES.md, PR 15). The perf-smoke CI job
// gates line=cols allocs/op, and line=cols-arith under the same budget (a per-batch budget —
// the vectorized path allocates only while the table and scratch warm up,
// nothing per row; an argument that fell back to boxed rows would allocate
// one per row).
func BenchmarkGroupedAggregate(b *testing.B) {
	const nrows, nbatches = 1024, 32
	shapes := []struct {
		name   string
		styles []colStyle
		groups []int
	}{
		{"keys=int", []colStyle{styleInt, styleInt}, []int{0}},
		{"keys=int+dict", []colStyle{styleInt, styleDict, styleInt}, []int{0, 1}},
	}
	for _, shape := range shapes {
		valCol := len(shape.styles) - 1
		aggs := []plan.AggSpec{{Func: plan.AggSum, Arg: expr.C(valCol, "v"), Name: "s"}}
		groupBy := make([]plan.GroupCol, len(shape.groups))
		for i, g := range shape.groups {
			groupBy[i] = plan.GroupCol{Name: fmt.Sprintf("g%d", i), Kind: types.KindInt, Expr: expr.C(g, "g")}
		}
		node := plan.NewAggregate(nil, groupBy, aggs)
		arithNode := plan.NewAggregate(nil, groupBy, []plan.AggSpec{{Func: plan.AggSum,
			Arg: expr.NewArith(expr.Mul, expr.C(valCol, "v"), expr.C(0, "g")), Name: "s"}})

		// One shared data set; fresh batch shells per iteration are built
		// outside the timer.
		r := rand.New(rand.NewSource(11))
		cbs := make([]*vec.ColBatch, nbatches)
		for i := range cbs {
			cbs[i] = buildRandomBatch(r, nrows, len(shape.styles), shape.styles)
		}
		tuples := float64(nrows * nbatches)

		mkColBatches := func() []*batch.Batch {
			out := make([]*batch.Batch, nbatches)
			for i := range out {
				cbs[i].Retain()
				out[i] = batch.FromView(cbs[i], nil)
			}
			return out
		}

		for _, line := range []struct {
			name string
			node *plan.Aggregate
		}{{"rows", rowPath(node)}, {"cols", node}, {"cols-arith", arithNode}} {
			line := line
			b.Run(fmt.Sprintf("line=%s/%s", line.name, shape.name), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					in := mkColBatches()
					b.StartTimer()
					runAggregate(b, line.node, in)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples/float64(b.N), "ns/tuple")
			})
		}
	}
}
