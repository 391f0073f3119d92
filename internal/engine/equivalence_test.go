package engine

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// randomPlan draws a plan from a small family so that batches contain a mix
// of identical and distinct sub-plans: filters (with or without projection),
// joins, grouped and global aggregations, sorts and limits.
func randomPlan(cat *storage.Catalog, r *rand.Rand) plan.Node {
	sales := cat.MustTable("sales")
	dept := cat.MustTable("dept")
	pred := expr.NewCmp(expr.LT, expr.C(1, "dept"), expr.Int(int64(1+r.Intn(5))))
	var n plan.Node
	switch r.Intn(5) {
	case 0:
		n = plan.NewFilter(plan.NewScan(sales), pred)
	case 1:
		n = plan.NewHashJoin(plan.NewFilter(plan.NewScan(sales), pred), plan.NewScan(dept), 1, 0)
	case 2:
		n = plan.NewAggregate(plan.NewFilter(plan.NewScan(sales), pred),
			[]plan.GroupCol{{Name: "dept", Kind: types.KindInt, Expr: expr.C(1, "dept")}},
			[]plan.AggSpec{{Func: plan.AggSum, Arg: expr.C(2, "amount"), Name: "total"}})
	case 3:
		n = plan.NewSort(plan.NewFilter(plan.NewScan(sales), pred), []plan.SortKey{{Col: 0}})
	default:
		n = plan.NewLimit(plan.NewSort(plan.NewFilter(plan.NewScan(sales), pred),
			[]plan.SortKey{{Col: 0}}), 25+r.Intn(100))
	}
	return n
}

// mustEqualRowsApprox compares row multisets, tolerating the float-summation
// reordering that circular scans legitimately introduce (queries attach at
// different scan offsets, so aggregates accumulate in different orders).
func mustEqualRowsApprox(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	key := func(r types.Row) string {
		out := make(types.Row, len(r))
		for i, d := range r {
			if d.K == types.KindFloat {
				// Quantize to 9 significant-ish digits for matching.
				out[i] = types.NewString(trimFloat(d.F))
			} else {
				out[i] = d
			}
		}
		return out.String()
	}
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range got {
		g[i] = key(got[i])
		w[i] = key(want[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d:\n got  %s\n want %s", i, g[i], w[i])
		}
	}
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'e', 8, 64) }

// The central correctness invariant of Simultaneous Pipelining: enabling
// sharing (in either model) must never change any query's result. Random
// batches mixing identical and distinct plans are executed with SP off,
// push-SP and pull-SP, and every query's result must agree across modes.
func TestSPEquivalenceProperty(t *testing.T) {
	cat := testDB(t, 80000)
	// Deeper than the engine's lists, so both models run under backpressure.
	mustOutgrowLists(t, cat, fifoDepth)
	ctx := context.Background()
	for round := 0; round < 6; round++ {
		r := rand.New(rand.NewSource(int64(round) * 101))
		// Build a batch with deliberate duplicates.
		var roots []plan.Node
		for i := 0; i < 4; i++ {
			p := randomPlan(cat, r)
			roots = append(roots, p)
			if r.Intn(2) == 0 {
				// An identical plan: reuse p, which shares the node;
				// dispatch treats each root independently.
				roots = append(roots, p)
			}
		}
		baselineEngine := newTestEngine(cat, Config{})
		baseline, err := baselineEngine.ExecuteBatch(ctx, roots)
		if err != nil {
			t.Fatalf("round %d baseline: %v", round, err)
		}
		for _, model := range []SPModel{SPPush, SPPull} {
			e := newTestEngine(cat, Config{SP: true, Model: model, BatchSize: 64})
			results, err := e.ExecuteBatch(ctx, roots)
			if err != nil {
				t.Fatalf("round %d %v: %v", round, model, err)
			}
			for i := range roots {
				// Limit plans may legitimately pick different rows under
				// different scan orders; compare cardinality only for them.
				if _, isLimit := roots[i].(*plan.Limit); isLimit {
					if len(results[i].Rows) != len(baseline[i].Rows) {
						t.Fatalf("round %d %v query %d: limit cardinality %d != %d",
							round, model, i, len(results[i].Rows), len(baseline[i].Rows))
					}
					continue
				}
				mustEqualRowsApprox(t, results[i].Rows, baseline[i].Rows)
			}
		}
	}
}

// Mixed-strategy sanity: the same queries interleaved in one batch under
// pull-SP over a table deeper than the shared list must complete without
// deadlock and agree with each other.
func TestSPBackpressureNoDeadlock(t *testing.T) {
	cat := testDB(t, 80000)
	mustOutgrowLists(t, cat, fifoDepth)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull, BatchSize: 32})
	ctx := context.Background()
	var roots []plan.Node
	for i := 0; i < 12; i++ {
		roots = append(roots, q1Plan(cat, 3))
	}
	results, err := e.ExecuteBatch(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		mustEqualRows(t, results[i].Rows, results[0].Rows)
	}
	if got := e.StageStatsFor(plan.KindAggregate).SPAttached; got != 11 {
		t.Errorf("attached = %d, want 11", got)
	}
}

// Explain must render every operator the engine can run (smoke-level tie
// between the plan and engine layers).
func TestExplainCoversEngineOperators(t *testing.T) {
	cat := testDB(t, 100)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		p := randomPlan(cat, r)
		if s := plan.Explain(p); len(s) == 0 {
			t.Fatalf("empty explain for %T", p)
		}
	}
}
