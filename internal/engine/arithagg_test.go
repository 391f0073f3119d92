package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/vec"
)

// discardWriter consumes batches without looking at them.
type discardWriter struct{ batches, rows int }

func (w *discardWriter) Put(ctx context.Context, b *batch.Batch) error {
	w.batches++
	w.rows += b.Len()
	b.Done()
	return nil
}

func (w *discardWriter) Close(err error) {}

// Output batches are reserved for exactly the rows they carry: a filter that
// republishes views fills no batch of its own, and an aggregate that emits
// one group fills a one-row pooled batch. Pinned as allocation counts per run
// and, because the defect was a BatchSize row slice per emitter (~24 KB), as
// bytes.
func TestEmitterConstantAllocs(t *testing.T) {
	const nbatches, nrows = 8, 64
	r := rand.New(rand.NewSource(21))
	cbs := make([]*vec.ColBatch, nbatches)
	for i := range cbs {
		cbs[i] = buildRandomBatch(r, nrows, 2, []colStyle{styleInt, styleInt})
		defer cbs[i].Release()
	}
	views := func() []*batch.Batch {
		out := make([]*batch.Batch, nbatches)
		for i, cb := range cbs {
			cb.Retain()
			out[i] = batch.FromView(cb, nil)
		}
		return out
	}
	e := &Engine{cfg: (&Config{}).withDefaults()}
	ctx := context.Background()
	rowSlice := int64(e.cfg.BatchSize) * 24 // the BatchSize row slice emitters used to allocate

	filter := plan.NewFilter(nil, expr.NewCmp(expr.LT, expr.C(0, "a"), expr.Int(4)))
	runFilter := func() {
		w := &discardWriter{}
		if err := e.opFilter(ctx, filter, &sliceReader{batches: views()}, w, newStage(plan.KindFilter, false)); err != nil {
			t.Fatal(err)
		}
		if w.batches != nbatches {
			t.Fatalf("filter republished %d views, want %d", w.batches, nbatches)
		}
	}
	agg := plan.NewAggregate(nil, nil, []plan.AggSpec{
		{Func: plan.AggSum, Arg: expr.NewArith(expr.Mul, expr.C(0, "a"), expr.C(1, "b")), Name: "s"}})
	runAgg := func() {
		w := &discardWriter{}
		if err := e.opAggregate(ctx, agg, &sliceReader{batches: views()}, w, newStage(plan.KindAggregate, false)); err != nil {
			t.Fatal(err)
		}
		if w.batches != 1 || w.rows != 1 {
			t.Fatalf("aggregate emitted %d batches / %d rows, want 1 / 1", w.batches, w.rows)
		}
	}
	for _, tc := range []struct {
		name      string
		run       func()
		maxAllocs float64 // measured: filter 35 (4 per view + the compiled predicates), aggregate 33
		maxBytes  int64
	}{
		// Per view: the shell and its view going in, the selection, the shell
		// and its view going out; no row slice at all.
		{"filter over views", runFilter, 6*nbatches + 16, rowSlice / 2},
		// One one-row output batch, one group.
		{"one-group aggregate", runAgg, 2*nbatches + 32, rowSlice / 4},
	} {
		tc.run() // warm the batch pool
		if allocs := testing.AllocsPerRun(20, tc.run); allocs > tc.maxAllocs {
			t.Errorf("%s: %v allocs per run, want <= %v", tc.name, allocs, tc.maxAllocs)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.run()
			}
		})
		if got := res.AllocedBytesPerOp(); got > tc.maxBytes {
			t.Errorf("%s: %d B per run, want <= %d (a BatchSize row slice is %d B)",
				tc.name, got, tc.maxBytes, rowSlice)
		}
	}
}

// findAggregate returns the first Aggregate on the plan's leftmost spine.
func findAggregate(t *testing.T, n plan.Node) *plan.Aggregate {
	t.Helper()
	for n != nil {
		if a, ok := n.(*plan.Aggregate); ok {
			return a
		}
		if len(n.Children()) == 0 {
			break
		}
		n = n.Children()[0]
	}
	t.Fatal("plan has no aggregate")
	return nil
}

// TestAggregateArithStaysColumnar: the aggregates of SSB Q1.1 and Q4.1 and of
// TPC-H Q1 — the real plan nodes, over their real inputs repacked as view
// batches — allocate per batch and per group rather than per row (a fallback
// to RowsView allocates one row per tuple and breaks the bound some 250×), and
// equal the row path over the same data: as written, and with sum / avg / min / max /
// count over the arithmetic argument, grouped as written and global.
func TestAggregateArithStaysColumnar(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 1<<12)
	db, err := ssb.Generate(cat, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	lineitem, err := tpch.Generate(cat, 0.005, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	e := New(cat, Config{})
	ctx := context.Background()
	const batchRows = 128

	for _, tc := range []struct {
		name string
		plan plan.Node
	}{
		{"Q1.1", ssb.Instantiate(db, ssb.Q1_1, r).Plan(false)},
		{"Q4.1", ssb.Instantiate(db, ssb.Q4_1, r).Plan(false)},
		{"TPC-H Q1", tpch.Q1Plan(lineitem, 90)},
	} {
		node := findAggregate(t, tc.plan)
		in, err := e.Execute(ctx, node.Input)
		if err != nil {
			t.Fatalf("%s: input: %v", tc.name, err)
		}
		if len(in.Rows) < 4*batchRows {
			t.Fatalf("%s: only %d input rows", tc.name, len(in.Rows))
		}
		ncols := node.Input.Schema().Len()
		var arith expr.Expr
		for _, spec := range node.Aggs {
			if a, ok := spec.Arg.(expr.Arith); ok {
				arith = a
				break
			}
		}
		if arith == nil {
			t.Fatalf("%s: no arithmetic argument", tc.name)
		}
		allFuncs := []plan.AggSpec{
			{Func: plan.AggSum, Arg: arith, Name: "sum"}, {Func: plan.AggAvg, Arg: arith, Name: "avg"},
			{Func: plan.AggMin, Arg: arith, Name: "min"}, {Func: plan.AggMax, Arg: arith, Name: "max"},
			{Func: plan.AggCount, Arg: arith, Name: "count"},
		}
		variants := []*plan.Aggregate{
			node,
			plan.NewAggregate(node.Input, node.GroupBy, allFuncs),
			plan.NewAggregate(node.Input, nil, allFuncs),
		}

		base := vec.LiveBatches()
		var cbs []*vec.ColBatch
		for lo := 0; lo < len(in.Rows); lo += batchRows {
			cb := vec.Get(ncols)
			for _, row := range in.Rows[lo:min(lo+batchRows, len(in.Rows))] {
				cb.AppendRow(row)
			}
			cb.Seal(cb.Col(0).Len())
			cbs = append(cbs, cb)
		}
		views := func() []*batch.Batch {
			out := make([]*batch.Batch, len(cbs))
			for i, cb := range cbs {
				cb.Retain()
				var sel []int32
				if i%2 == 1 { // a narrowed selection: every row but the first
					sel = cb.AllSel()[1:]
				}
				out[i] = batch.FromView(cb, sel)
			}
			return out
		}
		rowBatches := func() []*batch.Batch {
			out := make([]*batch.Batch, len(cbs))
			for i := range cbs {
				lo := i * batchRows
				if i%2 == 1 {
					lo++
				}
				out[i] = batch.Of(in.Rows[lo:min((i+1)*batchRows, len(in.Rows))]...)
			}
			return out
		}
		for vi, v := range variants {
			got := runAggregate(t, v, views())
			want := canonical(runAggregate(t, rowPath(v), rowBatches()))
			if g := canonical(got); len(g) != len(want) {
				t.Fatalf("%s variant %d: %d groups columnar, %d by rows", tc.name, vi, len(g), len(want))
			} else {
				for i := range g {
					if g[i] != want[i] {
						t.Fatalf("%s variant %d group %d:\ncols: %s\nrows: %s", tc.name, vi, i, g[i], want[i])
					}
				}
			}
			// Per batch: the view shells built here (2 each) and nothing in
			// the operator once its scratch is warm; per group: the key and
			// the output row; per aggregate: its kernel and scratch vectors.
			budget := float64(4*len(cbs) + 4*len(got) + 32*len(v.Aggs) + 64)
			allocs := testing.AllocsPerRun(5, func() { runAggregate(t, v, views()) })
			if allocs > budget {
				t.Errorf("%s variant %d: %v allocs over %d batches / %d rows / %d groups, want <= %v (per batch, not per row)",
					tc.name, vi, allocs, len(cbs), len(in.Rows), len(got), budget)
			}
		}
		for _, cb := range cbs {
			cb.Release()
		}
		if live := vec.LiveBatches(); live != base {
			t.Errorf("%s: LiveBatches = %d, want baseline %d", tc.name, live, base)
		}
	}
}
