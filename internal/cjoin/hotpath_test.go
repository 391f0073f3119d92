package cjoin

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// bareOp builds an operator shell, its two dimension tables included,
// sufficient for driving admission, the worker annotate path and the
// dimension probe path directly, without starting the pipeline goroutines.
func bareOp(t testing.TB, cat *storage.Catalog) *Operator {
	t.Helper()
	cfg, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	op := &Operator{
		fact: cat.MustTable("lo"),
		specs: []DimSpec{
			{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
			{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
		},
		byName: map[string]int{"cust": 0, "part": 1},
		cfg:    cfg,
		open:   make(map[*subscription]struct{}),
	}
	for i, spec := range op.specs {
		tab, err := newDimTable(i, spec)
		if err != nil {
			t.Fatal(err)
		}
		op.tables = append(op.tables, tab)
	}
	t.Cleanup(func() { releaseTables(op.tables) })
	return op
}

// TestOpenAddressingMatchesChainedMap checks CJOIN's dimension index
// through the operator's own build path (pages in, NULL keys left out, every
// column kept) on sparse integer keys, which take the hashed slots: every
// present key finds its entry, every absent key misses, integral floats find
// their integer counterparts and strings match nothing — against a linear
// scan with Datum.Equal.
func TestOpenAddressingMatchesChainedMap(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64)
	dim, err := cat.CreateTable("d", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := types.NewInt(int64(i) * 1_000_003)
		if i == 13 {
			key = types.Null
		}
		if err := dim.File.Append(types.Row{key, types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dim.File.Seal(); err != nil {
		t.Fatal(err)
	}
	tab, err := newDimTable(0, DimSpec{Table: dim, FactKeyCol: 0, DimKeyCol: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.tab.Release()
	if n := tab.cb.Len(); n != 199 {
		t.Fatalf("dimension holds %d entries, want 199 (the NULL key left out)", n)
	}
	keys := tab.cb.Col(0)
	scan := func(k types.Datum) int32 {
		for e := 0; e < keys.Len(); e++ {
			if keys.Datum(e).Equal(k) {
				return int32(e)
			}
		}
		return -1
	}
	for i := int64(-2); i < 220; i++ {
		for _, k := range []types.Datum{
			types.NewInt(i * 1_000_003), types.NewFloat(float64(i * 1_000_003)),
			types.NewInt(i), types.NewString(fmt.Sprint(i * 1_000_003)),
		} {
			var probe vec.Vec
			probe.AppendDatum(k)
			if got, want := tab.tab.Find(&probe, 0), scan(k); got != want {
				t.Errorf("Find(%v) = %d, want %d", k, got, want)
			}
		}
	}
}

// bareWorker builds a worker shell sufficient for driving annotate and the
// probe without starting the pipeline.
func bareWorker(op *Operator) *worker { return &worker{op: op} }

// annotatedItem builds a warmed item holding one fact page annotated under
// view v.
func annotatedItem(t testing.TB, op *Operator, w *worker, v *slotView) *item {
	t.Helper()
	cb, err := op.fact.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	it := &item{cols: cb, view: v}
	w.annotate(it)
	if it.n == 0 {
		t.Fatal("annotate kept no tuples")
	}
	return it
}

// testSlots admits two queries on slots 0 and 1 through the scanner's
// admission, without starting the pipeline, and returns the slot view the
// next admission tick would publish.
func testSlots(t testing.TB, op *Operator, cat *storage.Catalog) *slotView {
	t.Helper()
	s := &scanner{op: op}
	for _, q := range []*plan.StarQuery{
		asiaEuropeQuery(cat, 3, 20),
		asiaEuropeQuery(cat, 2, 50),
	} {
		sub, err := op.newSubscription(q)
		if err != nil {
			t.Fatal(err)
		}
		s.admit(sub)
	}
	return newView(op.tables, s.active, s.slots)
}

// TestAnnotateZeroAllocs locks in the preprocessor's steady-state allocation
// profile: once the item arenas are warm, annotating a page allocates
// nothing.
func TestAnnotateZeroAllocs(t *testing.T) {
	cat := starDB(t, 4000)
	op := bareOp(t, cat)
	w := bareWorker(op)
	it := annotatedItem(t, op, w, testSlots(t, op, cat)) // warm-up

	allocs := testing.AllocsPerRun(100, func() {
		w.annotate(it)
	})
	if allocs != 0 {
		t.Errorf("annotate allocates %v objects per page in steady state, want 0", allocs)
	}
}

// TestProbePathZeroAllocs locks in the join-stage steady state: probing and
// compacting a full page of tuples, and resolving its survivors' entries,
// allocates nothing.
func TestProbePathZeroAllocs(t *testing.T) {
	cat := starDB(t, 4000)
	op := bareOp(t, cat)
	w := bareWorker(op)
	v := testSlots(t, op, cat)
	master := annotatedItem(t, op, w, v)

	work := &item{cols: master.cols, view: v}
	reload := func() {
		// Mirror annotate: the per-row arrays are sized for the page's
		// rows, live count set after.
		work.ensure(master.cols.Len(), master.stride, master.ndims)
		copy(work.rowIdx, master.rowIdx[:master.n])
		copy(work.words, master.words[:master.n*master.stride])
		work.n = master.n
	}
	reload()
	w.probe(work, op.tables[0], &v.dims[0]) // warm-up
	w.resolve(work)

	allocs := testing.AllocsPerRun(100, func() {
		reload()
		w.probe(work, op.tables[0], &v.dims[0])
		w.resolve(work)
	})
	if allocs != 0 {
		t.Errorf("probe path allocates %v objects per page in steady state, want 0", allocs)
	}
}

// TestCompiledPredsMatchInterpretedInPipeline runs the same star queries with
// compiled predicates (the only mode) against the naive interpreted
// reference, exercising fact and dimension predicates end to end.
func TestCompiledPredsMatchInterpretedInPipeline(t *testing.T) {
	cat := starDB(t, 2500)
	op := newOp(t, cat)
	for _, q := range []*plan.StarQuery{
		asiaEuropeQuery(cat, 3, 20),
		{
			Fact:     cat.MustTable("lo"),
			FactPred: expr.NewBetween(expr.C(0, "lo_id"), expr.Int(100), expr.Int(900)),
			FactCols: []int{0, 3},
			Dims: []plan.DimJoin{{
				Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0,
				Pred:        expr.NewCmp(expr.NE, expr.C(1, "region"), expr.Str("ASIA")),
				PayloadCols: []int{1},
			}},
		},
	} {
		mustEqualRows(t, runStar(t, op, q), evalStarNaive(t, q))
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the two steady-state hot loops. Both must report
// 0 allocs/op.

// BenchmarkCJoinProbe measures the shared hash-join probe path: one fact
// page probed through one dimension stage, including bitmap folding and
// in-place compaction.
func BenchmarkCJoinProbe(b *testing.B) {
	cat := starDB(b, 4000)
	op := bareOp(b, cat)
	w := bareWorker(op)
	v := testSlots(b, op, cat)
	master := annotatedItem(b, op, w, v)

	work := &item{cols: master.cols, view: v}
	work.ensure(master.cols.Len(), master.stride, master.ndims)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.rowIdx[:master.n], master.rowIdx)
		copy(work.words[:master.n*master.stride], master.words)
		work.n = master.n
		w.probe(work, op.tables[0], &v.dims[0])
	}
	b.ReportMetric(float64(master.n), "tuples/op")
}

// BenchmarkPreprocessAnnotate measures the preprocessor's per-page work:
// evaluating every active query's vectorized fact predicate against the
// page's column batch and writing the inline bitmaps.
func BenchmarkPreprocessAnnotate(b *testing.B) {
	cat := starDB(b, 4000)
	op := bareOp(b, cat)
	w := bareWorker(op)
	it := annotatedItem(b, op, w, testSlots(b, op, cat))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.annotate(it)
	}
	b.ReportMetric(float64(it.cols.Len()), "tuples/op")
}
