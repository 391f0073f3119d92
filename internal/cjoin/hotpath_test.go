package cjoin

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// bareOp builds an operator shell sufficient for driving the worker
// annotate path and dimension probe path directly, without starting the
// pipeline goroutines.
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
	}
	return op
}

// newDimStateFor builds one worker replica over a freshly built shared
// probe index.
func newDimStateFor(t testing.TB, idx int, spec DimSpec, op *Operator) *dimState {
	t.Helper()
	tab, err := newDimTable(idx, spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := newDimState(tab, op)
	return &ds
}

// refLookup replicates the seed's chained-map probe: first entry in
// insertion order whose key equals k.
type refLookup struct {
	chains map[uint64][]int
	keys   []types.Datum
}

func newRefLookup(tab *dimTable) *refLookup {
	const seed uint64 = 14695981039346656037
	keys := make([]types.Datum, tab.kv.Len())
	for i := range keys {
		keys[i] = tab.kv.Datum(i)
	}
	r := &refLookup{chains: make(map[uint64][]int), keys: keys}
	for i, k := range keys {
		h := k.Hash(seed)
		r.chains[h] = append(r.chains[h], i)
	}
	return r
}

func (r *refLookup) lookup(k types.Datum) int {
	const seed uint64 = 14695981039346656037
	for _, i := range r.chains[k.Hash(seed)] {
		if r.keys[i].Equal(k) {
			return i
		}
	}
	return -1
}

// TestOpenAddressingMatchesChainedMap checks the open-addressing dimension
// table against the seed's chained-map semantics: same entry for every
// present key (first-match on duplicates), miss for every absent key —
// for integer and string keys alike.
func TestOpenAddressingMatchesChainedMap(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64, true)
	dim, err := cat.CreateTable("d", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate keys (every 7th repeats) and a NULL key that must be skipped.
	for i := 0; i < 200; i++ {
		key := types.NewString(fmt.Sprintf("key-%d", i%140))
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
	ref := newRefLookup(tab)

	for i := 0; i < 160; i++ {
		k := types.NewString(fmt.Sprintf("key-%d", i)) // 140..159 are misses
		got, want := tab.lookup(k), ref.lookup(k)
		if got != want {
			t.Errorf("lookup(%v) = %d, want %d", k, got, want)
		}
	}
	if got := tab.lookup(types.NewInt(5)); got != ref.lookup(types.NewInt(5)) {
		t.Errorf("cross-kind lookup mismatch: %d", got)
	}

	// Integer keys through the multiply-shift fast path.
	cat2 := starDB(t, 500)
	tab2, err := newDimTable(0, DimSpec{Table: cat2.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0})
	if err != nil {
		t.Fatal(err)
	}
	ref2 := newRefLookup(tab2)
	for i := -5; i < 30; i++ {
		k := types.NewInt(int64(i))
		if got, want := tab2.lookup(k), ref2.lookup(k); got != want {
			t.Errorf("int lookup(%d) = %d, want %d", i, got, want)
		}
		// Integral floats must find the same entry as their int counterpart.
		f := types.NewFloat(float64(i))
		if got, want := tab2.lookup(f), ref2.lookup(f); got != want {
			t.Errorf("float lookup(%v) = %d, want %d", f, got, want)
		}
	}
}

// bareWorker builds a worker shell sufficient for driving annotate without
// starting the pipeline (its dim states stay zero-valued; annotate only
// reads their count).
func bareWorker(op *Operator) *worker {
	return &worker{op: op, dims: make([]dimState, len(op.specs))}
}

// annotatedItem builds a warmed item holding one annotated fact page.
func annotatedItem(t testing.TB, op *Operator, w *worker, subs []*subscription) *item {
	t.Helper()
	cb, err := op.fact.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	it := &item{cols: cb}
	w.annotate(it, subs, len(subs))
	if it.n == 0 {
		t.Fatal("annotate kept no tuples")
	}
	return it
}

func testSubs(t testing.TB, op *Operator, cat *storage.Catalog) []*subscription {
	t.Helper()
	subs := make([]*subscription, 0, 2)
	for i, q := range []*plan.StarQuery{
		asiaEuropeQuery(cat, 3, 20),
		asiaEuropeQuery(cat, 2, 50),
	} {
		sub, err := op.newSubscription(q)
		if err != nil {
			t.Fatal(err)
		}
		sub.id = i
		subs = append(subs, sub)
	}
	return subs
}

// TestAnnotateZeroAllocs locks in the preprocessor's steady-state allocation
// profile: once the item arenas are warm, annotating a page allocates
// nothing.
func TestAnnotateZeroAllocs(t *testing.T) {
	cat := starDB(t, 4000)
	op := bareOp(t, cat)
	w := bareWorker(op)
	subs := testSubs(t, op, cat)
	it := annotatedItem(t, op, w, subs) // warm-up

	allocs := testing.AllocsPerRun(100, func() {
		w.annotate(it, subs, len(subs))
	})
	if allocs != 0 {
		t.Errorf("annotate allocates %v objects per page in steady state, want 0", allocs)
	}
}

// TestProbePathZeroAllocs locks in the join-stage steady state: probing and
// compacting a full page of tuples allocates nothing.
func TestProbePathZeroAllocs(t *testing.T) {
	cat := starDB(t, 4000)
	op := bareOp(t, cat)
	w := bareWorker(op)
	subs := testSubs(t, op, cat)
	master := annotatedItem(t, op, w, subs)

	st := newDimStateFor(t, 0, op.specs[0], op)
	for _, sub := range subs {
		st.admitQuery(sub)
	}
	work := &item{cols: master.cols}
	reload := func() {
		// Mirror annotate: arenas are sized for the page's rows (dims is
		// indexed by page row), live count set after.
		work.ensure(master.cols.Len(), master.stride, master.ndims)
		copy(work.rowIdx, master.rowIdx[:master.n])
		copy(work.words, master.words[:master.n*master.stride])
		work.n = master.n
	}
	reload()
	st.processTuples(work) // warm-up

	allocs := testing.AllocsPerRun(100, func() {
		reload()
		st.processTuples(work)
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
	subs := testSubs(b, op, cat)
	master := annotatedItem(b, op, w, subs)

	st := newDimStateFor(b, 0, op.specs[0], op)
	for _, sub := range subs {
		st.admitQuery(sub)
	}
	work := &item{cols: master.cols}
	work.ensure(master.cols.Len(), master.stride, master.ndims)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.rowIdx[:master.n], master.rowIdx)
		copy(work.words[:master.n*master.stride], master.words)
		work.n = master.n
		st.processTuples(work)
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
	subs := testSubs(b, op, cat)
	it := annotatedItem(b, op, w, subs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.annotate(it, subs, len(subs))
	}
	b.ReportMetric(float64(it.cols.Len()), "tuples/op")
}
