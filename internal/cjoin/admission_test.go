package cjoin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// admissionQueries covers the admission predicate shapes: string equality
// and IN over the dictionary-coded region column, int compares over brand,
// a predicate-free dimension reference, and boolean combinations.
func admissionQueries(cat *storage.Catalog) []*plan.StarQuery {
	lo, cust, part := cat.MustTable("lo"), cat.MustTable("cust"), cat.MustTable("part")
	dim := func(tbl *storage.Table, fk int, pred expr.Expr) plan.DimJoin {
		return plan.DimJoin{Table: tbl, FactKeyCol: fk, DimKeyCol: 0, Pred: pred, PayloadCols: []int{1}}
	}
	return []*plan.StarQuery{
		{Fact: lo, FactCols: []int{0}, Dims: []plan.DimJoin{
			dim(cust, 1, expr.NewCmp(expr.EQ, expr.C(1, "region"), expr.Str("ASIA"))),
		}},
		{Fact: lo, FactCols: []int{0}, Dims: []plan.DimJoin{
			dim(cust, 1, expr.NewIn(expr.C(1, "region"), types.NewString("EUROPE"), types.NewString("AFRICA"))),
			dim(part, 2, expr.NewBetween(expr.C(1, "brand"), expr.Int(3), expr.Int(11))),
		}},
		{Fact: lo, FactCols: []int{0}, Dims: []plan.DimJoin{
			dim(part, 2, nil), // reference without predicate: every entry qualifies
		}},
		{Fact: lo, FactCols: []int{0}, Dims: []plan.DimJoin{
			dim(cust, 1, expr.NewOr(
				expr.NewCmp(expr.EQ, expr.C(1, "region"), expr.Str("AMERICA")),
				expr.NewCmp(expr.GT, expr.C(0, "ck"), expr.Int(6)),
			)),
		}},
		{Fact: lo, FactCols: []int{0}, Dims: []plan.DimJoin{
			dim(cust, 1, expr.NewCmp(expr.EQ, expr.C(1, "region"), expr.Str("NOWHERE"))), // empty admission
		}},
	}
}

// entryBit reports slot id's bit in entry e's bitmap of dimension t.
func entryBit(t *dimTable, e, id int) bool {
	return id/64 < len(t.bits) && t.bits[id/64][e].Load()&(1<<(uint(id)&63)) != 0
}

// TestVectorizedAdmissionMatchesScalar drives the scanner's admission
// (selection vectorized over the dimension table's cached column batch,
// then the slot's bits set in the shared entry bitmaps) against a
// row-at-a-time reference: for every query and every dimension entry, the
// entry bitmap bit must equal the interpreted predicate's verdict. The
// queries take turns on one slot id in the second bitmap word (64 open
// slots fill the first): each retires, and the next admission reuses the
// id, which must clear every bit its last owner set. An id is reused only
// once the distributor has reached its finish tick.
func TestVectorizedAdmissionMatchesScalar(t *testing.T) {
	cat := starDB(t, 500)
	op := bareOp(t, cat)
	s := &scanner{op: op}
	admit := func(q *plan.StarQuery) *subscription {
		t.Helper()
		sub, err := op.newSubscription(q)
		if err != nil {
			t.Fatal(err)
		}
		s.admit(sub)
		return sub
	}
	// retire retires sub; applied reports whether the distributor has
	// applied its finish tick, which hands the slot back.
	retire := func(sub *subscription, applied bool) {
		s.active = slices.DeleteFunc(s.active, func(o *subscription) bool { return o == sub })
		if applied {
			op.handBack(sub)
		}
	}
	noDims := &plan.StarQuery{Fact: cat.MustTable("lo"), FactCols: []int{0}}
	for range 64 {
		admit(noDims)
	}
	const id = 64
	qs := admissionQueries(cat)
	var sub *subscription
	for qi, q := range qs {
		sub = admit(q)
		if sub.id != id {
			t.Fatalf("query %d: slot %d, want %d (the retired slot reused)", qi, sub.id, id)
		}
		for di, tab := range op.tables {
			for e := 0; e < tab.cb.Len(); e++ {
				if tab.bits[0][e].Load() != 0 {
					t.Fatalf("query %d dim %d entry %d: bits set in the first word, which no query filters", qi, di, e)
				}
			}
			if !sub.dimRef[di] {
				for e := 0; e < tab.cb.Len(); e++ {
					if entryBit(tab, e, id) {
						t.Fatalf("query %d dim %d: bit set on unreferenced dimension", qi, di)
					}
				}
				continue
			}
			// Scalar reference: the query's dimension predicate interpreted
			// row-at-a-time by Eval.
			var pred expr.Expr
			for _, d := range q.Dims {
				if op.byName[d.Table.Name] == di && d.Pred != nil {
					pred = d.Pred
				}
			}
			for e, r := range tab.cb.Rows() {
				want := pred == nil || pred.Eval(r).Bool()
				if got := entryBit(tab, e, id); got != want {
					t.Fatalf("query %d dim %d entry %d (%v): admitted=%v, scalar predicate=%v",
						qi, di, e, r, got, want)
				}
			}
		}
		retire(sub, qi < len(qs)-1)
	}
	// The last query's slot is free but its finish tick not yet applied: a
	// new admission takes a fresh id. Once applied, the id is reused and
	// every bit of the retired query cleared.
	last := admit(noDims)
	if last.id != id+1 {
		t.Fatalf("admission before the finish tick was applied took slot %d, want fresh %d", last.id, id+1)
	}
	op.handBack(sub)
	if sub := admit(noDims); sub.id != id {
		t.Fatalf("admission after the finish tick was applied took slot %d, want %d", sub.id, id)
	}
	for di, tab := range op.tables {
		for e := 0; e < tab.cb.Len(); e++ {
			if entryBit(tab, e, id) {
				t.Fatalf("dim %d entry %d: bit survives retirement", di, e)
			}
		}
	}
}

// TestVectorizedAdmissionEndToEnd runs the admission queries through the
// full pipeline against the naive reference, so the vectorized admission
// path is validated by delivered results, not just bitmaps.
func TestVectorizedAdmissionEndToEnd(t *testing.T) {
	cat := starDB(t, 1500)
	op := newOp(t, cat)
	for qi, q := range admissionQueries(cat) {
		mustEqualRows(t, runStar(t, op, q), evalStarNaive(t, q))
		_ = qi
	}
}

// waitAdmitted blocks until the operator has admitted at least n queries.
func waitAdmitted(t *testing.T, op *Operator, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for op.Stats().Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d admissions", n)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// runStarAsync starts a query and returns a handle for its rows.
func runStarAsync(op *Operator, q *plan.StarQuery) func() ([]types.Row, error) {
	var rows []types.Row
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = op.Run(context.Background(), q, func(b *batch.Batch) error {
			rows = append(rows, b.RowsView()...)
			b.Done()
			return nil
		})
	}()
	return func() ([]types.Row, error) {
		<-done
		return rows, err
	}
}

// TestIdenticalQueriesEachOpenABit admits two identical star queries while
// a long query keeps the scanner busy on a slow disk. Each admission opens a
// bitmap slot of its own, so the slot high water rises by two, and both
// results equal the naive evaluator's.
func TestIdenticalQueriesEachOpenABit(t *testing.T) {
	cat := slowStarDB(t, 3000, time.Millisecond)
	op := newOpCfg(t, cat, Config{BatchSize: 64})
	long := &plan.StarQuery{Fact: cat.MustTable("lo"), FactCols: []int{0},
		Dims: []plan.DimJoin{{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0, PayloadCols: []int{1}}}}
	q := asiaEuropeQuery(cat, 3, 20)

	longWait := runStarAsync(op, long)
	waitAdmitted(t, op, 1)
	base := op.Stats().SlotHighWater
	waits := []func() ([]types.Row, error){runStarAsync(op, q), runStarAsync(op, q)}
	want := evalStarNaive(t, q)
	for i, wait := range waits {
		rows, err := wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		mustEqualRows(t, rows, want)
	}
	if _, err := longWait(); err != nil {
		t.Fatalf("long query: %v", err)
	}
	if hw := op.Stats().SlotHighWater; hw != base+2 {
		t.Fatalf("SlotHighWater = %d, want %d: two identical queries must each open a bit", hw, base+2)
	}
}

// ---------------------------------------------------------------------------
// Cold-decode benchmark: pool-miss → decode → annotate.

// rawPages reads the table's pages straight from the disk.
func rawPages(b *testing.B, cat *storage.Catalog, tbl *storage.Table) [][]byte {
	b.Helper()
	np := tbl.File.NumPages()
	pages := make([][]byte, np)
	for i := 0; i < np; i++ {
		l, err := cat.Disk().ReadPage(tbl.File.ID(), i)
		if err != nil {
			b.Fatal(err)
		}
		pages[i] = bytes.Clone(l.Page)
		l.Release()
	}
	return pages
}

// BenchmarkColdDecodeAnnotate measures one full cold sweep of the fact
// table per op: every page is decoded from raw bytes (as on a pool miss)
// and annotated with two active queries' vectorized fact predicates. ns/op
// is per whole table (4000 tuples).
func BenchmarkColdDecodeAnnotate(b *testing.B) {
	cat := starDB(b, 4000)
	op := bareOp(b, cat)
	w := bareWorker(op)
	v := testSlots(b, op, cat)
	ncols := op.fact.Schema.Len()

	pages := rawPages(b, cat, op.fact)
	it := &item{view: v}
	total := 0
	for _, page := range pages {
		cb, err := storage.DecodePageCols(page, ncols)
		if err != nil {
			b.Fatal(err)
		}
		total += cb.Len()
		cb.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, page := range pages {
			cb, err := storage.DecodePageCols(page, ncols)
			if err != nil {
				b.Fatal(err)
			}
			it.cols = cb
			w.annotate(it)
			it.cols = nil
			cb.Release()
		}
	}
	b.ReportMetric(float64(total), "tuples/op")
	b.ReportMetric(float64(len(pages)), "pages/op")
}

// countingPred is a dimension predicate of a shape CompileVec has no kernel
// for, so it runs through the row-at-a-time fallback: every Eval call is
// one entry evaluated. It panics when it wraps no predicate.
type countingPred struct {
	inner expr.Expr
	evals *atomic.Int64
}

func (p countingPred) Eval(row types.Row) types.Datum {
	p.evals.Add(1)
	if p.inner == nil {
		panic("countingPred: no predicate")
	}
	return p.inner.Eval(row)
}

func (p countingPred) Signature() string { return "counting" }

// TestAdmissionEvaluatesOncePerQuery checks that a query's dimension
// predicate is evaluated once per admission, over the dimension's entries,
// whatever the number of probe workers that open its slot, and that the
// rows equal the naive evaluator's. A dimension predicate that panics fails
// only its query, with a *PanicError, and the healthy query that then
// reuses its slot id returns exact rows: no bit of the failed slot
// survives.
func TestAdmissionEvaluatesOncePerQuery(t *testing.T) {
	cat := starDB(t, 3000)
	withCustPred := func(pred expr.Expr) *plan.StarQuery {
		q := asiaEuropeQuery(cat, 3, 20)
		q.Dims[0].Pred = pred // cust
		return q
	}
	healthy := asiaEuropeQuery(cat, 3, 20)
	want := evalStarNaive(t, healthy)
	newOpWith := func(t *testing.T, workers int) *Operator {
		op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
			{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
			{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
		}, Config{BatchSize: 64, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(op.Close)
		return op
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			op := newOpWith(t, workers)
			entries := int64(op.tables[0].tab.Len())
			var evals atomic.Int64
			rows := runStar(t, op, withCustPred(countingPred{healthy.Dims[0].Pred, &evals}))
			mustEqualRows(t, rows, want)
			if got := evals.Load(); got != entries {
				t.Fatalf("dimension predicate evaluated %d times at %d workers, want %d (once per entry)",
					got, workers, entries)
			}
		})
	}

	t.Run("panic", func(t *testing.T) {
		op := newOpWith(t, 2)
		var evals atomic.Int64
		err := op.Run(context.Background(), withCustPred(countingPred{nil, &evals}),
			func(b *batch.Batch) error { b.Done(); return nil })
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("panicking dimension predicate: err = %v, want *PanicError", err)
		}
		if evals.Load() != 1 {
			t.Fatalf("panicking predicate evaluated %d times, want 1", evals.Load())
		}
		mustEqualRows(t, runStar(t, op, healthy), want)
		if st := op.Stats(); st.SlotHighWater != 1 || st.PanicFailures != 1 {
			t.Fatalf("SlotHighWater = %d, PanicFailures = %d; want the healthy query on the failed one's slot and one panic",
				st.SlotHighWater, st.PanicFailures)
		}
	})
}

// TestAdmissionAllocatesEntryBitsOnly pins what a query's admission
// allocates: its subscription and, per dimension it filters, one Select —
// a Keep of a bit per entry; the selection's chunk buffer and the kernel's
// temporaries come from the scanner's scratch, kept across admissions. CJOIN scatters a Keep
// entry by entry into its own bitmaps and never probes the index under it,
// so the Keep carries no bitset by key offset. Over a date dimension of
// yyyymmdd keys (2 557 entries spanning 61 130 key values, a direct index)
// that bitset alone would be 7.6 KB an admission.
func TestAdmissionAllocatesEntryBitsOnly(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64)
	date, err := cat.CreateTable("date", types.NewSchema(
		types.Column{Name: "d_datekey", Kind: types.KindInt},
		types.Column{Name: "d_year", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	var keys []int64
	for ; day.Year() < 1999; day = day.AddDate(0, 0, 1) {
		key := int64(day.Year()*10000 + int(day.Month())*100 + day.Day())
		keys = append(keys, key)
		if err := date.File.Append(types.Row{types.NewInt(key), types.NewInt(int64(day.Year()))}); err != nil {
			t.Fatal(err)
		}
	}
	lo, err := cat.CreateTable("lo", types.NewSchema(types.Column{Name: "lo_datekey", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := lo.File.Append(types.Row{types.NewInt(keys[i%len(keys)])}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []*storage.Table{date, lo} {
		if err := tbl.File.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	op, err := NewOperator(lo, []DimSpec{{Table: date, FactKeyCol: 0, DimKeyCol: 0}}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	q := &plan.StarQuery{Fact: lo, FactCols: []int{0}, Dims: []plan.DimJoin{{
		Table: date, FactKeyCol: 0, DimKeyCol: 0,
		Pred: expr.NewCmp(expr.EQ, expr.C(1, "d_year"), expr.Int(1994)),
	}}}
	var scr vec.Scratch // the scanner's, kept across admissions
	admit := func() {
		sub, err := op.newSubscription(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range op.tables {
			op.selectDim(sub, tab, &scr)
		}
		if sub.dimKeep[0] == nil {
			t.Fatal("no Keep for the filtered dimension")
		}
	}
	admit()
	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		admit()
	}
	runtime.ReadMemStats(&m1)
	perAdmission := (m1.TotalAlloc - m0.TotalAlloc) / n
	t.Logf("an admission allocates %d bytes", perAdmission)
	if perAdmission > 2<<10 {
		t.Errorf("an admission allocates %d bytes, want at most 2 KiB: a Keep of %d entry bits, no key bitset and no selection buffer",
			perAdmission, len(keys))
	}
}
