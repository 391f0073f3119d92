package cjoin

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
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

// TestVectorizedAdmissionMatchesScalar drives admitQuery (vectorized over
// the dimension table's cached column batch) against a row-at-a-time
// reference: for every query and every dimension entry, the entry bitmap
// bit must equal the compiled scalar predicate's verdict.
func TestVectorizedAdmissionMatchesScalar(t *testing.T) {
	cat := starDB(t, 500)
	op := bareOp(t, cat)
	for qi, q := range admissionQueries(cat) {
		sub, err := op.newSubscription(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		sub.id = qi % 3 // exercise different slots and words
		for di, spec := range op.specs {
			ds := newDimStateFor(t, di, spec, op)
			ds.admitQuery(sub)
			if !sub.dimRef[di] {
				for i := 0; i < ds.tab.cb.Len(); i++ {
					if bitvec.GetWord(ds.ebits[i*ds.estride:(i+1)*ds.estride], sub.id) {
						t.Fatalf("query %d dim %d: bit set on unreferenced dimension", qi, di)
					}
				}
				continue
			}
			// Scalar reference: the query's dimension predicate compiled
			// row-at-a-time, as admission evaluated it before vectorization.
			var pred func(types.Row) bool
			for k, d := range q.Dims {
				if sub.dimIdx[k] == di && d.Pred != nil {
					pred = expr.Compile(d.Pred)
				}
			}
			for i, r := range ds.tab.cb.Rows() {
				want := pred == nil || pred(r)
				got := bitvec.GetWord(ds.ebits[i*ds.estride:(i+1)*ds.estride], sub.id)
				if got != want {
					t.Fatalf("query %d dim %d entry %d (%v): admitted=%v, scalar predicate=%v",
						qi, di, i, r, got, want)
				}
			}
			// Retirement must clear exactly this query's bits.
			ds.finishQuery(sub)
			for i := 0; i < ds.tab.cb.Len(); i++ {
				if bitvec.GetWord(ds.ebits[i*ds.estride:(i+1)*ds.estride], sub.id) {
					t.Fatalf("query %d dim %d entry %d: bit survives retirement", qi, di, i)
				}
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

// ---------------------------------------------------------------------------
// Cold-decode benchmark: pool-miss → decode → annotate.

// rawPages reads the table's pages straight from the disk.
func rawPages(b *testing.B, cat *storage.Catalog, tbl *storage.Table) [][]byte {
	b.Helper()
	np := tbl.File.NumPages()
	pages := make([][]byte, np)
	for i := 0; i < np; i++ {
		pages[i] = make([]byte, storage.PageSize)
		if err := cat.Disk().ReadPage(tbl.File.ID(), i, pages[i]); err != nil {
			b.Fatal(err)
		}
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
	subs := testSubs(b, op, cat)
	ncols := op.fact.Schema.Len()

	pages := rawPages(b, cat, op.fact)
	it := &item{}
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
			w.annotate(it, subs, len(subs))
			it.cols = nil
			cb.Release()
		}
	}
	b.ReportMetric(float64(total), "tuples/op")
	b.ReportMetric(float64(len(pages)), "pages/op")
}
