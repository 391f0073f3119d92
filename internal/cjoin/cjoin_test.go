package cjoin

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// starDB builds a small star schema:
//
//	lo(lo_id int, lo_ck int, lo_pk int, lo_rev float, pad string)  fact, n rows
//	cust(ck int, region string)                                     10 rows
//	part(pk int, brand int)                                         20 rows
//
// Fact foreign keys deliberately include values with no matching dimension
// row (ck = 10, pk = 20) to exercise probe misses.
func starDB(t testing.TB, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 512, true)

	lo, err := cat.CreateTable("lo", types.NewSchema(
		types.Column{Name: "lo_id", Kind: types.KindInt},
		types.Column{Name: "lo_ck", Kind: types.KindInt},
		types.Column{Name: "lo_pk", Kind: types.KindInt},
		types.Column{Name: "lo_rev", Kind: types.KindFloat},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	pad := strings.Repeat("f", 60)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(11))), // 10 has no cust row
			types.NewInt(int64(r.Intn(21))), // 20 has no part row
			types.NewFloat(float64(r.Intn(10000)) / 100),
			types.NewString(pad),
		}
	}
	if err := lo.File.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := lo.File.Seal(); err != nil {
		t.Fatal(err)
	}

	cust, err := cat.CreateTable("cust", types.NewSchema(
		types.Column{Name: "ck", Kind: types.KindInt},
		types.Column{Name: "region", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDDLE EAST"}
	for i := 0; i < 10; i++ {
		if err := cust.File.Append(types.Row{types.NewInt(int64(i)), types.NewString(regions[i%5])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cust.File.Seal(); err != nil {
		t.Fatal(err)
	}

	part, err := cat.CreateTable("part", types.NewSchema(
		types.Column{Name: "pk", Kind: types.KindInt},
		types.Column{Name: "brand", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := part.File.Append(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := part.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func newOp(t testing.TB, cat *storage.Catalog) *Operator {
	t.Helper()
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
		{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
	}, Config{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op.Close)
	return op
}

// evalStarNaive computes the star query result with nested loops.
func evalStarNaive(t *testing.T, q *plan.StarQuery) []types.Row {
	t.Helper()
	factRows, err := q.Fact.File.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	for _, f := range factRows {
		if q.FactPred != nil && !q.FactPred.Eval(f).Bool() {
			continue
		}
		row := make(types.Row, 0, 8)
		for _, c := range q.FactCols {
			row = append(row, f[c])
		}
		ok := true
		for _, d := range q.Dims {
			dimRows, err := d.Table.File.AllRows()
			if err != nil {
				t.Fatal(err)
			}
			var match types.Row
			for _, dr := range dimRows {
				if dr[d.DimKeyCol].Equal(f[d.FactKeyCol]) {
					match = dr
					break
				}
			}
			if match == nil || (d.Pred != nil && !d.Pred.Eval(match).Bool()) {
				ok = false
				break
			}
			for _, c := range d.PayloadCols {
				row = append(row, match[c])
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// runStar collects the CJOIN result for q.
func runStar(t *testing.T, op *Operator, q *plan.StarQuery) []types.Row {
	t.Helper()
	var rows []types.Row
	err := op.Run(context.Background(), q, func(b *batch.Batch) error {
		rows = append(rows, b.RowsView()...)
		b.Done() // the rows outlive the batch
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func canon(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func mustEqualRows(t *testing.T, got, want []types.Row) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("got %d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d:\n got  %s\n want %s", i, g[i], w[i])
		}
	}
}

// asiaEuropeQuery joins both dims with selections on each side.
func asiaEuropeQuery(cat *storage.Catalog, brandLT int64, rev float64) *plan.StarQuery {
	return &plan.StarQuery{
		Fact:     cat.MustTable("lo"),
		FactPred: expr.NewCmp(expr.GE, expr.C(3, "lo_rev"), expr.Float(rev)),
		FactCols: []int{0, 3},
		Dims: []plan.DimJoin{
			{
				Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0,
				Pred:        expr.NewIn(expr.C(1, "region"), types.NewString("ASIA"), types.NewString("EUROPE")),
				PayloadCols: []int{1},
			},
			{
				Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0,
				Pred:        expr.NewCmp(expr.LT, expr.C(1, "brand"), expr.Int(brandLT)),
				PayloadCols: []int{1},
			},
		},
	}
}

func TestSingleQueryMatchesNaive(t *testing.T) {
	cat := starDB(t, 4000)
	op := newOp(t, cat)
	q := asiaEuropeQuery(cat, 3, 20)
	mustEqualRows(t, runStar(t, op, q), evalStarNaive(t, q))
	st := op.Stats()
	if st.Admitted != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueryWithoutFactPredicate(t *testing.T) {
	cat := starDB(t, 1500)
	op := newOp(t, cat)
	q := asiaEuropeQuery(cat, 4, 0)
	q.FactPred = nil
	mustEqualRows(t, runStar(t, op, q), evalStarNaive(t, q))
}

func TestQueryReferencingSubsetOfDims(t *testing.T) {
	cat := starDB(t, 1500)
	op := newOp(t, cat)
	q := &plan.StarQuery{
		Fact:     cat.MustTable("lo"),
		FactCols: []int{0},
		Dims: []plan.DimJoin{{
			Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0,
			Pred:        expr.Eq(expr.C(1, "brand"), expr.Int(2)),
			PayloadCols: []int{0, 1},
		}},
	}
	mustEqualRows(t, runStar(t, op, q), evalStarNaive(t, q))
}

func TestNoDimQueryIsFactSelection(t *testing.T) {
	cat := starDB(t, 1000)
	op := newOp(t, cat)
	q := &plan.StarQuery{
		Fact:     cat.MustTable("lo"),
		FactPred: expr.NewCmp(expr.LT, expr.C(0, "lo_id"), expr.Int(100)),
		FactCols: []int{0, 1},
	}
	got := runStar(t, op, q)
	if len(got) != 100 {
		t.Fatalf("got %d rows, want 100", len(got))
	}
}

// Figure 1b: two queries with the same join predicate but different
// selection predicates evaluated by one shared plan.
func TestGQPFigure1b(t *testing.T) {
	cat := starDB(t, 3000)
	op := newOp(t, cat)

	q1 := asiaEuropeQuery(cat, 2, 0)
	q2 := asiaEuropeQuery(cat, 4, 50)

	var wg sync.WaitGroup
	results := make([][]types.Row, 2)
	errs := make([]error, 2)
	wg.Add(2)
	collect := func(i int, q *plan.StarQuery) {
		defer wg.Done()
		errs[i] = op.Run(context.Background(), q, func(b *batch.Batch) error {
			results[i] = append(results[i], b.RowsView()...)
			return nil
		})
	}
	go collect(0, q1)
	go collect(1, q2)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	mustEqualRows(t, results[0], evalStarNaive(t, q1))
	mustEqualRows(t, results[1], evalStarNaive(t, q2))
	if st := op.Stats(); st.Completed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentSweepsShareTheScan(t *testing.T) {
	cat := starDB(t, 20000)
	op := newOp(t, cat)
	npages := int64(cat.MustTable("lo").File.NumPages())

	const k = 6
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			q := asiaEuropeQuery(cat, int64(1+i%4), float64(10*i))
			err := op.Run(context.Background(), q, func(*batch.Batch) error { return nil })
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	st := op.Stats()
	// Queries submitted together piggyback on the same circular sweep; the
	// total pages scanned must be far below k independent sweeps.
	if st.PagesScanned >= k*npages {
		t.Errorf("PagesScanned = %d for %d queries x %d pages (no sharing)", st.PagesScanned, k, npages)
	}
	if st.Completed != k {
		t.Errorf("Completed = %d, want %d", st.Completed, k)
	}
}

func TestSequentialQueriesRecycleSlots(t *testing.T) {
	cat := starDB(t, 800)
	op := newOp(t, cat)
	want := evalStarNaive(t, asiaEuropeQuery(cat, 3, 20))
	for i := 0; i < 10; i++ {
		mustEqualRows(t, runStar(t, op, asiaEuropeQuery(cat, 3, 20)), want)
	}
	if st := op.Stats(); st.Completed != 10 {
		t.Errorf("Completed = %d", st.Completed)
	}
}

func TestProbeMissOnlyAffectsReferencingQueries(t *testing.T) {
	cat := starDB(t, 2000)
	op := newOp(t, cat)
	// q1 references cust (fact rows with ck=10 must be dropped for it);
	// q2 references only part (ck=10 rows must survive for it).
	q1 := &plan.StarQuery{
		Fact: cat.MustTable("lo"), FactCols: []int{0},
		Dims: []plan.DimJoin{{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}}},
	}
	q2 := &plan.StarQuery{
		Fact: cat.MustTable("lo"), FactCols: []int{0, 1},
		Dims: []plan.DimJoin{{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0, PayloadCols: []int{1}}},
	}
	var wg sync.WaitGroup
	results := make([][]types.Row, 2)
	wg.Add(2)
	go func() { defer wg.Done(); results[0] = runStar(t, op, q1) }()
	go func() { defer wg.Done(); results[1] = runStar(t, op, q2) }()
	wg.Wait()
	mustEqualRows(t, results[0], evalStarNaive(t, q1))
	mustEqualRows(t, results[1], evalStarNaive(t, q2))
	// q2 must include rows with dangling cust FK.
	foundDangling := false
	for _, r := range results[1] {
		if r[1].I == 10 {
			foundDangling = true
			break
		}
	}
	if !foundDangling {
		t.Error("probe miss on cust leaked into a query that does not reference cust")
	}
}

func TestRunValidation(t *testing.T) {
	cat := starDB(t, 100)
	op := newOp(t, cat)
	other, err := cat.CreateTable("other", types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.File.Seal(); err != nil {
		t.Fatal(err)
	}

	cases := []*plan.StarQuery{
		{Fact: other, FactCols: []int{0}},
		{Fact: cat.MustTable("lo"), FactCols: []int{0},
			Dims: []plan.DimJoin{{Table: other, FactKeyCol: 1, DimKeyCol: 0}}},
		{Fact: cat.MustTable("lo"), FactCols: []int{0},
			Dims: []plan.DimJoin{{Table: cat.MustTable("cust"), FactKeyCol: 2, DimKeyCol: 0}}},
	}
	for i, q := range cases {
		err := op.Run(context.Background(), q, func(*batch.Batch) error { return nil })
		if err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	cat := starDB(t, 30000)
	op := newOp(t, cat)
	ctx, cancel := context.WithCancel(context.Background())
	q := asiaEuropeQuery(cat, 4, 0)
	got := 0
	errCh := make(chan error, 1)
	go func() {
		errCh <- op.Run(ctx, q, func(b *batch.Batch) error {
			got += b.Len()
			if got > 100 {
				cancel()
			}
			return nil
		})
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not unblock Run")
	}
	// The operator must remain usable for other queries.
	q2 := asiaEuropeQuery(cat, 2, 90)
	mustEqualRows(t, runStar(t, op, q2), evalStarNaive(t, q2))
	if st := op.Stats(); st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
}

// TestRunPreCanceledContext is the admission-path context regression: a
// context already dead at Run never occupies a GQP slot, returns its error
// immediately, and leaves the operator untouched for live queries.
func TestRunPreCanceledContext(t *testing.T) {
	cat := starDB(t, 5000)
	op := newOp(t, cat)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	admittedBefore := op.Stats().Admitted
	err := op.Run(ctx, asiaEuropeQuery(cat, 4, 0), func(*batch.Batch) error {
		t.Error("emit called for a pre-canceled query")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := op.Stats().Admitted; got != admittedBefore {
		t.Fatalf("pre-canceled query was admitted (Admitted %d -> %d)", admittedBefore, got)
	}
	// The operator stays fully usable.
	q := asiaEuropeQuery(cat, 2, 90)
	mustEqualRows(t, runStar(t, op, q), evalStarNaive(t, q))
}

func TestEmitErrorCancelsQuery(t *testing.T) {
	cat := starDB(t, 5000)
	op := newOp(t, cat)
	boom := errors.New("downstream failure")
	err := op.Run(context.Background(), asiaEuropeQuery(cat, 4, 0), func(*batch.Batch) error { return boom })
	if err != boom {
		t.Fatalf("err = %v, want downstream failure", err)
	}
}

func TestCloseFailsActiveQueries(t *testing.T) {
	cat := starDB(t, 30000)
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	started := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		var once sync.Once
		errCh <- op.Run(context.Background(), &plan.StarQuery{
			Fact: cat.MustTable("lo"), FactCols: []int{0},
			Dims: []plan.DimJoin{{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}}},
		}, func(*batch.Batch) error {
			// Hold the query open until Close has landed: the result is many
			// times the output buffer, so the sweep stalls behind this
			// callback instead of finishing before Close on a fast machine.
			once.Do(func() { close(started) })
			<-closed
			return nil
		})
	}()
	<-started
	op.Close()
	close(closed)
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not fail the active query")
	}
	// Run after Close must fail immediately.
	err = op.Run(context.Background(), &plan.StarQuery{Fact: cat.MustTable("lo"), FactCols: []int{0}},
		func(*batch.Batch) error { return nil })
	if err != ErrClosed {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

func TestEmptyFactTable(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64, true)
	lo, _ := cat.CreateTable("lo", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "fk", Kind: types.KindInt},
	))
	if err := lo.File.Seal(); err != nil {
		t.Fatal(err)
	}
	dim, _ := cat.CreateTable("d", types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}))
	if err := dim.File.Append(types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := dim.File.Seal(); err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(lo, []DimSpec{{Table: dim, FactKeyCol: 1, DimKeyCol: 0}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	rows := runStar(t, op, &plan.StarQuery{Fact: lo, FactCols: []int{0}})
	if len(rows) != 0 {
		t.Errorf("empty fact table produced %d rows", len(rows))
	}
}

// Property-style test: random predicate combinations against the naive
// reference, run concurrently in small batches.
func TestRandomQueriesMatchNaive(t *testing.T) {
	cat := starDB(t, 3000)
	op := newOp(t, cat)
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 5; round++ {
		qs := make([]*plan.StarQuery, 4)
		for i := range qs {
			qs[i] = asiaEuropeQuery(cat, int64(r.Intn(5)), float64(r.Intn(100)))
			if r.Intn(3) == 0 {
				qs[i].FactPred = nil
			}
			if r.Intn(3) == 0 {
				qs[i].Dims = qs[i].Dims[:1]
			}
		}
		var wg sync.WaitGroup
		results := make([][]types.Row, len(qs))
		for i, q := range qs {
			wg.Add(1)
			go func(i int, q *plan.StarQuery) {
				defer wg.Done()
				err := op.Run(context.Background(), q, func(b *batch.Batch) error {
					results[i] = append(results[i], b.RowsView()...)
					return nil
				})
				if err != nil {
					t.Errorf("round %d query %d: %v", round, i, err)
				}
			}(i, q)
		}
		wg.Wait()
		for i, q := range qs {
			want := evalStarNaive(t, q)
			g, w := canon(results[i]), canon(want)
			if len(g) != len(w) {
				t.Fatalf("round %d query %d: got %d rows, want %d", round, i, len(g), len(w))
			}
			for j := range g {
				if g[j] != w[j] {
					t.Fatalf("round %d query %d row %d mismatch", round, i, j)
				}
			}
		}
	}

}
