package engine

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// testDB builds a small catalog:
//
//	sales(id int, dept int, amount float, pad string)   n rows
//	dept(dk int, region string)                          5 rows
func testDB(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 256)

	sales, err := cat.CreateTable("sales", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "dept", Kind: types.KindInt},
		types.Column{Name: "amount", Kind: types.KindFloat},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	// Unique pads so the columnar page dictionary cannot collapse the
	// column — several tests need the table to span many pages.
	pad := strings.Repeat("x", 40)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(5))),
			types.NewFloat(float64(r.Intn(1000)) / 10),
			types.NewString(pad + strconv.Itoa(i)),
		}
	}
	if err := sales.File.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := sales.File.Seal(); err != nil {
		t.Fatal(err)
	}

	dept, err := cat.CreateTable("dept", types.NewSchema(
		types.Column{Name: "dk", Kind: types.KindInt},
		types.Column{Name: "region", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDDLE EAST"}
	for i, reg := range regions {
		if err := dept.File.Append(types.Row{types.NewInt(int64(i)), types.NewString(reg)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dept.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// salesRows reads the generated sales table back (reference data).
func salesRows(t *testing.T, cat *storage.Catalog) []types.Row {
	t.Helper()
	rows, err := cat.MustTable("sales").File.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// canon renders rows as sorted strings for order-insensitive comparison.
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

func newTestEngine(cat *storage.Catalog, cfg Config) *Engine { return New(cat, cfg) }

func TestScanReturnsAllRows(t *testing.T) {
	cat := testDB(t, 3000)
	e := newTestEngine(cat, Config{})
	res, err := e.Execute(context.Background(), plan.NewScan(cat.MustTable("sales")))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, res.Rows, salesRows(t, cat))
}

func TestFilterMatchesReference(t *testing.T) {
	cat := testDB(t, 3000)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	pred := expr.NewCmp(expr.LT, expr.C(1, "dept"), expr.Int(2))
	res, err := e.Execute(context.Background(), plan.NewFilter(plan.NewScan(tbl), pred))
	if err != nil {
		t.Fatal(err)
	}
	var want []types.Row
	for _, r := range salesRows(t, cat) {
		if r[1].I < 2 {
			want = append(want, r)
		}
	}
	mustEqualRows(t, res.Rows, want)
}

func TestProjectComputesExpressions(t *testing.T) {
	cat := testDB(t, 500)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	p := plan.NewProject(plan.NewScan(tbl), []plan.ProjCol{
		{Name: "id2", Kind: types.KindInt, Expr: expr.NewArith(expr.Mul, expr.C(0, "id"), expr.Int(2))},
		{Name: "amt", Kind: types.KindFloat, Expr: expr.C(2, "amount")},
	})
	res, err := e.Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var want []types.Row
	for _, r := range salesRows(t, cat) {
		want = append(want, types.Row{types.NewInt(r[0].I * 2), r[2]})
	}
	mustEqualRows(t, res.Rows, want)
	if res.Schema.Cols[0].Name != "id2" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestHashJoinMatchesNaive(t *testing.T) {
	cat := testDB(t, 2000)
	e := newTestEngine(cat, Config{})
	sales, dept := cat.MustTable("sales"), cat.MustTable("dept")
	j := plan.NewHashJoin(plan.NewScan(sales), plan.NewScan(dept), 1, 0)
	res, err := e.Execute(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	deptRows, _ := dept.File.AllRows()
	var want []types.Row
	for _, l := range salesRows(t, cat) {
		for _, r := range deptRows {
			if l[1].Equal(r[0]) {
				want = append(want, l.Concat(r))
			}
		}
	}
	mustEqualRows(t, res.Rows, want)
}

func TestAggregateGroupBy(t *testing.T) {
	cat := testDB(t, 3000)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	a := plan.NewAggregate(plan.NewScan(tbl),
		[]plan.GroupCol{{Name: "dept", Kind: types.KindInt, Expr: expr.C(1, "dept")}},
		[]plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: expr.C(2, "amount"), Name: "total"},
			{Func: plan.AggMin, Arg: expr.C(2, "amount"), Name: "lo", ArgKind: types.KindFloat},
			{Func: plan.AggMax, Arg: expr.C(2, "amount"), Name: "hi", ArgKind: types.KindFloat},
			{Func: plan.AggAvg, Arg: expr.C(2, "amount"), Name: "mean"},
		})
	res, err := e.Execute(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	type acc struct {
		n        int64
		sum      float64
		min, max float64
	}
	ref := map[int64]*acc{}
	for _, r := range salesRows(t, cat) {
		a, ok := ref[r[1].I]
		if !ok {
			a = &acc{min: 1e18, max: -1e18}
			ref[r[1].I] = a
		}
		a.n++
		a.sum += r[2].F
		if r[2].F < a.min {
			a.min = r[2].F
		}
		if r[2].F > a.max {
			a.max = r[2].F
		}
	}
	var want []types.Row
	for k, a := range ref {
		want = append(want, types.Row{
			types.NewInt(k), types.NewInt(a.n), types.NewFloat(a.sum),
			types.NewFloat(a.min), types.NewFloat(a.max), types.NewFloat(a.sum / float64(a.n)),
		})
	}
	mustEqualRows(t, res.Rows, want)
}

func TestAggregateEmptyInputGlobalRow(t *testing.T) {
	cat := testDB(t, 100)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	never := expr.NewCmp(expr.LT, expr.C(0, "id"), expr.Int(-1))
	a := plan.NewAggregate(plan.NewFilter(plan.NewScan(tbl), never), nil,
		[]plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: expr.C(2, "amount"), Name: "total"},
		})
	res, err := e.Execute(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate over empty input: %d rows, want 1", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("row = %v, want count 0 and NULL sum", res.Rows[0])
	}
}

func TestAggregateEmptyInputGroupedNoRows(t *testing.T) {
	cat := testDB(t, 100)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	never := expr.NewCmp(expr.LT, expr.C(0, "id"), expr.Int(-1))
	a := plan.NewAggregate(plan.NewFilter(plan.NewScan(tbl), never),
		[]plan.GroupCol{{Name: "dept", Kind: types.KindInt, Expr: expr.C(1, "dept")}},
		[]plan.AggSpec{{Func: plan.AggCount, Name: "n"}})
	res, err := e.Execute(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("grouped aggregate over empty input: %d rows, want 0", len(res.Rows))
	}
}

func TestSortOrdersRows(t *testing.T) {
	cat := testDB(t, 1000)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	s := plan.NewSort(plan.NewScan(tbl), []plan.SortKey{{Col: 2, Desc: true}, {Col: 0}})
	res, err := e.Execute(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1000 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[2].F < b[2].F || (a[2].F == b[2].F && a[0].I > b[0].I) {
			t.Fatalf("rows %d,%d out of order: %v then %v", i-1, i, a, b)
		}
	}
}

func TestStarQueryCentricMatchesNaive(t *testing.T) {
	cat := testDB(t, 2000)
	e := newTestEngine(cat, Config{})
	sales, dept := cat.MustTable("sales"), cat.MustTable("dept")
	star := &plan.StarQuery{
		Fact:     sales,
		FactPred: expr.NewCmp(expr.GE, expr.C(2, "amount"), expr.Float(50)),
		FactCols: []int{0, 2},
		Dims: []plan.DimJoin{{
			Table:       dept,
			FactKeyCol:  1,
			DimKeyCol:   0,
			Pred:        expr.NewIn(expr.C(1, "region"), types.NewString("ASIA"), types.NewString("EUROPE")),
			PayloadCols: []int{1},
		}},
	}
	res, err := e.Execute(context.Background(), star.QueryCentric())
	if err != nil {
		t.Fatal(err)
	}
	deptRows, _ := dept.File.AllRows()
	var want []types.Row
	for _, l := range salesRows(t, cat) {
		if l[2].F < 50 {
			continue
		}
		for _, r := range deptRows {
			if (r[1].S == "ASIA" || r[1].S == "EUROPE") && l[1].Equal(r[0]) {
				want = append(want, types.Row{l[0], l[2], r[1]})
			}
		}
	}
	mustEqualRows(t, res.Rows, want)
	wantSchema := star.OutputSchema()
	if res.Schema.String() != wantSchema.String() {
		t.Errorf("schema %s, want %s", res.Schema, wantSchema)
	}
}

// q1Plan builds scan -> filter -> group-by plan used by the SP tests.
func q1Plan(cat *storage.Catalog, hi int64) plan.Node {
	tbl := cat.MustTable("sales")
	f := plan.NewFilter(plan.NewScan(tbl), expr.NewCmp(expr.LT, expr.C(1, "dept"), expr.Int(hi)))
	return plan.NewAggregate(f,
		[]plan.GroupCol{{Name: "dept", Kind: types.KindInt, Expr: expr.C(1, "dept")}},
		[]plan.AggSpec{{Func: plan.AggSum, Arg: expr.C(2, "amount"), Name: "total"}})
}

func TestSPPushSharesIdenticalPlans(t *testing.T) {
	cat := testDB(t, 3000)
	e := newTestEngine(cat, Config{SP: true, Model: SPPush})
	roots := []plan.Node{q1Plan(cat, 3), q1Plan(cat, 3), q1Plan(cat, 3)}
	results, err := e.ExecuteBatch(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		mustEqualRows(t, results[i].Rows, results[0].Rows)
	}
	agg := e.StageStatsFor(plan.KindAggregate)
	if agg.Executed != 1 || agg.SPAttached != 2 {
		t.Errorf("agg stage: %+v, want executed=1 attached=2", agg)
	}
	scan := e.StageStatsFor(plan.KindScan)
	if scan.Executed != 1 {
		t.Errorf("scan stage executed = %d, want 1 (whole sub-plan shared)", scan.Executed)
	}
	if agg.Copies == 0 {
		t.Error("push model must perform satellite copies")
	}
}

func TestSPPullSharesWithoutCopies(t *testing.T) {
	cat := testDB(t, 3000)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull})
	roots := []plan.Node{q1Plan(cat, 3), q1Plan(cat, 3), q1Plan(cat, 3), q1Plan(cat, 3)}
	results, err := e.ExecuteBatch(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		mustEqualRows(t, results[i].Rows, results[0].Rows)
	}
	agg := e.StageStatsFor(plan.KindAggregate)
	if agg.Executed != 1 || agg.SPAttached != 3 {
		t.Errorf("agg stage: %+v, want executed=1 attached=3", agg)
	}
	var total int64
	for _, s := range e.Stats().Stages {
		total += s.Copies
	}
	if total != 0 {
		t.Errorf("pull model performed %d copies, want 0", total)
	}
}

func TestSPDisabledRunsEverythingTwice(t *testing.T) {
	cat := testDB(t, 1000)
	e := newTestEngine(cat, Config{SP: false})
	roots := []plan.Node{q1Plan(cat, 3), q1Plan(cat, 3)}
	if _, err := e.ExecuteBatch(context.Background(), roots); err != nil {
		t.Fatal(err)
	}
	if got := e.StageStatsFor(plan.KindScan).Executed; got != 2 {
		t.Errorf("scan executed = %d, want 2 with SP off", got)
	}
	if got := e.StageStatsFor(plan.KindAggregate).SPAttached; got != 0 {
		t.Errorf("attached = %d, want 0 with SP off", got)
	}
}

func TestSPStageSelection(t *testing.T) {
	// SP only at the scan stage: aggregation runs per query, the scan is
	// shared.
	cat := testDB(t, 1000)
	e := newTestEngine(cat, Config{
		SP:       true,
		Model:    SPPull,
		SPStages: map[plan.Kind]bool{plan.KindScan: true},
	})
	roots := []plan.Node{q1Plan(cat, 3), q1Plan(cat, 3)}
	results, err := e.ExecuteBatch(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, results[1].Rows, results[0].Rows)
	if got := e.StageStatsFor(plan.KindAggregate).Executed; got != 2 {
		t.Errorf("agg executed = %d, want 2", got)
	}
	scan := e.StageStatsFor(plan.KindScan)
	if scan.Executed != 1 || scan.SPAttached != 1 {
		t.Errorf("scan stage: %+v, want executed=1 attached=1", scan)
	}
}

func TestDifferentPredicatesDoNotShare(t *testing.T) {
	cat := testDB(t, 1000)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull,
		SPStages: map[plan.Kind]bool{plan.KindFilter: true, plan.KindAggregate: true}})
	roots := []plan.Node{q1Plan(cat, 2), q1Plan(cat, 4)}
	results, err := e.ExecuteBatch(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Rows) == len(results[1].Rows) {
		t.Log("predicates chosen to differ in group count; check data generation")
	}
	if got := e.StageStatsFor(plan.KindAggregate).SPAttached; got != 0 {
		t.Errorf("attached = %d, want 0 for different predicates", got)
	}
}

// spShape parameterises a scan → filter → join → project → aggregate → sort
// → limit plan; each field is a parameter the plan's fingerprint covers.
type spShape struct {
	hi        int64 // filter: dept < hi
	leftKey   int   // join: sales column probed against dept.dk
	projName  string
	groupName string
	aggFunc   plan.AggFunc
	aggName   string
	desc      bool
	limit     int
}

func (s spShape) build(cat *storage.Catalog) plan.Node {
	f := plan.NewFilter(plan.NewScan(cat.MustTable("sales")),
		expr.NewCmp(expr.LT, expr.C(1, "dept"), expr.Int(s.hi)))
	j := plan.NewHashJoin(f, plan.NewScan(cat.MustTable("dept")), s.leftKey, 0)
	p := plan.NewProject(j, []plan.ProjCol{
		{Name: "region", Kind: types.KindString, Expr: expr.C(5, "region")},
		{Name: s.projName, Kind: types.KindFloat, Expr: expr.C(2, "amount")},
	})
	a := plan.NewAggregate(p,
		[]plan.GroupCol{{Name: s.groupName, Kind: types.KindString, Expr: expr.C(0, "region")}},
		[]plan.AggSpec{{Func: s.aggFunc, Arg: expr.C(1, s.projName), Name: s.aggName, ArgKind: types.KindFloat}})
	return plan.NewLimit(plan.NewSort(a, []plan.SortKey{{Col: 1, Desc: s.desc}}), s.limit)
}

// spTestName gives each SP model the subtest name it has always run under,
// so a test's results stay comparable across releases even when the
// model's display name (SPModel.String) changes.
var spTestName = map[SPModel]string{SPPush: "push(FIFO)", SPPull: "pull(SPL)"}

// SP finds common sub-plans by plan.Fingerprint: two plans built separately
// from the same parameters share the root packet, and changing any one
// fingerprinted parameter anywhere in the tree keeps the roots apart.
func TestSPSharesExactlyByFingerprint(t *testing.T) {
	cat := testDB(t, 1000)
	base := spShape{hi: 3, leftKey: 1, projName: "amt", groupName: "region",
		aggFunc: plan.AggSum, aggName: "total", limit: 3}
	variants := map[string]func(s *spShape){
		"identical":        func(s *spShape) {},
		"filter predicate": func(s *spShape) { s.hi = 4 },
		"join key":         func(s *spShape) { s.leftKey = 0 },
		"project name":     func(s *spShape) { s.projName = "amount" },
		"group name":       func(s *spShape) { s.groupName = "r" },
		"agg func":         func(s *spShape) { s.aggFunc = plan.AggMax },
		"agg name":         func(s *spShape) { s.aggName = "sum" },
		"sort direction":   func(s *spShape) { s.desc = true },
		"limit N":          func(s *spShape) { s.limit = 2 },
	}
	solo := newTestEngine(cat, Config{})
	for _, model := range []SPModel{SPPush, SPPull} {
		for name, edit := range variants {
			t.Run(spTestName[model]+"/"+name, func(t *testing.T) {
				v := base
				edit(&v)
				e := newTestEngine(cat, Config{SP: true, Model: model})
				res, err := e.ExecuteBatch(context.Background(), []plan.Node{base.build(cat), v.build(cat)})
				if err != nil {
					t.Fatal(err)
				}
				want := int64(0)
				if v == base {
					want = 1
				}
				if got := e.StageStatsFor(plan.KindLimit).SPAttached; got != want {
					t.Errorf("limit stage attached %d, want %d", got, want)
				}
				ref, err := solo.Execute(context.Background(), v.build(cat))
				if err != nil {
					t.Fatal(err)
				}
				mustEqualRows(t, res[1].Rows, ref.Rows)
			})
		}
	}
}

func TestMixedBatchSharesPerPlanGroup(t *testing.T) {
	cat := testDB(t, 2000)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull})
	var roots []plan.Node
	const perGroup = 4
	for i := 0; i < perGroup; i++ {
		roots = append(roots, q1Plan(cat, 2), q1Plan(cat, 3), q1Plan(cat, 4))
	}
	results, err := e.ExecuteBatch(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	// Queries of the same group must agree.
	for g := 0; g < 3; g++ {
		for i := 1; i < perGroup; i++ {
			mustEqualRows(t, results[g+3*i].Rows, results[g].Rows)
		}
	}
	agg := e.StageStatsFor(plan.KindAggregate)
	if agg.Executed != 3 || agg.SPAttached != int64(3*(perGroup-1)) {
		t.Errorf("agg stage: %+v, want executed=3 attached=%d", agg, 3*(perGroup-1))
	}
}

// mustOutgrowLists fails the test unless the sales table has more pages than
// twice the given list depth, so a streaming packet over it cannot finish
// into its buffer before its consumer reads: the backpressure a test relies
// on is there by size, not by timing.
func mustOutgrowLists(t *testing.T, cat *storage.Catalog, depth int) {
	t.Helper()
	if n := cat.MustTable("sales").File.NumPages(); n <= 2*depth {
		t.Fatalf("sales has %d pages, want more than %d", n, 2*depth)
	}
}

func TestStaggeredSubmissionMissesPushWindow(t *testing.T) {
	cat := testDB(t, 20000)
	// A table several lists deep keeps the streaming filter packet alive
	// (blocked on a full list) long after it emitted its first batch.
	mustOutgrowLists(t, cat, fifoDepth)
	e := newTestEngine(cat, Config{SP: true, Model: SPPush, BatchSize: 16})
	ctx := context.Background()

	mkPlan := func() plan.Node {
		tbl := cat.MustTable("sales")
		return plan.NewFilter(plan.NewScan(tbl), expr.NewCmp(expr.GE, expr.C(0, "id"), expr.Int(0)))
	}
	r1, err := e.dispatch(ctx, mkPlan(), closedGate)
	if err != nil {
		t.Fatal(err)
	}
	// Consume one batch: the filter host has now emitted (window closed) but
	// is still running (thousands of rows left).
	b, err := r1.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("expected output rows")
	}
	// A second identical query finds the host but the push window is closed.
	r2, err := e.dispatch(ctx, mkPlan(), closedGate)
	if err != nil {
		t.Fatal(err)
	}
	fs := e.StageStatsFor(plan.KindFilter)
	if fs.SPMissed == 0 {
		t.Errorf("expected a missed window, stats %+v", fs)
	}
	// Both queries must still deliver full, identical results.
	res1, err := drain(ctx, mkPlan(), r1)
	if err != nil {
		t.Fatal(err)
	}
	rows1 := append(append([]types.Row{}, b.RowsView()...), res1.Rows...)
	res2, err := drain(ctx, mkPlan(), r2)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, rows1, res2.Rows)
}

// TestMissedWindowTakesOverSlot: a packet dispatched after its host's push
// window closed takes over the host's SP slot, so the next identical query
// attaches to it instead of missing against the stale host too.
func TestMissedWindowTakesOverSlot(t *testing.T) {
	cat := testDB(t, 20000)
	mustOutgrowLists(t, cat, fifoDepth) // the host stays in flight, blocked
	e := newTestEngine(cat, Config{SP: true, Model: SPPush, BatchSize: 16})
	ctx := context.Background()
	mkPlan := func() plan.Node {
		return plan.NewFilter(plan.NewScan(cat.MustTable("sales")), expr.NewCmp(expr.GE, expr.C(0, "id"), expr.Int(0)))
	}
	r1, err := e.dispatch(ctx, mkPlan(), closedGate)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r1.Next(ctx) // the host emitted: its window is closed
	if err != nil {
		t.Fatal(err)
	}
	// Behind a shut gate neither later packet emits before both dispatched.
	gate := make(chan struct{})
	r2, err := e.dispatch(ctx, mkPlan(), gate)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := e.dispatch(ctx, mkPlan(), gate)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	fs := e.StageStatsFor(plan.KindFilter)
	if fs.SPMissed != 1 || fs.SPAttached != 1 {
		t.Errorf("filter stage missed %d and attached %d, want 1 and 1", fs.SPMissed, fs.SPAttached)
	}
	// Push consumers of one packet block each other: drain all three at once.
	results := make([]*Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, r := range []Reader{r1, r2, r3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = drain(ctx, mkPlan(), r)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	rows1 := append(append([]types.Row{}, first.RowsView()...), results[0].Rows...)
	first.Done()
	mustEqualRows(t, results[1].Rows, rows1)
	mustEqualRows(t, results[2].Rows, rows1)
}

func TestCancellationPropagates(t *testing.T) {
	cat := testDB(t, 50000)
	for _, model := range []SPModel{SPPush, SPPull} {
		t.Run(spTestName[model], func(t *testing.T) {
			e := newTestEngine(cat, Config{SP: true, Model: model})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := e.Execute(ctx, q1Plan(cat, 5))
				done <- err
			}()
			cancel()
			select {
			case err := <-done:
				if err == nil {
					// The query may legitimately win the race and complete.
					return
				}
				if err != context.Canceled {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancellation did not propagate")
			}
		})
	}
}

func TestSatelliteDetachHostStillCompletes(t *testing.T) {
	cat := testDB(t, 5000)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull})
	ctx := context.Background()
	gate := make(chan struct{})
	host, err := e.dispatch(ctx, q1Plan(cat, 3), gate)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := e.dispatch(ctx, q1Plan(cat, 3), gate)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.StageStatsFor(plan.KindAggregate).SPAttached; got != 1 {
		t.Fatalf("attached = %d, want 1", got)
	}
	close(gate)
	sat.Close() // satellite's query is canceled (Figure 1a "cancel")
	res, err := drain(ctx, q1Plan(cat, 3), host)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("host must still produce results after satellite detach")
	}
}

func TestEmptyCommonSubPlanShared(t *testing.T) {
	cat := testDB(t, 500)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull})
	never := func() plan.Node {
		tbl := cat.MustTable("sales")
		return plan.NewFilter(plan.NewScan(tbl), expr.NewCmp(expr.LT, expr.C(0, "id"), expr.Int(-1)))
	}
	results, err := e.ExecuteBatch(context.Background(), []plan.Node{never(), never()})
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Rows) != 0 || len(results[1].Rows) != 0 {
		t.Error("both queries must see the empty result")
	}
	if got := e.StageStatsFor(plan.KindFilter).SPAttached; got != 1 {
		t.Errorf("attached = %d, want 1", got)
	}
}

func TestCJoinWithoutRunnerFails(t *testing.T) {
	cat := testDB(t, 100)
	e := newTestEngine(cat, Config{})
	star := &plan.StarQuery{Fact: cat.MustTable("sales"), FactCols: []int{0}}
	_, err := e.Execute(context.Background(), plan.NewCJoin(star))
	if err == nil {
		t.Fatal("CJoin without a StarRunner must fail")
	}
	if !strings.Contains(err.Error(), "StarRunner") {
		t.Errorf("err = %v", err)
	}
}

func TestExecuteBatchPropagatesChildError(t *testing.T) {
	cat := testDB(t, 100)
	e := newTestEngine(cat, Config{})
	star := &plan.StarQuery{Fact: cat.MustTable("sales"), FactCols: []int{0}}
	bad := plan.NewCJoin(star) // no runner configured -> dispatch-time error? (runtime error)
	_, err := e.ExecuteBatch(context.Background(), []plan.Node{q1Plan(cat, 3), bad})
	if err == nil {
		t.Fatal("batch containing a failing plan must fail")
	}
}

func TestResultSchemaNames(t *testing.T) {
	cat := testDB(t, 100)
	e := newTestEngine(cat, Config{})
	res, err := e.Execute(context.Background(), q1Plan(cat, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Cols[0].Name != "dept" || res.Schema.Cols[1].Name != "total" {
		t.Errorf("schema = %v", res.Schema)
	}
}

// Property: for random filter predicates, engine output equals naive
// evaluation.
func TestFilterPropertyAgainstNaive(t *testing.T) {
	cat := testDB(t, 1500)
	e := newTestEngine(cat, Config{})
	ref := salesRows(t, cat)
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		lo := int64(r.Intn(5))
		hi := lo + int64(r.Intn(5))
		amtMin := float64(r.Intn(100))
		pred := expr.NewAnd(
			expr.NewBetween(expr.C(1, "dept"), expr.Int(lo), expr.Int(hi)),
			expr.NewCmp(expr.GE, expr.C(2, "amount"), expr.Float(amtMin)),
		)
		res, err := e.Execute(context.Background(), plan.NewFilter(plan.NewScan(cat.MustTable("sales")), pred))
		if err != nil {
			t.Fatal(err)
		}
		var want []types.Row
		for _, row := range ref {
			if row[1].I >= lo && row[1].I <= hi && row[2].F >= amtMin {
				want = append(want, row)
			}
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d (lo=%d hi=%d amt=%.0f): got %d rows, want %d",
				trial, lo, hi, amtMin, len(res.Rows), len(want))
		}
	}
}

// Repeated batch execution must not accumulate leaked goroutines.
func TestNoGoroutineLeakAcrossBatches(t *testing.T) {
	cat := testDB(t, 500)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		roots := []plan.Node{q1Plan(cat, 2), q1Plan(cat, 3), q1Plan(cat, 4)}
		if _, err := e.ExecuteBatch(ctx, roots); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > 20 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > 20 {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines still alive after executions:\n%s", n, buf[:runtime.Stack(buf, true)])
	}
}
