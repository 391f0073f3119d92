package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// A join served by its build table's shared index and the naive nested loop
// agree: the random join cases of the columnar battery (duplicate and NULL
// keys, int, float and string keys, keys of different kinds, empty build
// sides; a sorted build side refused, then run without its sort) plus a
// dimension with distinct dense keys, whose selection is a key bitset,
// probed by int and float keys. Every join is index-served and counted.
func TestIndexServedJoinMatchesNaive(t *testing.T) {
	ctx := context.Background()
	base := vec.LiveBatches()
	check := func(name string, cat *storage.Catalog, join *plan.HashJoin, want []types.Row) {
		t.Helper()
		e := New(cat, Config{BatchSize: 32})
		join = stripBuildSort(t, e, join)
		idx, err := e.Execute(ctx, join)
		if err != nil {
			t.Fatalf("%s: index-served join: %v", name, err)
		}
		if len(join.Schema().Cols) == 0 { // zero-width rows carry only their count
			if len(idx.Rows) != len(want) {
				t.Fatalf("%s: %d zero-width rows, want %d", name, len(idx.Rows), len(want))
			}
		} else {
			mustEqualRows(t, idx.Rows, want)
		}
		if n := e.Stats().IndexJoins; n != 1 {
			t.Fatalf("%s: %d index joins, want 1", name, n)
		}
		waitStagesIdle(t, e)
	}

	for round := 0; round < 200; round++ {
		r := rand.New(rand.NewSource(int64(round)*7919 + 1))
		jc := buildJoinCase(t, r)
		join := plan.NewHashJoinOut(jc.leftP, jc.rightP, jc.lkey, jc.rkey, randOutList(r, 3), randOutList(r, 3))
		check("random case", jc.cat, join, naiveJoin(join, jc.lrows, jc.rrows))
	}

	// Distinct dense keys 0..499 in shuffled order; probe keys in -10..509
	// as ints, integral and half floats, and NULLs.
	r := rand.New(rand.NewSource(3))
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64)
	dim := mustTable(t, cat, "uniq", []types.Column{{Name: "u_k", Kind: types.KindInt}, {Name: "u_a", Kind: types.KindInt}, {Name: "u_s", Kind: types.KindString}},
		func(i int) types.Row {
			return types.Row{types.NewInt(int64(i)), types.NewInt(int64(r.Intn(10))), types.NewString("s" + string(rune('a'+i%26)))}
		}, 500, r.Perm(500))
	fact := mustTable(t, cat, "fact", []types.Column{{Name: "f_k", Kind: types.KindInt}, {Name: "f_x", Kind: types.KindFloat}},
		func(i int) types.Row {
			k := int64(r.Intn(520) - 10)
			if r.Intn(10) == 0 {
				return types.Row{types.Null, types.Null}
			}
			x := float64(k)
			if r.Intn(4) == 0 {
				x += 0.5
			}
			return types.Row{types.NewInt(k), types.NewFloat(x)}
		}, 3000, nil)
	frows, _ := fact.File.AllRows()
	drows, _ := dim.File.AllRows()
	for i := 0; i < 20; i++ {
		cut, lo := int64(r.Intn(11)), int64(r.Intn(500))
		var right plan.Node = plan.NewScanFiltered(dim, expr.NewCmp(expr.LT, expr.C(1, "u_a"), expr.Int(cut)))
		if i%2 == 1 {
			right = plan.NewFilter(right, expr.NewCmp(expr.GE, expr.C(0, "u_k"), expr.Int(lo)))
		}
		var kept []types.Row
		for _, d := range drows {
			if d[1].I < cut && (i%2 == 0 || d[0].I >= lo) {
				kept = append(kept, d)
			}
		}
		join := plan.NewHashJoinOut(plan.NewScan(fact), right, i%2, 0, []int{0, 1}, randOutList(r, 3))
		check("distinct dense keys", cat, join, naiveJoin(join, frows, kept))
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d after the battery, want baseline %d", live, base)
	}
}

// TestNonIndexBuildSideIsRefused: a plan holding a hash join whose build side
// is not Filter*(Scan(T)) is refused with a *BuildSideError naming the node
// below the build side's filters, through Execute, Stream and ExecuteBatch
// beside a valid plan. The refused join sits under a root and its build
// side under a filter, so the check walks the chain. A refused plan starts
// nothing: no stage runs or attaches a packet, the result cache counts no
// lookup, and no batch or goroutine outlives the call. The valid plan then
// runs and shares as before.
func TestNonIndexBuildSideIsRefused(t *testing.T) {
	cat := testDB(t, 3000)
	sales, dept := cat.MustTable("sales"), cat.MustTable("dept")
	ctx := context.Background()
	valid := func() plan.Node { return plan.NewHashJoin(allSales(cat), plan.NewScan(dept), 1, 0) }
	want, err := newTestEngine(cat, Config{}).Execute(ctx, valid())
	if err != nil {
		t.Fatal(err)
	}
	byDept := plan.NewAggregate(plan.NewScan(sales), []plan.GroupCol{{Name: "dept", Kind: types.KindInt, Expr: expr.C(1, "dept")}},
		[]plan.AggSpec{{Func: plan.AggCount, Name: "n"}})
	for _, tc := range []struct {
		kind  plan.Kind
		build plan.Node // keyed on column 0
	}{
		{plan.KindProject, built(plan.NewScan(dept))},
		{plan.KindSort, plan.NewSort(plan.NewScan(dept), []plan.SortKey{{Col: 0}})},
		{plan.KindAggregate, byDept},
		{plan.KindHashJoin, plan.NewHashJoin(plan.NewScan(dept), plan.NewScan(dept), 0, 0)},
	} {
		build := plan.NewFilter(tc.build, expr.NewCmp(expr.GE, expr.C(0, "k"), expr.Int(0)))
		root := plan.NewLimit(plan.NewHashJoin(plan.NewScan(sales), build, 1, 0), 10)
		for _, path := range []string{"Execute", "Stream", "ExecuteBatch"} {
			t.Run(tc.kind.String()+"/"+path, func(t *testing.T) {
				e := newTestEngine(cat, Config{SP: true, Model: SPPull, ResultCache: true})
				live, routines := vec.LiveBatches(), runtime.NumGoroutine()
				var err error
				switch path {
				case "Execute":
					_, err = e.Execute(ctx, root)
				case "Stream":
					_, err = e.Stream(ctx, root)
				default:
					_, err = e.ExecuteBatch(ctx, []plan.Node{valid(), root})
				}
				mustRefuse(t, e, err, tc.kind)
				if !strings.Contains(err.Error(), "build side "+tc.kind.String()) {
					t.Errorf("%q does not name the %v build side", err, tc.kind)
				}
				if es := e.Stats(); es.CacheMisses != 0 || es.CacheHits != 0 || es.IndexJoins != 0 {
					t.Errorf("refused plan moved counters: %+v", es)
				}
				if n := vec.LiveBatches(); n != live {
					t.Errorf("LiveBatches = %d after the refusal, want %d", n, live)
				}
				if n := runtime.NumGoroutine(); n > routines {
					t.Errorf("%d goroutines after the refusal, want at most %d", n, routines)
				}

				results, err := e.ExecuteBatch(ctx, []plan.Node{valid(), valid()})
				if err != nil {
					t.Fatal(err)
				}
				for _, res := range results {
					mustEqualRows(t, res.Rows, want.Rows)
				}
				if js := e.StageStatsFor(plan.KindHashJoin); js.Executed != 1 || js.SPAttached != 1 {
					t.Errorf("join stage executed %d and attached %d, want 1 and 1", js.Executed, js.SPAttached)
				}
				waitStagesIdle(t, e)
			})
		}
	}
}

// mustTable creates a sealed table of n rows, row i drawn by row(order[i])
// (row(i) when order is nil).
func mustTable(t *testing.T, cat *storage.Catalog, name string, cols []types.Column, row func(i int) types.Row, n int, order []int) *storage.Table {
	t.Helper()
	tab, err := cat.CreateTable(name, types.NewSchema(cols...))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		if order != nil {
			rows[i] = row(order[i])
		} else {
			rows[i] = row(i)
		}
	}
	if err := tab.File.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := tab.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// A dimension appended to while a query probes it: the running query keeps
// the index of the version it started on, and the next query builds the
// new version and sees the new rows.
func TestAppendMidRunBuildsNewVersion(t *testing.T) {
	cat := testDB(t, 20000)
	mustOutgrowLists(t, cat, fifoDepth)
	sales := cat.MustTable("sales")
	// An unsealed dimension: a page is flushed, and visible, once full.
	grow, err := cat.CreateTable("grow", types.NewSchema(types.Column{Name: "g_k", Kind: types.KindInt}, types.Column{Name: "g_pad", Kind: types.KindString}))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	appendUntilPages := func(pages int) {
		for grow.File.NumPages() < pages {
			if err := grow.File.Append(types.Row{types.NewInt(int64(next)), types.NewString("pad-pad-pad-pad-pad")}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	appendUntilPages(1)
	// The later query probes a table of its own: a scan of sales would wait
	// on the running query's circular sweep, which waits on its reader.
	keys := mustTable(t, cat, "keys", []types.Column{{Name: "k", Kind: types.KindInt}}, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i))}
	}, 20000, nil)
	joinOn := func(probe *storage.Table) plan.Node {
		return plan.NewHashJoin(plan.NewScan(probe), plan.NewScan(grow), 0, 0)
	}
	join := func() plan.Node { return joinOn(sales) }
	// The reference joins through a map: the keys are distinct ints.
	want := func(probe *storage.Table) []types.Row {
		prows, _ := probe.File.AllRows()
		grows, _ := grow.File.AllRows()
		byKey := make(map[int64]types.Row, len(grows))
		for _, g := range grows {
			byKey[g[0].I] = g
		}
		var out []types.Row
		for _, p := range prows {
			if g, ok := byKey[p[0].I]; ok {
				out = append(out, p.Concat(g))
			}
		}
		return out
	}
	before := want(sales)

	e := newTestEngine(cat, Config{BatchSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := e.Stream(ctx, join())
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Next(ctx) // the join holds its index now
	if err != nil {
		t.Fatal(err)
	}
	rows := first.RowsView()
	first.Done()
	if cat.IndexBuilds() != 1 {
		t.Fatalf("%d index builds, want 1", cat.IndexBuilds())
	}

	appendUntilPages(2)
	after := want(keys)
	if len(after) <= len(before) {
		t.Fatalf("the appended page adds no match: %d rows before, %d after", len(before), len(after))
	}
	res, err := e.Execute(ctx, joinOn(keys))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, res.Rows, after)
	if cat.IndexBuilds() != 2 {
		t.Fatalf("%d index builds after the append, want 2", cat.IndexBuilds())
	}
	res, err = drain(ctx, join(), r)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, append(rows, res.Rows...), before)
}

// A failed dimension read fails the queries that needed that build and no
// other, and the failed build is not kept: once the disk heals, the next
// query builds the index and succeeds.
func TestFailedIndexBuildFailsOnlyItsQueries(t *testing.T) {
	cat, fd := faultEngineDB(t, 3000)
	cat.Pool().SetRetryPolicy(0, 0)
	sales, dept := cat.MustTable("sales"), cat.MustTable("dept")
	// A second dimension whose index builds cleanly.
	mustTable(t, cat, "dept2", []types.Column{{Name: "dk2", Kind: types.KindInt}}, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i))}
	}, 5, nil)
	bad := plan.NewHashJoin(plan.NewScan(sales), plan.NewScan(dept), 1, 0)
	good := plan.NewHashJoin(plan.NewScan(sales), plan.NewScan(cat.MustTable("dept2")), 1, 0)
	want, err := newTestEngine(cat, Config{}).Execute(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}

	fd.PoisonPage(dept.File.ID(), 0)
	cat.Pool().EvictFile(dept.File.ID())
	builds := cat.IndexBuilds()
	e := newTestEngine(cat, Config{})
	type out struct {
		res *Result
		err error
	}
	results := make(chan out, 3)
	for _, p := range []plan.Node{bad, good, bad} {
		go func() {
			res, err := e.Execute(context.Background(), p)
			results <- out{res, err}
		}()
	}
	failed := 0
	for range 3 {
		o := <-results
		var pe *storage.PageError
		switch {
		case errors.As(o.err, &pe):
			failed++
		case o.err != nil:
			t.Fatalf("a query failed untyped: %v", o.err)
		default:
			mustEqualRows(t, o.res.Rows, want.Rows)
		}
	}
	if failed != 2 {
		t.Fatalf("%d queries failed, want the 2 that join dept", failed)
	}
	if n := cat.IndexBuilds() - builds; n < 2 || n > 3 {
		t.Fatalf("%d index builds, want dept2's and one or two of dept's", n)
	}

	repair(cat, fd)
	res, err := e.Execute(context.Background(), bad)
	if err != nil {
		t.Fatalf("after repair: %v", err)
	}
	if len(res.Rows) != 3000 {
		t.Fatalf("after repair: %d rows, want 3000", len(res.Rows))
	}
}

// TestWarmJoinSelectionReusesScratch checks that a warm index-served join
// selects its build side without a chunk buffer of its own: the selection
// (selectBuild, what opHashJoin runs once per join) takes the kernel's
// temporaries from a scratch the engine's joins share, so over a 3 000-entry
// dimension it allocates the Keep alone, under the 4 KiB the chunk buffer
// would take.
func TestWarmJoinSelectionReusesScratch(t *testing.T) {
	regions := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64)
	dim := mustTable(t, cat, "cust", []types.Column{{Name: "c_k", Kind: types.KindInt}, {Name: "c_region", Kind: types.KindString}},
		func(i int) types.Row { return types.Row{types.NewInt(int64(i)), types.NewString(regions[i%5])} }, 3000, nil)
	ix, err := dim.Indexes.Acquire(context.Background(), dim.File, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Release()
	e := New(cat, Config{})
	pred := expr.CompileVec(expr.Eq(expr.C(1, "c_region"), expr.Str("ASIA")))
	if _, kept := e.selectBuild(ix.Table(), pred); kept != 600 { // warm-up
		t.Fatalf("selection kept %d entries, want 600", kept)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		e.selectBuild(ix.Table(), pred)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a warm selection over %d entries allocates %d B", ix.Table().Len(), per)
	if per >= 4096 {
		t.Errorf("a warm selection allocates %d B, want under 4 KiB", per)
	}
}
