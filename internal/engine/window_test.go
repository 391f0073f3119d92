package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// allSales is the filter every query in this file shares: it passes every row
// of the sales table.
func allSales(cat *storage.Catalog) plan.Node {
	return plan.NewFilter(plan.NewScan(cat.MustTable("sales")), expr.NewCmp(expr.GE, expr.C(0, "id"), expr.Int(0)))
}

// selfJoin joins the sales table to itself on id through two identical
// filter sub-plans. Its build side is a filtered scan, so the sales table's
// shared index serves it and only the probe side runs as packets.
func selfJoin(cat *storage.Catalog) plan.Node {
	return plan.NewHashJoin(allSales(cat), allSales(cat), 0, 0)
}

// built hides n from the shared index behind a projection of every column:
// the engine refuses a hash join over it.
func built(n plan.Node) plan.Node {
	sc := n.Schema()
	cols := make([]plan.ProjCol, sc.Len())
	for i, c := range sc.Cols {
		cols[i] = plan.ProjCol{Name: c.Name, Kind: c.Kind, Expr: expr.C(i, c.Name)}
	}
	return plan.NewProject(n, cols)
}

// mustRefuse asserts that err is the typed refusal of a hash join whose build
// side holds a node of kind k, and that no stage of e ran a packet.
func mustRefuse(t *testing.T, e *Engine, err error, k plan.Kind) {
	t.Helper()
	var bse *BuildSideError
	if !errors.As(err, &bse) || bse.Kind != k {
		t.Fatalf("got %v, want a *BuildSideError naming a %v build side", err, k)
	}
	for _, s := range e.Stats().Stages {
		if s.Executed != 0 || s.SPAttached != 0 {
			t.Fatalf("refused plan moved the %v stage: executed %d, attached %d", s.Kind, s.Executed, s.SPAttached)
		}
	}
}

// TestSelfJoinNeverAttachesToItself: a plan whose two join inputs are the
// same sub-plan runs. Were the build side a satellite of the probe side,
// the join would drain it while its probe-side reader held page 0, and the
// shared producer would block on its full list for good. The index-served
// self-join runs no build packet; the engine refuses the built one before it
// starts.
func TestSelfJoinNeverAttachesToItself(t *testing.T) {
	cat := testDB(t, 80000)
	mustOutgrowLists(t, cat, fifoDepth)
	var want []types.Row
	for _, tc := range []struct {
		name string
		cfg  Config
		root plan.Node
	}{
		{"off", Config{}, selfJoin(cat)},
		{"push", Config{SP: true, Model: SPPush}, selfJoin(cat)},
		{"pull", Config{SP: true, Model: SPPull}, selfJoin(cat)},
		{"built/push", Config{SP: true, Model: SPPush}, plan.NewHashJoin(allSales(cat), built(allSales(cat)), 0, 0)},
		{"built/pull", Config{SP: true, Model: SPPull}, plan.NewHashJoin(allSales(cat), built(allSales(cat)), 0, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(cat, tc.cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := e.Execute(ctx, tc.root)
			if _, _, ok := tc.root.(*plan.HashJoin).IndexedBuild(); !ok {
				mustRefuse(t, e, err, plan.KindProject)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				if len(res.Rows) != 80000 {
					t.Fatalf("SP off: %d rows, want 80000", len(res.Rows))
				}
				want = res.Rows
			}
			mustEqualRows(t, res.Rows, want)
			if fs := e.StageStatsFor(plan.KindFilter); fs.SPAttached != 0 {
				t.Errorf("filter stage attached %d, want 0", fs.SPAttached)
			}
		})
	}
}

// TestQueryReadsAPacketOnce: a query never reads one producer twice, also
// when the producer is another query's. Every packet has at most one input,
// so a query's packets form a chain, and the engine needs no guard for it.
// The cases that read sales twice through the build sides of two nested
// joins, each a projection no shared index serves, are refused before any
// packet starts. Index-served build sides run no packet: nested self-joins
// share wherever their chains agree.
func TestQueryReadsAPacketOnce(t *testing.T) {
	cat := testDB(t, 20000)
	mustOutgrowLists(t, cat, fifoDepth)
	sales := cat.MustTable("sales")
	above := func() plan.Node {
		return plan.NewFilter(allSales(cat), expr.NewCmp(expr.GE, expr.C(0, "id"), expr.Int(1)))
	}
	// join builds b and probes with an unshared scan of sales.
	join := func(b plan.Node) plan.Node { return plan.NewHashJoin(plan.NewScan(sales), built(b), 0, 0) }
	// twice joins inner's output to a second build side.
	twice := func(inner, b plan.Node) plan.Node {
		return plan.NewHashJoinOut(inner, built(b), 0, 0, []int{0, 1, 2, 3}, []int{0, 1, 2, 3})
	}
	// nested joins an index-served self-join to sales through its index
	// again, carrying rightOut of the outer build side.
	nested := func(rightOut []int) plan.Node {
		return plan.NewHashJoinOut(selfJoin(cat), allSales(cat), 0, 0, []int{0, 1, 2, 3}, rightOut)
	}
	filterOnly := map[plan.Kind]bool{plan.KindFilter: true}
	for _, tc := range []struct {
		name     string
		roots    []plan.Node
		stages   map[plan.Kind]bool // the stages that share
		refused  bool
		executed int64 // filter packets run
		attached int64
	}{
		{name: "two self-joins", roots: []plan.Node{twice(join(allSales(cat)), allSales(cat)), twice(join(allSales(cat)), allSales(cat))}, stages: filterOnly, refused: true},
		{name: "host above", roots: []plan.Node{join(above()), twice(join(above()), allSales(cat))}, stages: filterOnly, refused: true},
		{name: "host below", roots: []plan.Node{join(above()), twice(join(allSales(cat)), above())}, stages: filterOnly, refused: true},
		// Index-served build sides run no packet: the second query's probe
		// side attaches to the first's.
		{name: "index-served self-joins", roots: []plan.Node{selfJoin(cat), selfJoin(cat)}, stages: filterOnly, executed: 1, attached: 1},
		// With the scan, filter and join stages sharing, the second query
		// runs its own outer join, whose output list differs, and attaches
		// to the first's inner self-join, which reads the one filter packet.
		{name: "nested index-served self-joins", roots: []plan.Node{nested([]int{0, 1, 2, 3}), nested([]int{0, 1})},
			stages: map[plan.Kind]bool{plan.KindScan: true, plan.KindFilter: true, plan.KindHashJoin: true}, executed: 1},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		want, err := newTestEngine(cat, Config{}).ExecuteBatch(ctx, tc.roots)
		cancel()
		if err != nil && !tc.refused {
			t.Fatal(err)
		}
		for _, model := range []SPModel{SPPush, SPPull} {
			t.Run(tc.name+"/"+spTestName[model], func(t *testing.T) {
				e := newTestEngine(cat, Config{SP: true, Model: model, SPStages: tc.stages})
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				results, err := e.ExecuteBatch(ctx, tc.roots)
				if tc.refused {
					mustRefuse(t, e, err, plan.KindProject)
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range results {
					mustEqualRows(t, res.Rows, want[i].Rows)
				}
				if fs := e.StageStatsFor(plan.KindFilter); fs.SPAttached != tc.attached || fs.Executed != tc.executed {
					t.Errorf("filter stage attached %d and executed %d, want %d and %d", fs.SPAttached, fs.Executed, tc.attached, tc.executed)
				}
			})
		}
	}
}

// TestOppositeRolesDoNotBlock: two queries that join the same two sub-plans
// in opposite build and probe roles, HashJoin(X, Y) beside HashJoin(Y, X),
// both finish under either SP model. Were one query's probe side shared with
// the other's build side, each join would drain a build side whose other
// reader, the other join's probe side, waits at page 0, and both producers
// would block on their full lists. Index-served build sides run no packet,
// and the engine refuses every other build side before it starts.
func TestOppositeRolesDoNotBlock(t *testing.T) {
	cat := testDB(t, 20000)
	mustOutgrowLists(t, cat, fifoDepth)
	x := func() plan.Node { return allSales(cat) }
	y := func() plan.Node {
		return plan.NewFilter(plan.NewScan(cat.MustTable("sales")), expr.NewCmp(expr.GE, expr.C(0, "id"), expr.Int(1)))
	}
	id := func(n plan.Node) plan.Node { return n }
	nested := func(l, r plan.Node) plan.Node {
		inner := plan.NewHashJoin(l, built(r), 0, 0)
		return plan.NewHashJoinOut(plan.NewScan(cat.MustTable("sales")), built(inner), 0, 0, []int{0, 1, 2, 3}, []int{0, 1, 2, 3})
	}
	for _, form := range []struct {
		name    string
		join    func(l, r plan.Node) plan.Node
		refused bool
	}{
		{"index-served", func(l, r plan.Node) plan.Node { return plan.NewHashJoin(l, id(r), 0, 0) }, false},
		{"built", func(l, r plan.Node) plan.Node { return plan.NewHashJoin(l, built(r), 0, 0) }, true},
		{"built one join deep", nested, true},
	} {
		roots := []plan.Node{form.join(x(), y()), form.join(y(), x())}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		want, err := newTestEngine(cat, Config{}).ExecuteBatch(ctx, roots)
		cancel()
		if err != nil && !form.refused {
			t.Fatal(err)
		}
		for _, model := range []SPModel{SPPush, SPPull} {
			t.Run(form.name+"/"+spTestName[model], func(t *testing.T) {
				e := newTestEngine(cat, Config{SP: true, Model: model, SPStages: map[plan.Kind]bool{plan.KindFilter: true}})
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				results, err := e.ExecuteBatch(ctx, roots)
				if form.refused {
					mustRefuse(t, e, err, plan.KindProject)
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range results {
					mustEqualRows(t, res.Rows, want[i].Rows)
				}
				if fs := e.StageStatsFor(plan.KindFilter); fs.SPAttached != 0 {
					t.Errorf("filter stage attached %d, want 0", fs.SPAttached)
				}
			})
		}
	}
}

// TestPullWindowOutlivesFullList: under pull SP the list depth bounds what a
// host holds and page 0 bounds its sharing window. A host whose only reader
// has not read page 0 stops at exactly fifoDepth retained pages, its producer
// blocked on the full list, and a satellite dispatched then still attaches.
func TestPullWindowOutlivesFullList(t *testing.T) {
	cat := testDB(t, 20000)
	mustOutgrowLists(t, cat, fifoDepth)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	want, err := newTestEngine(cat, Config{}).Execute(ctx, allSales(cat))
	if err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(cat, Config{SP: true, Model: SPPull, BatchSize: 16})
	r1, err := e.dispatch(ctx, allSales(cat), closedGate)
	if err != nil {
		t.Fatal(err)
	}
	st := e.stage(plan.KindFilter)
	st.mu.Lock()
	host := st.inflight[plan.Fingerprint(allSales(cat))]
	st.mu.Unlock()
	list := host.lists[0]
	for list.Retained() < fifoDepth {
		if ctx.Err() != nil {
			t.Fatalf("host retained %d pages, want %d", list.Retained(), fifoDepth)
		}
		time.Sleep(time.Millisecond)
	}
	// The producer has more pages than the list holds; it waits, it does not
	// append past the depth.
	time.Sleep(20 * time.Millisecond)
	if n := list.Retained(); n != fifoDepth {
		t.Fatalf("host retained %d pages, want %d", n, fifoDepth)
	}

	r2, err := e.dispatch(ctx, allSales(cat), closedGate)
	if err != nil {
		t.Fatal(err)
	}
	if fs := st.Stats(); fs.SPAttached != 1 || fs.SPMissed != 0 {
		t.Fatalf("filter stage attached %d and missed %d, want 1 and 0", fs.SPAttached, fs.SPMissed)
	}
	// One shared list: neither reader gets past the other by more than the
	// depth, so both drain at once.
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, r := range []Reader{r1, r2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = drain(ctx, allSales(cat), r)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRows(t, results[i].Rows, want.Rows)
	}
}
