package engine

import (
	"context"
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
// filter sub-plans: the left (probe) input is dispatched first, then the
// right (build) input, which the hash join drains before it reads the left.
func selfJoin(cat *storage.Catalog) plan.Node {
	return plan.NewHashJoin(allSales(cat), allSales(cat), 0, 0)
}

// TestSelfJoinNeverAttachesToItself: a plan whose two join inputs are the
// same sub-plan runs both. Were the build side a satellite of the probe side,
// the join would drain it while its probe-side reader held page 0, and the
// shared producer would block on its full list for good.
func TestSelfJoinNeverAttachesToItself(t *testing.T) {
	cat := testDB(t, 80000)
	mustOutgrowLists(t, cat, fifoDepth)
	var want []types.Row
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"off", Config{}},
		{"push", Config{SP: true, Model: SPPush}},
		{"pull", Config{SP: true, Model: SPPull}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(cat, tc.cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := e.Execute(ctx, selfJoin(cat))
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
// when the producer is another query's, directly or below a host it attached
// to. Only the filter stage shares, and the first query's packets host.
func TestQueryReadsAPacketOnce(t *testing.T) {
	cat := testDB(t, 80000)
	mustOutgrowLists(t, cat, fifoDepth)
	above := func() plan.Node {
		return plan.NewFilter(allSales(cat), expr.NewCmp(expr.GE, expr.C(0, "id"), expr.Int(1)))
	}
	for _, tc := range []struct {
		name     string
		roots    []plan.Node
		executed int64 // filter packets run; one attach in every case
	}{
		// The second self-join's probe side attaches to the first's; its
		// build side runs its own packet rather than read that one again.
		{"two self-joins", []plan.Node{selfJoin(cat), selfJoin(cat)}, 3},
		// The join's probe side attaches to the first query's upper filter,
		// so its build side may not attach to the filter below it.
		{"host above", []plan.Node{above(), plan.NewHashJoin(above(), allSales(cat), 0, 0)}, 3},
		// The probe side attaches to the lower filter, so the build side
		// runs both filters itself.
		{"host below", []plan.Node{above(), plan.NewHashJoin(allSales(cat), above(), 0, 0)}, 4},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		want, err := newTestEngine(cat, Config{}).ExecuteBatch(ctx, tc.roots)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []SPModel{SPPush, SPPull} {
			t.Run(tc.name+"/"+spTestName[model], func(t *testing.T) {
				e := newTestEngine(cat, Config{SP: true, Model: model, SPStages: map[plan.Kind]bool{plan.KindFilter: true}})
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				results, err := e.ExecuteBatch(ctx, tc.roots)
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range results {
					mustEqualRows(t, res.Rows, want[i].Rows)
				}
				if fs := e.StageStatsFor(plan.KindFilter); fs.SPAttached != 1 || fs.Executed != tc.executed {
					t.Errorf("filter stage attached %d and executed %d, want 1 and %d", fs.SPAttached, fs.Executed, tc.executed)
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
