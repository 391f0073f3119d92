package engine

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

func TestLimitReturnsExactlyN(t *testing.T) {
	cat := testDB(t, 5000)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	res, err := e.Execute(context.Background(), plan.NewLimit(plan.NewScan(tbl), 37))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 37 {
		t.Fatalf("limit returned %d rows, want 37", len(res.Rows))
	}
}

func TestLimitLargerThanInput(t *testing.T) {
	cat := testDB(t, 50)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	res, err := e.Execute(context.Background(), plan.NewLimit(plan.NewScan(tbl), 500))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("limit over short input returned %d rows, want 50", len(res.Rows))
	}
}

func TestLimitCancelsUpstreamScan(t *testing.T) {
	// A small limit over a large table must not scan the whole table: the
	// limit packet detaches, the scan aborts, and the buffer pool sees far
	// fewer fetches than the table has pages.
	cat := testDB(t, 60000)
	tbl := cat.MustTable("sales")
	npages := tbl.File.NumPages()
	// The scan runs at most a list ahead of the limit, which half the
	// table must exceed with room to spare.
	mustOutgrowLists(t, cat, 2*fifoDepth)
	e := newTestEngine(cat, Config{})
	before := cat.Pool().Stats()
	res, err := e.Execute(context.Background(), plan.NewLimit(plan.NewScan(tbl), 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	after := cat.Pool().Stats()
	fetches := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	if fetches > int64(npages/2) {
		t.Errorf("limit scanned %d pages of %d; upstream cancellation not effective", fetches, npages)
	}
}

func TestLimitOnSortIsTopN(t *testing.T) {
	cat := testDB(t, 2000)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	top := plan.NewLimit(plan.NewSort(plan.NewScan(tbl), []plan.SortKey{{Col: 2, Desc: true}}), 5)
	res, err := e.Execute(context.Background(), top)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("top-5 returned %d rows", len(res.Rows))
	}
	// Verify these are the global maxima.
	all := salesRows(t, cat)
	max := 0.0
	for _, r := range all {
		if r[2].F > max {
			max = r[2].F
		}
	}
	if res.Rows[0][2].F != max {
		t.Errorf("top row amount = %v, want global max %v", res.Rows[0][2].F, max)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][2].F > res.Rows[i-1][2].F {
			t.Error("top-N not ordered")
		}
	}
}

func TestScanPushdownMatchesFilter(t *testing.T) {
	cat := testDB(t, 3000)
	e := newTestEngine(cat, Config{})
	tbl := cat.MustTable("sales")
	pred := expr.NewCmp(expr.LT, expr.C(1, "dept"), expr.Int(2))
	ctx := context.Background()

	pushed, err := e.Execute(ctx, plan.NewScanFiltered(tbl, pred))
	if err != nil {
		t.Fatal(err)
	}
	separate, err := e.Execute(ctx, plan.NewFilter(plan.NewScan(tbl), pred))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, pushed.Rows, separate.Rows)
}

func TestScanPushdownSharingRespectsPredicates(t *testing.T) {
	cat := testDB(t, 2000)
	e := newTestEngine(cat, Config{SP: true, Model: SPPull,
		SPStages: map[plan.Kind]bool{plan.KindScan: true}})
	tbl := cat.MustTable("sales")
	p1 := expr.NewCmp(expr.LT, expr.C(1, "dept"), expr.Int(2))
	p2 := expr.NewCmp(expr.LT, expr.C(1, "dept"), expr.Int(3))
	ctx := context.Background()

	// Same pushed predicate: shares.
	if _, err := e.ExecuteBatch(ctx, []plan.Node{
		plan.NewScanFiltered(tbl, p1), plan.NewScanFiltered(tbl, p1),
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.StageStatsFor(plan.KindScan).SPAttached; got != 1 {
		t.Errorf("identical pushed scans: attached = %d, want 1", got)
	}
	// Different pushed predicates: must not share.
	e2 := newTestEngine(cat, Config{SP: true, Model: SPPull,
		SPStages: map[plan.Kind]bool{plan.KindScan: true}})
	if _, err := e2.ExecuteBatch(ctx, []plan.Node{
		plan.NewScanFiltered(tbl, p1), plan.NewScanFiltered(tbl, p2),
	}); err != nil {
		t.Fatal(err)
	}
	if got := e2.StageStatsFor(plan.KindScan).SPAttached; got != 0 {
		t.Errorf("different pushed scans: attached = %d, want 0", got)
	}
}

// faultDB builds a catalog over a FaultDisk with a pool smaller than the
// table so reads keep reaching the disk.
func faultDB(t *testing.T, n int) (*storage.Catalog, *storage.FaultDisk) {
	t.Helper()
	fd := storage.NewFaultDisk(storage.NewMemDisk(storage.DiskProfile{}))
	cat := storage.NewCatalog(fd, 4)
	tbl, err := cat.CreateTable("sales", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Unique pads keep the table many pages larger than the pool even under
	// the columnar format's dictionary compression.
	pad := strings.Repeat("x", 100)
	for i := 0; i < n; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString(pad + strconv.Itoa(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return cat, fd
}

func TestInjectedReadFaultPropagatesAndHeals(t *testing.T) {
	cat, fd := faultDB(t, 10000)
	e := New(cat, Config{})
	tbl := cat.MustTable("sales")
	ctx := context.Background()

	// Healthy run.
	res, err := e.Execute(ctx, plan.NewScan(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10000 {
		t.Fatalf("rows = %d", len(res.Rows))
	}

	// Fault mid-scan: the query must fail with the injected error, not hang.
	fd.FailReadsAfter(5)
	if _, err := e.Execute(ctx, plan.NewScan(tbl)); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if fd.Injected() == 0 {
		t.Fatal("fault never fired")
	}

	// Heal the disk and lift the pool's sticky quarantine: subsequent
	// queries succeed again.
	fd.Heal()
	cat.Pool().ClearQuarantine()
	res, err = e.Execute(ctx, plan.NewScan(tbl))
	if err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if len(res.Rows) != 10000 {
		t.Fatalf("after heal rows = %d", len(res.Rows))
	}
}

func TestInjectedFaultFailsAllSPConsumers(t *testing.T) {
	cat, fd := faultDB(t, 10000)
	e := New(cat, Config{SP: true, Model: SPPull})
	tbl := cat.MustTable("sales")
	ctx := context.Background()

	fd.FailReadsAfter(5)
	defer fd.Heal()
	_, err := e.ExecuteBatch(ctx, []plan.Node{plan.NewScan(tbl), plan.NewScan(tbl)})
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected fault for the shared batch", err)
	}
}
