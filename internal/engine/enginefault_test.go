package engine

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// faultEngineDB is testDB over a FaultDisk: the same sales/dept star with a
// pool small enough that scans keep reaching the (faultable) disk.
func faultEngineDB(t *testing.T, n int) (*storage.Catalog, *storage.FaultDisk) {
	t.Helper()
	fd := storage.NewFaultDisk(storage.NewMemDisk(storage.DiskProfile{}))
	cat := storage.NewCatalog(fd, 8)

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
	pad := strings.Repeat("x", 40)
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(5))),
			types.NewFloat(float64(r.Intn(1000)) / 10),
			types.NewString(pad + strconv.Itoa(i)),
		}
		if err := sales.File.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sales.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if sales.File.NumPages() < 3 {
		t.Fatalf("fixture too small: %d pages", sales.File.NumPages())
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
	return cat, fd
}

func joinPlan(cat *storage.Catalog) plan.Node {
	return plan.NewHashJoin(
		plan.NewScan(cat.MustTable("sales")),
		plan.NewScan(cat.MustTable("dept")),
		1, 0)
}

// repair heals the disk, lifts the quarantines and evicts both tables so
// the next run re-reads clean bytes from disk.
func repair(cat *storage.Catalog, fd *storage.FaultDisk) {
	fd.Heal()
	cat.Pool().ClearQuarantine()
	cat.Pool().EvictFile(cat.MustTable("sales").File.ID())
	cat.Pool().EvictFile(cat.MustTable("dept").File.ID())
}

func TestScanFaultFailsTypedAndEngineRecovers(t *testing.T) {
	cat, fd := faultEngineDB(t, 3000)
	cat.Pool().SetRetryPolicy(0, 0)
	e := newTestEngine(cat, Config{})
	sales := cat.MustTable("sales")

	fd.PoisonPage(sales.File.ID(), 0)
	cat.Pool().EvictFile(sales.File.ID())
	_, err := e.Execute(context.Background(), plan.NewScan(sales))
	var pe *storage.PageError
	if !errors.As(err, &pe) {
		t.Fatalf("scan over poisoned page: err = %v, want *PageError", err)
	}
	if pe.Table != "sales" || pe.Page != 0 {
		t.Errorf("PageError = %+v, want table \"sales\" page 0", pe)
	}

	// Same engine, after repair: the scan completes in full.
	repair(cat, fd)
	res, err := e.Execute(context.Background(), plan.NewScan(sales))
	if err != nil {
		t.Fatalf("post-repair scan: %v", err)
	}
	if len(res.Rows) != 3000 {
		t.Fatalf("post-repair rows = %d, want 3000", len(res.Rows))
	}
}

// TestHashJoinBuildFaultTypedNoLeak faults the columnar hash join's build
// side: the query fails with a typed PageError and — with the join's
// operator goroutines done and both tables evicted — the live-batch gauge
// returns to its pre-query baseline (no leaked ColBatch references on the
// abort path).
func TestHashJoinBuildFaultTypedNoLeak(t *testing.T) {
	cat, fd := faultEngineDB(t, 3000)
	cat.Pool().SetRetryPolicy(0, 0)
	e := newTestEngine(cat, Config{})
	dept := cat.MustTable("dept")

	// Baseline with everything evicted so pool-resident frames don't skew
	// the gauge.
	repair(cat, fd)
	liveBefore := vec.LiveBatches()

	fd.PoisonPage(dept.File.ID(), 0)
	_, err := e.Execute(context.Background(), joinPlan(cat))
	var pe *storage.PageError
	if !errors.As(err, &pe) {
		t.Fatalf("build-side fault: err = %v, want *PageError", err)
	}
	if pe.Table != "dept" {
		t.Errorf("PageError.Table = %q, want \"dept\"", pe.Table)
	}

	waitStagesIdle(t, e)
	repair(cat, fd)
	if live := vec.LiveBatches(); live != liveBefore {
		t.Errorf("build-side abort leaked batch refs: LiveBatches = %d, baseline %d", live, liveBefore)
	}

	// The engine still joins correctly after repair.
	res, err := e.Execute(context.Background(), joinPlan(cat))
	if err != nil {
		t.Fatalf("post-repair join: %v", err)
	}
	if len(res.Rows) != 3000 {
		t.Fatalf("post-repair join rows = %d, want 3000", len(res.Rows))
	}
}

// TestHashJoinProbeFaultTypedNoLeak faults the probe (left) side mid-scan:
// the join has already produced pending output when the fault lands, and
// that pending pooled batch must go back to the pool on the abort path.
func TestHashJoinProbeFaultTypedNoLeak(t *testing.T) {
	cat, fd := faultEngineDB(t, 3000)
	cat.Pool().SetRetryPolicy(0, 0)
	e := newTestEngine(cat, Config{})
	sales := cat.MustTable("sales")

	repair(cat, fd)
	liveBefore := vec.LiveBatches()

	// Let the build side (dept) and the first probe pages through, then
	// fail: the join is mid-probe with matches accumulated.
	fd.Target(sales.File.ID())
	fd.PoisonPage(sales.File.ID(), sales.File.NumPages()/2)
	_, err := e.Execute(context.Background(), joinPlan(cat))
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("probe-side fault: err = %v, want injected cause", err)
	}

	waitStagesIdle(t, e)
	fd.TargetAll()
	repair(cat, fd)
	if live := vec.LiveBatches(); live != liveBefore {
		t.Errorf("probe-side abort leaked batch refs: LiveBatches = %d, baseline %d", live, liveBefore)
	}

	res, err := e.Execute(context.Background(), joinPlan(cat))
	if err != nil {
		t.Fatalf("post-repair join: %v", err)
	}
	if len(res.Rows) != 3000 {
		t.Fatalf("post-repair join rows = %d, want 3000", len(res.Rows))
	}
}

// TestFaultedQueryNotCached: a query that failed on a quarantined page must
// not populate the result cache — the post-repair repeat re-executes and
// returns the full result instead of a phantom.
func TestFaultedQueryNotCached(t *testing.T) {
	cat, fd := faultEngineDB(t, 3000)
	cat.Pool().SetRetryPolicy(0, 0)
	e := newTestEngine(cat, Config{ResultCache: true})
	sales := cat.MustTable("sales")
	q := plan.NewScan(sales)

	fd.PoisonPage(sales.File.ID(), 1)
	cat.Pool().EvictFile(sales.File.ID())
	if _, err := e.Execute(context.Background(), q); err == nil {
		t.Fatal("faulted query succeeded")
	}

	repair(cat, fd)
	res, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("post-repair repeat: %v", err)
	}
	if len(res.Rows) != 3000 {
		t.Fatalf("post-repair repeat rows = %d, want 3000 (failed run was cached?)", len(res.Rows))
	}
	if st := e.Stats(); st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 — the failed run must not have been stored", st.CacheHits)
	}
}

// TestCanceledQueryNotCached: a query drained under a canceled context must
// not populate the cache with its (possibly truncated) row set.
func TestCanceledQueryNotCached(t *testing.T) {
	cat, _ := faultEngineDB(t, 3000)
	e := newTestEngine(cat, Config{ResultCache: true})
	q := plan.NewScan(cat.MustTable("sales"))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled execute err = %v, want context.Canceled", err)
	}

	res, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("repeat after cancel: %v", err)
	}
	if len(res.Rows) != 3000 {
		t.Fatalf("repeat rows = %d, want 3000 (canceled run was cached?)", len(res.Rows))
	}
	if st := e.Stats(); st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 — the canceled run must not have been stored", st.CacheHits)
	}
}

// waitStagesIdle blocks until every stage's active-packet gauge reads zero:
// Execute returns when the root drains, but aborted upstream packets may
// still be tearing down (releasing their in-flight batches).
func waitStagesIdle(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		idle := true
		for _, st := range e.stages {
			if st.active.Load() != 0 {
				idle = false
			}
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stages did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}
