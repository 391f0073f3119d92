package cjoin

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// faultStar builds a star schema whose fact table sits behind a FaultDisk
// and a deliberately tiny buffer pool so the circular scan keeps hitting the
// disk.
// arenaBalance settles the finalizers of what earlier tests dropped, notes
// the arena's gauges, and returns the check a battery runs once its operator
// is shut down: closing the pool finds no frame pinned, and with the disk
// closed too every page is back — from its owner, not from a finalizer.
func arenaBalance(t *testing.T) (check func(cat *storage.Catalog)) {
	arena.Settle()
	before := arena.Snapshot()
	return func(cat *storage.Catalog) {
		t.Helper()
		if err := cat.Pool().Close(); err != nil {
			t.Error(err)
		}
		if err := cat.Disk().Close(); err != nil {
			t.Error(err)
		}
		if now := arena.Snapshot(); now.PagesInUse != before.PagesInUse || now.Reclaimed != before.Reclaimed {
			t.Errorf("arena after the battery: %+v, before it %+v", now, before)
		}
	}
}

func faultStar(t *testing.T, n int) (*storage.Catalog, *storage.FaultDisk) {
	return faultStarProf(t, n, storage.DiskProfile{})
}

// faultStarProf is faultStar with the simulated disk profile exposed (slow
// profiles make mid-sweep deadlines deterministic).
func faultStarProf(t *testing.T, n int, prof storage.DiskProfile) (*storage.Catalog, *storage.FaultDisk) {
	t.Helper()
	fd := storage.NewFaultDisk(storage.NewMemDisk(prof))
	cat := storage.NewCatalog(fd, 4, true)

	lo, err := cat.CreateTable("lo", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "fk", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Unique pads keep the fact table many pages larger than the pool even
	// under the columnar format's dictionary compression.
	pad := strings.Repeat("z", 80)
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 5)), types.NewString(pad + strconv.Itoa(i))}
		if err := lo.File.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := lo.File.Seal(); err != nil {
		t.Fatal(err)
	}

	dim, err := cat.CreateTable("d", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := dim.File.Append(types.Row{types.NewInt(int64(i)), types.NewString("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dim.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return cat, fd
}

func TestFaultMidSweepFailsActiveQueriesAndRecovers(t *testing.T) {
	cat, fd := faultStar(t, 20000)
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("d"), FactKeyCol: 1, DimKeyCol: 0},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()

	q := &plan.StarQuery{
		Fact: cat.MustTable("lo"), FactCols: []int{0},
		Dims: []plan.DimJoin{{Table: cat.MustTable("d"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}}},
	}

	// Healthy sweep.
	if rows := runStar(t, op, q); len(rows) != 20000 {
		t.Fatalf("healthy sweep rows = %d", len(rows))
	}

	// Inject a fault a few reads into the next sweep: the active query must
	// fail with the injected error, promptly.
	fd.FailReadsAfter(3)
	errCh := make(chan error, 1)
	go func() {
		errCh <- op.Run(context.Background(), q, func(*batch.Batch) error { return nil })
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("err = %v, want injected fault", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("faulted query did not fail")
	}

	// After healing the disk AND lifting the pool's quarantine, the
	// pipeline must serve new queries again (quarantine is sticky by
	// design: a page that exhausted its retries stays failed until an
	// operator clears it).
	fd.Heal()
	cat.Pool().ClearQuarantine()
	if rows := runStar(t, op, q); len(rows) != 20000 {
		t.Fatalf("post-heal sweep rows = %d", len(rows))
	}
	st := op.Stats()
	if st.Completed != 2 {
		t.Errorf("Completed = %d, want 2 (the faulted query must not count)", st.Completed)
	}
	if st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
	if st.PagesQuarantined == 0 {
		t.Error("PagesQuarantined = 0, want > 0")
	}
	if cat.Pool().DecodeStats().Retries == 0 {
		t.Error("pool Retries = 0, want > 0 (transient classification must retry)")
	}
}
