package repro

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arena"
)

func TestSystemSSBRoundTrip(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Close()
	db, err := sys.LoadSSB(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SSB() != db || sys.GQP() == nil {
		t.Fatal("system accessors inconsistent after LoadSSB")
	}
	if _, err := sys.LoadSSB(0.0005, 1); err == nil {
		t.Error("double LoadSSB must fail")
	}

	e := sys.NewEngine(EngineConfig{SP: true, Model: SPPull})
	in := InstantiateSSB(db, Q3_2, rand.New(rand.NewSource(4)))
	ctx := context.Background()
	qc, err := e.Execute(ctx, in.Plan(false))
	if err != nil {
		t.Fatal(err)
	}
	gqp, err := e.Execute(ctx, in.Plan(true))
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]string, 0), make([]string, 0)
	for _, r := range qc.Rows {
		a = append(a, r.String())
	}
	for _, r := range gqp.Rows {
		b = append(b, r.String())
	}
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between strategies", i)
		}
	}
}

// TestSystemCJoinWorkersConfig checks the facade plumbs the GQP tuning
// through LoadSSB: a valid Workers count sticks, an invalid config errors.
func TestSystemCJoinWorkersConfig(t *testing.T) {
	sys := NewSystem(Config{CJoin: CJoinConfig{Workers: 3}})
	defer sys.Close()
	db, err := sys.LoadSSB(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.GQP().Config().Workers; got != 3 {
		t.Errorf("GQP workers = %d, want 3", got)
	}
	e := sys.NewEngine(EngineConfig{})
	in := InstantiateSSB(db, Q2_1, rand.New(rand.NewSource(9)))
	if _, err := e.Execute(context.Background(), in.Plan(true)); err != nil {
		t.Fatal(err)
	}

	bad := NewSystem(Config{CJoin: CJoinConfig{Workers: -2}})
	defer bad.Close()
	if _, err := bad.LoadSSB(0.0005, 1); err == nil {
		t.Error("LoadSSB accepted an invalid CJoin config")
	}
}

func TestSystemTPCHQ1(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Close()
	tbl, err := sys.LoadTPCH(0.0005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadTPCH(0.0005, 1); err == nil {
		t.Error("double LoadTPCH must fail")
	}
	e := sys.NewEngine(EngineConfig{})
	res, err := e.Execute(context.Background(), Q1Plan(tbl, 90))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Q1 groups = %d, want 4", len(res.Rows))
	}
}

func TestSystemDiskResidentProfile(t *testing.T) {
	sys := NewSystem(Config{DiskResident: true, BufferPoolPages: 64})
	defer sys.Close()
	if _, err := sys.LoadTPCH(0.0005, 1); err != nil {
		t.Fatal(err)
	}
	if got := sys.Catalog().Pool().Size(); got != 64 {
		t.Errorf("pool size = %d, want 64", got)
	}
}

// TestSystemCloseReturnsArena: Close gives the buffer pool's frames and the
// simulated disk's pages back to the arena, from their owners rather than from
// finalizers.
func TestSystemCloseReturnsArena(t *testing.T) {
	arena.Settle()
	before := arena.Snapshot()
	sys := NewSystem(Config{})
	db, err := sys.LoadSSB(0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := InstantiateSSB(db, Q2_1, rand.New(rand.NewSource(3)))
	if _, err := sys.NewEngine(EngineConfig{}).Execute(context.Background(), in.Plan(true)); err != nil {
		t.Fatal(err)
	}
	if mid := arena.Snapshot(); mid.PagesInUse == before.PagesInUse {
		t.Fatal("a loaded system holds no arena pages")
	}
	sys.Close()
	sys.Close()
	if after := arena.Snapshot(); after.PagesInUse != before.PagesInUse || after.Reclaimed != before.Reclaimed {
		t.Errorf("arena after Close: %+v, before the system %+v", after, before)
	}
}
