package cjoin

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// newOpCfg is newOp with an explicit config (fold toggles, worker counts).
func newOpCfg(t testing.TB, cat *storage.Catalog, cfg Config) *Operator {
	t.Helper()
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
		{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op.Close)
	return op
}

// slowStarDB rebuilds the starDB tables on a latency-charging disk with a
// tiny buffer pool, so fact sweeps take long enough that a second admission
// reliably lands mid-sweep. Pads are unique per row (starDB's constant pad
// dictionary-encodes into nothing, collapsing the fact table to a page or
// two — far too fast to graft against).
func slowStarDB(t testing.TB, n int, lat time.Duration) *storage.Catalog {
	t.Helper()
	return slowStarDBPool(t, n, lat, 4)
}

// slowStarDBPool is slowStarDB over a buffer pool of the given frame count.
func slowStarDBPool(t testing.TB, n int, lat time.Duration, frames int) *storage.Catalog {
	t.Helper()
	src := starDB(t, n)
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{
		ReadLatency: lat,
	}), frames)
	pad := strings.Repeat("g", 60)
	for _, name := range []string{"lo", "cust", "part"} {
		from := src.MustTable(name)
		rows, err := from.File.AllRows()
		if err != nil {
			t.Fatal(err)
		}
		if name == "lo" {
			for i, r := range rows {
				nr := append(types.Row(nil), r...)
				nr[4] = types.NewString(pad + strconv.Itoa(i))
				rows[i] = nr
			}
		}
		to, err := cat.CreateTable(name, from.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := to.File.Append(rows...); err != nil {
			t.Fatal(err)
		}
		if err := to.File.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if np := cat.MustTable("lo").File.NumPages(); np < 5 {
		t.Fatalf("fact table spans only %d pages; sweeps too short to graft against", np)
	}
	return cat
}

// waitAdmitted blocks until the operator has admitted at least n queries.
func waitAdmitted(t *testing.T, op *Operator, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for op.Stats().Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d admissions", n)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// graftDims returns one of a few fixed dimension constraints; host and
// graft candidate always draw the same one (folding requires identical
// dimension semantics).
func graftDims(cat *storage.Catalog, r *rand.Rand) []plan.DimJoin {
	switch r.Intn(3) {
	case 0:
		return []plan.DimJoin{
			{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0,
				Pred:        expr.NewIn(expr.C(1, "region"), types.NewString("ASIA"), types.NewString("EUROPE")),
				PayloadCols: []int{1}},
			{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0,
				Pred:        expr.NewCmp(expr.LT, expr.C(1, "brand"), expr.Int(3)),
				PayloadCols: []int{1}},
		}
	case 1:
		return []plan.DimJoin{
			{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{0, 1}},
		}
	default:
		return []plan.DimJoin{
			{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0,
				Pred:        expr.NewCmp(expr.GE, expr.C(1, "brand"), expr.Int(1)),
				PayloadCols: []int{1}},
		}
	}
}

// randFoldAtom draws one atomic fact predicate over the lo table.
func randFoldAtom(r *rand.Rand) expr.Expr {
	switch r.Intn(4) {
	case 0:
		return expr.NewCmp(expr.GE, expr.C(3, "lo_rev"), expr.Float(float64(r.Intn(10000))/100))
	case 1:
		return expr.NewCmp(expr.LT, expr.C(0, "lo_id"), expr.Int(int64(r.Intn(4000))))
	case 2:
		lo := int64(r.Intn(3000))
		return expr.NewBetween(expr.C(0, "lo_id"), expr.Int(lo), expr.Int(lo+int64(r.Intn(2000))))
	default:
		return expr.NewIn(expr.C(2, "lo_pk"),
			types.NewInt(int64(r.Intn(21))), types.NewInt(int64(r.Intn(21))),
			types.NewInt(int64(r.Intn(21))), types.NewInt(int64(r.Intn(21))))
	}
}

// runStarAsync starts a query and returns a handle for its rows.
func runStarAsync(op *Operator, q *plan.StarQuery) func() ([]types.Row, error) {
	var rows []types.Row
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = op.Run(context.Background(), q, func(b *batch.Batch) error {
			rows = append(rows, b.RowsView()...)
			return nil
		})
	}()
	return func() ([]types.Row, error) {
		<-done
		return rows, err
	}
}

// TestGraftRandomImpliedPairsConcurrent is the fold equivalence property
// battery: 300 random (p, p AND extra) query pairs, the host admitted first
// and the candidate admitted mid-sweep so it grafts onto the host's bitmap
// slot. Both result streams must match a DisableFold operator running the
// identical pair, and a substantial share of the pairs must actually have
// folded.
func TestGraftRandomImpliedPairsConcurrent(t *testing.T) {
	cat := slowStarDB(t, 3000, 500*time.Microsecond)
	fold := newOpCfg(t, cat, Config{BatchSize: 64, DisablePrune: true})
	nofold := newOpCfg(t, cat, Config{BatchSize: 64, DisableFold: true, DisablePrune: true})
	r := rand.New(rand.NewSource(31))

	const waves = 300
	for wave := 0; wave < waves; wave++ {
		p := randFoldAtom(r)
		q := expr.NewAnd(p, randFoldAtom(r))
		dims := graftDims(cat, r)
		host := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: p, FactCols: []int{0, 3}, Dims: dims}
		cand := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: q, FactCols: []int{0, 3}, Dims: dims}

		base := fold.Stats().Admitted
		hostWait := runStarAsync(fold, host)
		waitAdmitted(t, fold, base+1)
		candWait := runStarAsync(fold, cand)

		hostRows, err := hostWait()
		if err != nil {
			t.Fatalf("wave %d host: %v", wave, err)
		}
		candRows, err := candWait()
		if err != nil {
			t.Fatalf("wave %d candidate: %v", wave, err)
		}
		mustEqualRows(t, hostRows, runStar(t, nofold, host))
		mustEqualRows(t, candRows, runStar(t, nofold, cand))
	}
	st := fold.Stats()
	if st.Grafted < waves/4 {
		t.Fatalf("only %d of %d pairs grafted; folding barely exercised", st.Grafted, waves)
	}
	if nofold.Stats().Grafted != 0 {
		t.Fatal("DisableFold operator reported grafts")
	}
	t.Logf("grafted %d of %d pairs, slot high water %d", st.Grafted, waves, st.SlotHighWater)
}

// TestGraftRecycleSlots: grafted admissions share their host's bitmap slot
// and release it exactly once when the last reader drains, so wave after
// wave of folded pairs keeps the slot arena at its floor — grafted-reader
// retirement leaks no slots.
func TestGraftRecycleSlots(t *testing.T) {
	cat := slowStarDB(t, 3000, 500*time.Microsecond)
	op := newOpCfg(t, cat, Config{BatchSize: 64, DisablePrune: true})
	r := rand.New(rand.NewSource(83))

	const waves = 25
	for wave := 0; wave < waves; wave++ {
		p := randFoldAtom(r)
		dims := graftDims(cat, r)
		host := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: p, FactCols: []int{0, 3}, Dims: dims}
		cand := &plan.StarQuery{Fact: cat.MustTable("lo"),
			FactPred: expr.NewAnd(p, randFoldAtom(r)), FactCols: []int{0, 3}, Dims: dims}

		base := op.Stats().Admitted
		hostWait := runStarAsync(op, host)
		waitAdmitted(t, op, base+1)
		candWait := runStarAsync(op, cand)
		if _, err := hostWait(); err != nil {
			t.Fatal(err)
		}
		if _, err := candWait(); err != nil {
			t.Fatal(err)
		}
	}
	st := op.Stats()
	if st.Grafted == 0 {
		t.Fatal("no wave grafted")
	}
	// One host slot live at a time plus bounded recycle slack: a leaked
	// graft hold would push the high water towards one slot per wave.
	if st.SlotHighWater > 4 {
		t.Fatalf("slot high water %d after %d folded waves; graft retirement leaks slots", st.SlotHighWater, waves)
	}
}

// TestGraftHostCancelConcurrent: canceling the slot's opener mid-sweep must
// not starve the query folded onto its slot — the slot stays annotated until
// its last reader's sweep completes, and the folded query's result stays
// complete and correct.
func TestGraftHostCancelConcurrent(t *testing.T) {
	cat := slowStarDB(t, 3000, time.Millisecond)
	fold := newOpCfg(t, cat, Config{BatchSize: 64, DisablePrune: true})
	nofold := newOpCfg(t, cat, Config{BatchSize: 64, DisableFold: true, DisablePrune: true})
	r := rand.New(rand.NewSource(7321))

	canceled := 0
	for wave := 0; wave < 8; wave++ {
		p := randFoldAtom(r)
		dims := graftDims(cat, r)
		host := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: p, FactCols: []int{0, 3}, Dims: dims}
		cand := &plan.StarQuery{Fact: cat.MustTable("lo"),
			FactPred: expr.NewAnd(p, randFoldAtom(r)), FactCols: []int{0, 3}, Dims: dims}

		baseAdm, baseGraft := fold.Stats().Admitted, fold.Stats().Grafted
		ctx, cancel := context.WithCancel(context.Background())
		hostDone := make(chan error, 1)
		go func() {
			hostDone <- fold.Run(ctx, host, func(b *batch.Batch) error { return nil })
		}()
		waitAdmitted(t, fold, baseAdm+1)
		candWait := runStarAsync(fold, cand)
		// Cancel the host as soon as the candidate is admitted; if it
		// folded, its whole sweep now rides on a canceled host's bits.
		waitAdmitted(t, fold, baseAdm+2)
		cancel()
		if err := <-hostDone; err == context.Canceled {
			canceled++
		}
		candRows, err := candWait()
		if err != nil {
			t.Fatalf("wave %d graft after host cancel: %v", wave, err)
		}
		mustEqualRows(t, candRows, runStar(t, nofold, cand))
		if fold.Stats().Grafted == baseGraft {
			t.Logf("wave %d did not fold (host finished first)", wave)
		}
	}
	if fold.Stats().Grafted == 0 {
		t.Fatal("no wave grafted; host-cancel path not exercised")
	}
	if canceled == 0 {
		t.Log("no host observed its cancellation mid-run (all sweeps completed first)")
	}
}

// randPadAtom draws a fact predicate over slowStarDB's per-row pad column,
// which every fact page stores dictionary-encoded: a string range (the pads
// whose row number starts with digit d then 0-4) or a string set, with
// members both present on the table and absent from it.
func randPadAtom(r *rand.Rand) expr.Expr {
	pad := strings.Repeat("g", 60)
	if r.Intn(2) == 0 {
		lo := pad + strconv.Itoa(1+r.Intn(9))
		return expr.NewBetween(expr.C(4, "pad"), expr.Str(lo), expr.Str(lo+"5"))
	}
	set := []types.Datum{types.NewString(pad + "none")}
	for i := 0; i < 12; i++ {
		set = append(set, types.NewString(pad+strconv.Itoa(r.Intn(3000))))
	}
	return expr.NewIn(expr.C(4, "pad"), set...)
}

// TestGraftResidualOverDictColumn folds (p, p AND s) pairs whose residual s
// is a range or set over the dictionary-encoded pad column, so the
// distributor evaluates it with the dictionary kernels over one-row
// selections of the page batch. Both streams must match a DisableFold
// operator running the identical pair.
func TestGraftResidualOverDictColumn(t *testing.T) {
	cat := slowStarDB(t, 3000, 500*time.Microsecond)
	cb, err := cat.MustTable("lo").File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	dict := cb.Col(4).HasDict()
	cb.Release()
	if !dict {
		t.Fatal("the fact table's pad column is not dictionary-encoded; the test covers nothing")
	}
	fold := newOpCfg(t, cat, Config{BatchSize: 64, DisablePrune: true})
	nofold := newOpCfg(t, cat, Config{BatchSize: 64, DisableFold: true, DisablePrune: true})
	r := rand.New(rand.NewSource(417))

	const waves = 30
	candTotal := 0
	for wave := 0; wave < waves; wave++ {
		p := randFoldAtom(r)
		dims := graftDims(cat, r)
		host := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: p, FactCols: []int{0, 4}, Dims: dims}
		cand := &plan.StarQuery{Fact: cat.MustTable("lo"),
			FactPred: expr.NewAnd(p, randPadAtom(r)), FactCols: []int{0, 4}, Dims: dims}

		base := fold.Stats().Admitted
		hostWait := runStarAsync(fold, host)
		waitAdmitted(t, fold, base+1)
		candWait := runStarAsync(fold, cand)
		hostRows, err := hostWait()
		if err != nil {
			t.Fatalf("wave %d host: %v", wave, err)
		}
		candRows, err := candWait()
		if err != nil {
			t.Fatalf("wave %d candidate: %v", wave, err)
		}
		mustEqualRows(t, hostRows, runStar(t, nofold, host))
		mustEqualRows(t, candRows, runStar(t, nofold, cand))
		candTotal += len(candRows)
	}
	st := fold.Stats()
	if st.Grafted == 0 || candTotal == 0 {
		t.Fatalf("%d pairs grafted, %d candidate rows; the string residual path was not exercised", st.Grafted, candTotal)
	}
	t.Logf("grafted %d of %d pairs, %d candidate rows", st.Grafted, waves, candTotal)
}

// TestGraftResidualPanicFailsGraftAlone: a graft whose residual panics (a
// column past the 5-column fact table) fails alone with a *PanicError that
// PanicFailures counts, while its host completes and matches a DisableFold
// operator.
func TestGraftResidualPanicFailsGraftAlone(t *testing.T) {
	cat := slowStarDB(t, 3000, time.Millisecond)
	fold := newOpCfg(t, cat, Config{BatchSize: 64, DisablePrune: true})
	nofold := newOpCfg(t, cat, Config{BatchSize: 64, DisableFold: true, DisablePrune: true})
	lo := cat.MustTable("lo")
	dims := []plan.DimJoin{{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}}}
	p := expr.NewCmp(expr.LT, expr.C(0, "lo_id"), expr.Int(2500))
	host := &plan.StarQuery{Fact: lo, FactPred: p, FactCols: []int{0, 3}, Dims: dims}
	cand := &plan.StarQuery{Fact: lo, FactCols: []int{0, 3}, Dims: dims,
		FactPred: expr.NewAnd(p, expr.NewCmp(expr.EQ, expr.C(9, "nope"), expr.Int(1)))}
	want := runStar(t, nofold, host)

	for wave := 0; wave < 8; wave++ {
		before := fold.Stats()
		hostWait := runStarAsync(fold, host)
		waitAdmitted(t, fold, before.Admitted+1)
		candWait := runStarAsync(fold, cand)
		hostRows, err := hostWait()
		if err != nil {
			t.Fatalf("wave %d host: %v", wave, err)
		}
		mustEqualRows(t, hostRows, want)
		_, err = candWait()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("wave %d graft err = %v, want *PanicError", wave, err)
		}
		after := fold.Stats()
		if after.PanicFailures == before.PanicFailures {
			t.Fatalf("wave %d: the graft's panic was not counted in PanicFailures", wave)
		}
		if after.Grafted > before.Grafted {
			return
		}
		t.Logf("wave %d did not fold (host finished first)", wave)
	}
	t.Fatal("no wave grafted; the residual panic path was not exercised")
}

// TestFoldConcurrentTemplates runs the full 13-template SSB battery — two
// identical instances per template, all concurrent — on a folding operator
// and checks every result stream against a DisableFold operator. Identical
// templates fold with a nil residual, and cross-template subsumption may
// fold more; either way the streams must be identical.
func TestFoldConcurrentTemplates(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 2048)
	db, err := ssb.Generate(cat, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	dims := []DimSpec{
		{Table: db.Date, FactKeyCol: ssb.LOOrderDate, DimKeyCol: ssb.DDateKey},
		{Table: db.Customer, FactKeyCol: ssb.LOCustKey, DimKeyCol: ssb.CCustKey},
		{Table: db.Supplier, FactKeyCol: ssb.LOSuppKey, DimKeyCol: ssb.SSuppKey},
		{Table: db.Part, FactKeyCol: ssb.LOPartKey, DimKeyCol: ssb.PPartKey},
	}
	mkOp := func(cfg Config) *Operator {
		op, err := NewOperator(db.Lineorder, dims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(op.Close)
		return op
	}
	fold := mkOp(Config{BatchSize: 256})
	nofold := mkOp(Config{BatchSize: 256, DisableFold: true})

	r := rand.New(rand.NewSource(5))
	insts := make([]ssb.Instance, 0, 2*len(ssb.AllTemplates))
	for _, tpl := range ssb.AllTemplates {
		in := ssb.Instantiate(db, tpl, r)
		insts = append(insts, in, in) // identical repeat: folds with nil residual
	}

	got := make([][]types.Row, len(insts))
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rows []types.Row
			if err := fold.Run(context.Background(), insts[i].Star, func(b *batch.Batch) error {
				rows = append(rows, b.RowsView()...)
				return nil
			}); err != nil {
				t.Errorf("%s: %v", insts[i].Name, err)
				return
			}
			got[i] = rows
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range insts {
		want := runStar(t, nofold, insts[i].Star)
		mustEqualRows(t, got[i], want)
	}
	t.Logf("fold stats: %+v", fold.Stats())
}

// TestCloseFailsLastReaderOfSlot closes the operator while a folded query
// sweeps on as the last reader of a slot whose opener has already finished:
// the folded query's emit blocks only once the opener's Run has returned.
// Its Run must fail with ErrClosed, and the page batches and the pipeline's
// goroutines must all be given back.
func TestCloseFailsLastReaderOfSlot(t *testing.T) {
	cat := slowStarDB(t, 3000, time.Millisecond)
	lo := cat.MustTable("lo")
	dims := []plan.DimJoin{{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}}}
	p := expr.NewCmp(expr.LT, expr.C(0, "lo_id"), expr.Int(2500))
	host := &plan.StarQuery{Fact: lo, FactPred: p, FactCols: []int{0}, Dims: dims}
	graft := &plan.StarQuery{Fact: lo, FactCols: []int{0}, Dims: dims,
		FactPred: expr.NewAnd(p, expr.NewCmp(expr.GE, expr.C(3, "lo_rev"), expr.Float(0)))}
	evict := func() {
		for _, name := range []string{"lo", "cust", "part"} {
			cat.Pool().EvictFile(cat.MustTable(name).File.ID())
		}
	}

	for attempt := 0; attempt < 8; attempt++ {
		evict()
		liveBefore, goroutinesBefore := vec.LiveBatches(), runtime.NumGoroutine()
		op := newOpCfg(t, cat, Config{BatchSize: 16, DisablePrune: true})

		// The graft is admitted once the host has had a page's worth of
		// rows, so its sweep wraps past the host's end by a few pages.
		var hostRows atomic.Int64
		var hostReturned atomic.Bool
		hostDone := make(chan error, 1)
		go func() {
			err := op.Run(context.Background(), host, func(b *batch.Batch) error {
				hostRows.Add(int64(b.Len()))
				b.Done()
				return nil
			})
			hostReturned.Store(true)
			hostDone <- err
		}()
		for hostRows.Load() < 300 && !hostReturned.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		blocked, release := make(chan struct{}), make(chan struct{})
		graftDone := make(chan error, 1)
		go func() {
			var once sync.Once
			graftDone <- op.Run(context.Background(), graft, func(b *batch.Batch) error {
				b.Done()
				if hostReturned.Load() {
					once.Do(func() { close(blocked) })
					<-release
				}
				return nil
			})
		}()
		if err := <-hostDone; err != nil {
			t.Fatalf("attempt %d host: %v", attempt, err)
		}
		select {
		case <-blocked:
		case err := <-graftDone:
			t.Fatalf("attempt %d: the graft finished (err %v) before the host's Run returned", attempt, err)
		}
		grafted := op.Stats().Grafted == 1
		op.Close()
		close(release)
		if err := <-graftDone; !errors.Is(err, ErrClosed) {
			t.Fatalf("attempt %d: graft err = %v, want ErrClosed", attempt, err)
		}

		evict()
		if live := vec.LiveBatches(); live != liveBefore {
			t.Errorf("attempt %d: leaked batch refs: LiveBatches = %d, baseline %d", attempt, live, liveBefore)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > goroutinesBefore {
			t.Errorf("attempt %d: leaked goroutines: %d running, started with %d", attempt, g, goroutinesBefore)
		}
		if grafted {
			return
		}
		t.Logf("attempt %d did not fold (the host finished first)", attempt)
	}
	t.Fatal("no attempt folded; the last-reader shutdown path was not exercised")
}

// TestFailedSlotFailsEveryReader admits two identical star queries on one
// tick, so the second folds onto the slot the first opens, while a longer
// query keeps the scanner busy on a slow disk. When the slot's fact or
// dimension predicate panics (a column past the table's schema), both
// readers must fail with the slot's *PanicError: a folded reader never
// finishes clean, and empty, over a slot that failed.
func TestFailedSlotFailsEveryReader(t *testing.T) {
	cat := slowStarDB(t, 3000, time.Millisecond)
	lo, cust := cat.MustTable("lo"), cat.MustTable("cust")
	missing := expr.NewCmp(expr.EQ, expr.C(9, "nope"), expr.Int(1))
	// The long query reads another dimension, so nothing folds onto it.
	long := &plan.StarQuery{Fact: lo, FactCols: []int{0},
		Dims: []plan.DimJoin{{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0, PayloadCols: []int{1}}}}

	for _, tc := range []struct {
		name      string
		fact, dim expr.Expr
	}{
		{"fact", missing, nil},
		{"dim", expr.NewCmp(expr.LT, expr.C(0, "lo_id"), expr.Int(2500)), missing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := newOpCfg(t, cat, Config{BatchSize: 64})
			q := &plan.StarQuery{Fact: lo, FactPred: tc.fact, FactCols: []int{0},
				Dims: []plan.DimJoin{{Table: cust, FactKeyCol: 1, DimKeyCol: 0, Pred: tc.dim, PayloadCols: []int{1}}}}
			const trials = 10
			for trial := 0; trial < trials; trial++ {
				base := op.Stats().Admitted
				longWait := runStarAsync(op, long)
				waitAdmitted(t, op, base+1)
				var wg sync.WaitGroup
				errs := make([]error, 2)
				rows := make([]int, 2)
				for i := range errs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						errs[i] = op.Run(context.Background(), q, func(b *batch.Batch) error {
							rows[i] += b.Len()
							b.Done()
							return nil
						})
					}(i)
				}
				wg.Wait()
				for i, err := range errs {
					var pe *PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("trial %d query %d: err = %v after %d rows, want *PanicError", trial, i, err, rows[i])
					}
				}
				if _, err := longWait(); err != nil {
					t.Fatalf("trial %d long query: %v", trial, err)
				}
			}
			if op.Stats().Grafted == 0 {
				t.Fatalf("no trial folded in %d; the shared failed slot was not exercised", trials)
			}
			t.Logf("%d of %d trials folded", op.Stats().Grafted, trials)
		})
	}
}
