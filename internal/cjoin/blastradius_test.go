package cjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// windowQuery is a date-window analog on the faultStar schema: the fact
// table's id column is monotone (clustered), so [lo, hi) windows map to page
// ranges through zone maps.
func windowQuery(cat *storage.Catalog, lo, hi int64) *plan.StarQuery {
	return &plan.StarQuery{
		Fact: cat.MustTable("lo"),
		FactPred: expr.NewAnd(
			expr.NewCmp(expr.GE, expr.C(0, "id"), expr.Int(lo)),
			expr.NewCmp(expr.LT, expr.C(0, "id"), expr.Int(hi)),
		),
		FactCols: []int{0},
		Dims: []plan.DimJoin{{
			Table: cat.MustTable("d"), FactKeyCol: 1, DimKeyCol: 0,
			PayloadCols: []int{1},
		}},
	}
}

// TestBlastRadiusOnlyCoveringQueriesFail is the acceptance test for
// blast-radius containment: one fact page is permanently faulted under a
// 16-query clustered-window sweep, and only the queries whose windows cover
// that page fail — each with a typed PageError — while every other query
// returns results identical to the fault-free run. The page is faulted two
// ways: unreadable (a poisoned read), and readable with a rotten header (a
// zeroed page magic, which must reject the page — under the retired
// row-major format those two bytes were a row count, and the page read as
// empty, silently dropping its rows from the covering queries).
func TestBlastRadiusOnlyCoveringQueriesFail(t *testing.T) {
	t.Run("poisoned", func(t *testing.T) {
		testBlastRadius(t, func(fd *storage.FaultDisk, f storage.FileID, page int) {
			fd.PoisonPage(f, page)
		})
	})
	t.Run("corrupt-magic", func(t *testing.T) {
		testBlastRadius(t, func(fd *storage.FaultDisk, f storage.FileID, page int) {
			buf := make([]byte, storage.PageSize)
			if err := fd.ReadPage(f, page, buf); err != nil {
				t.Fatal(err)
			}
			buf[0], buf[1] = 0, 0
			if err := fd.WritePage(f, page, buf); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func testBlastRadius(t *testing.T, fault func(fd *storage.FaultDisk, f storage.FileID, page int)) {
	const n, nq = 20000, 16
	balanced := arenaBalance(t)
	cat, fd := faultStar(t, n)
	lo := cat.MustTable("lo")
	// The baseline is taken before the operator exists, with no page batch
	// cached: Close gives the dimension batches back, closing the pool the
	// page batches.
	cat.Pool().EvictFile(lo.File.ID())
	cat.Pool().EvictFile(cat.MustTable("d").File.ID())
	liveBefore := vec.LiveBatches()
	op, err := NewOperator(lo, []DimSpec{
		{Table: cat.MustTable("d"), FactKeyCol: 1, DimKeyCol: 0},
	}, Config{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		op.Close()
		balanced(cat)
		if live := vec.LiveBatches(); live != liveBefore {
			t.Errorf("leaked batch refs: LiveBatches = %d, baseline %d", live, liveBefore)
		}
	}()

	queries := make([]*plan.StarQuery, nq)
	win := int64(n / nq)
	for i := range queries {
		queries[i] = windowQuery(cat, int64(i)*win, int64(i+1)*win)
	}

	// Fault-free reference run.
	baseline := make([][]types.Row, nq)
	for i, q := range queries {
		baseline[i] = runStar(t, op, q)
		if len(baseline[i]) != int(win) {
			t.Fatalf("baseline query %d: %d rows, want %d", i, len(baseline[i]), win)
		}
	}

	// Poison one mid-table page and compute its blast radius from the same
	// zone maps the scanner prunes with.
	poisoned := lo.File.NumPages() / 2
	zones := lo.File.PageZones(poisoned)
	if len(zones) == 0 || zones[0].Flags&storage.ZoneInt == 0 {
		t.Fatalf("page %d has no int zones for the clustered column", poisoned)
	}
	covering := make([]bool, nq)
	nCovering := 0
	for i := range queries {
		qlo, qhi := int64(i)*win, int64(i+1)*win
		if qlo <= zones[0].MaxI && qhi > zones[0].MinI {
			covering[i] = true
			nCovering++
		}
	}
	if nCovering == 0 || nCovering == nq {
		t.Fatalf("degenerate blast radius: %d of %d queries cover page %d", nCovering, nq, poisoned)
	}
	fault(fd, lo.File.ID(), poisoned)
	cat.Pool().EvictFile(lo.File.ID())

	stBefore := op.Stats()
	var wg sync.WaitGroup
	rows := make([][]types.Row, nq)
	errs := make([]error, nq)
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q *plan.StarQuery) {
			defer wg.Done()
			errs[i] = op.Run(context.Background(), q, func(b *batch.Batch) error {
				rows[i] = append(rows[i], b.RowsView()...)
				b.Done()
				return nil
			})
		}(i, q)
	}
	wg.Wait()

	for i := range queries {
		if covering[i] {
			var pe *storage.PageError
			if !errors.As(errs[i], &pe) {
				t.Errorf("covering query %d: err = %v, want *PageError", i, errs[i])
				continue
			}
			if pe.Page != poisoned {
				t.Errorf("covering query %d failed on page %d, want %d", i, pe.Page, poisoned)
			}
		} else {
			if errs[i] != nil {
				t.Errorf("non-covering query %d failed: %v", i, errs[i])
				continue
			}
			mustEqualRows(t, rows[i], baseline[i])
		}
	}

	st := op.Stats()
	if got := st.Failed - stBefore.Failed; got != int64(nCovering) {
		t.Errorf("Failed delta = %d, want %d", got, nCovering)
	}
	if got := st.PageFailures - stBefore.PageFailures; got != int64(nCovering) {
		t.Errorf("PageFailures delta = %d, want %d", got, nCovering)
	}
	if st.PagesQuarantined == stBefore.PagesQuarantined {
		t.Error("PagesQuarantined did not grow")
	}
}

func TestDeadlineHonoredAtAdmission(t *testing.T) {
	cat, _ := faultStar(t, 2000)
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("d"), FactKeyCol: 1, DimKeyCol: 0},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err = op.Run(ctx, windowQuery(cat, 0, 2000), func(*batch.Batch) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-at-admission err = %v, want DeadlineExceeded", err)
	}
}

func TestDeadlineExpiresMidSweep(t *testing.T) {
	// A slow disk makes the sweep take tens of milliseconds, so a short
	// deadline reliably expires between pages.
	cat, _ := faultStarProf(t, 20000, storage.DiskProfile{ReadLatency: 300 * time.Microsecond})
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

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = op.Run(ctx, q, func(*batch.Batch) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-sweep err = %v, want DeadlineExceeded", err)
	}
	if st := op.Stats(); st.DeadlineExpired == 0 && st.Canceled == 0 {
		t.Error("neither DeadlineExpired nor Canceled recorded for the expired query")
	}

	// The pipeline survives: a deadline-free query completes in full.
	if rows := runStar(t, op, q); len(rows) != 20000 {
		t.Fatalf("post-deadline sweep rows = %d", len(rows))
	}
}

// TestPanicPredicateFailsOnlyOwningQuery checks per-query panic containment:
// a compiled predicate that panics (out-of-range column) fails its own query
// with a typed PanicError while a concurrent healthy query completes with
// correct results, and the operator keeps serving afterwards.
func TestPanicPredicateFailsOnlyOwningQuery(t *testing.T) {
	cat := starDB(t, 3000)
	op := newOp(t, cat)

	good := asiaEuropeQuery(cat, 4, 0)
	want := evalStarNaive(t, good)

	// Fact-side panic: column 9 does not exist in the 5-column fact table.
	badFact := &plan.StarQuery{
		Fact:     cat.MustTable("lo"),
		FactPred: expr.NewCmp(expr.GE, expr.C(9, "nope"), expr.Int(0)),
		FactCols: []int{0},
		Dims: []plan.DimJoin{{
			Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1},
		}},
	}
	// Dim-side panic: column 7 does not exist in the 2-column dimension.
	badDim := &plan.StarQuery{
		Fact:     cat.MustTable("lo"),
		FactCols: []int{0},
		Dims: []plan.DimJoin{{
			Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0,
			Pred:        expr.NewCmp(expr.GE, expr.C(7, "nope"), expr.Int(0)),
			PayloadCols: []int{1},
		}},
	}

	var wg sync.WaitGroup
	var goodRows []types.Row
	var goodErr, badFactErr, badDimErr error
	wg.Add(3)
	go func() {
		defer wg.Done()
		goodErr = op.Run(context.Background(), good, func(b *batch.Batch) error {
			goodRows = append(goodRows, b.RowsView()...)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		badFactErr = op.Run(context.Background(), badFact, func(*batch.Batch) error { return nil })
	}()
	go func() {
		defer wg.Done()
		badDimErr = op.Run(context.Background(), badDim, func(*batch.Batch) error { return nil })
	}()
	wg.Wait()

	var pe *PanicError
	if !errors.As(badFactErr, &pe) {
		t.Errorf("fact-side panic err = %v, want *PanicError", badFactErr)
	}
	if !errors.As(badDimErr, &pe) {
		t.Errorf("dim-side panic err = %v, want *PanicError", badDimErr)
	}
	if goodErr != nil {
		t.Fatalf("healthy concurrent query failed: %v", goodErr)
	}
	mustEqualRows(t, goodRows, want)
	if st := op.Stats(); st.PanicFailures < 2 {
		t.Errorf("PanicFailures = %d, want >= 2", st.PanicFailures)
	}

	// The operator (and its process) survived; a repeat completes.
	mustEqualRows(t, runStar(t, op, good), want)
}

// countStar runs q to completion, releasing every delivered batch, and
// returns the row count. The chaos test balances the live-batch gauge, so
// it cannot use runStar, whose collector retains the delivered batches.
func countStar(t *testing.T, op *Operator, q *plan.StarQuery) int {
	t.Helper()
	n := 0
	if err := op.Run(context.Background(), q, func(b *batch.Batch) error {
		n += b.Len()
		b.Done()
		return nil
	}); err != nil {
		t.Fatalf("countStar: %v", err)
	}
	return n
}

// chaosTyped mirrors the containment invariant: every chaos-battery query
// must end in either complete results or one of these typed failures.
func chaosTyped(err error) bool {
	var pe *storage.PageError
	var cpe *PanicError
	return errors.As(err, &pe) ||
		errors.As(err, &cpe) ||
		errors.Is(err, storage.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, ErrClosed)
}

// TestChaosBatteryFaultScheduleTypedOrComplete drives randomized fault
// schedules — transient read bursts, permanent page poisons, corruption,
// deadline storms, client abandonment — against a running GQP and asserts
// the containment invariant: every query ends in exactly one of {complete
// correct results, typed error}; never a torn stream, a wedge, a leaked
// goroutine, or a leaked batch reference.
func TestChaosBatteryFaultScheduleTypedOrComplete(t *testing.T) {
	const n = 20000
	goroutinesBefore := runtime.NumGoroutine()
	balanced := arenaBalance(t)
	cat, fd := faultStar(t, n)
	lo := cat.MustTable("lo")
	npages := lo.File.NumPages()
	// Freeze the live-batch baseline before the operator exists, with the
	// tables evicted: Close gives the operator's dimension batch back.
	cat.Pool().EvictFile(lo.File.ID())
	cat.Pool().EvictFile(cat.MustTable("d").File.ID())
	liveBefore, bytesBefore := vec.LiveBatches(), vec.PoolStats().BytesOut
	op, err := NewOperator(lo, []DimSpec{
		{Table: cat.MustTable("d"), FactKeyCol: 1, DimKeyCol: 0},
	}, Config{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}

	// Settle a healthy sweep.
	full := &plan.StarQuery{
		Fact: lo, FactCols: []int{0},
		Dims: []plan.DimJoin{{Table: cat.MustTable("d"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}}},
	}
	if rows := countStar(t, op, full); rows != n {
		t.Fatalf("healthy sweep rows = %d", rows)
	}

	const clients, perClient = 6, 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)*104729 + 17))
			for i := 0; i < perClient; i++ {
				// Random fault action against the shared disk/pool.
				switch r.Intn(6) {
				case 0:
					fd.FailNextReads(int64(1 + r.Intn(3)))
				case 1:
					fd.PoisonPage(lo.File.ID(), r.Intn(npages))
				case 2:
					fd.CorruptReadsAfter(int64(r.Intn(4)))
				case 3:
					// Periodic repair so later queries can succeed again.
					fd.Heal()
					cat.Pool().ClearQuarantine()
				}
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				mode := r.Intn(4)
				switch mode {
				case 1: // deadline storm
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+r.Intn(10))*time.Millisecond)
				case 2: // client abandonment
					ctx, cancel = context.WithCancel(ctx)
					go func(d time.Duration, cancel context.CancelFunc) {
						time.Sleep(d)
						cancel()
					}(time.Duration(r.Intn(5))*time.Millisecond, cancel)
				}
				qlo := int64(r.Intn(n / 2))
				qhi := qlo + int64(1+r.Intn(n/2))
				got := 0
				err := op.Run(ctx, windowQuery(cat, qlo, qhi), func(b *batch.Batch) error {
					got += b.Len()
					b.Done()
					return nil
				})
				cancel()
				switch {
				case err == nil:
					if got != int(qhi-qlo) {
						mu.Lock()
						failures = append(failures, fmt.Sprintf(
							"client %d query %d: torn stream — nil error with %d of %d rows", c, i, got, qhi-qlo))
						mu.Unlock()
					}
				case !chaosTyped(err):
					mu.Lock()
					failures = append(failures, fmt.Sprintf(
						"client %d query %d: untyped error %v", c, i, err))
					mu.Unlock()
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos battery wedged")
	}
	for _, f := range failures {
		t.Error(f)
	}

	// Full repair: the pipeline must serve a complete sweep again.
	fd.Heal()
	cat.Pool().ClearQuarantine()
	if rows := countStar(t, op, full); rows != n {
		t.Fatalf("post-chaos sweep rows = %d", rows)
	}

	// No leaked batch references: with the operator shut down and the pool's
	// frames evicted, the live-batch gauge returns to its baseline.
	op.Close()
	cat.Pool().EvictFile(lo.File.ID())
	cat.Pool().EvictFile(cat.MustTable("d").File.ID())
	if live := vec.LiveBatches(); live != liveBefore {
		t.Errorf("leaked batch refs: LiveBatches = %d, baseline %d", live, liveBefore)
	}
	if out := vec.PoolStats().BytesOut; out != bytesBefore {
		t.Errorf("leaked payload arrays: %d bytes out, baseline %d", out, bytesBefore)
	}
	balanced(cat)

	// No leaked goroutines: the pipeline's workers all exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore+2 {
		t.Errorf("leaked goroutines: %d running, started with %d", g, goroutinesBefore)
	}
}
