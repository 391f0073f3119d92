package cjoin

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// newOpCfg is newOp with an explicit config (worker counts, pruning).
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
// two — far too fast to admit against).
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
		t.Fatalf("fact table spans only %d pages; sweeps too short to admit against", np)
	}
	return cat
}

// Stress: many concurrent queries with random predicates, random dim
// subsets and random mid-flight cancellations. Non-canceled queries must
// return exact results; the operator must end with zero active queries and
// consistent counters.
func TestConcurrentQueriesWithRandomCancels(t *testing.T) {
	cat := starDB(t, 8000)
	op := newOp(t, cat)

	const nQueries = 24
	type outcome struct {
		q        *plan.StarQuery
		rows     []types.Row
		err      error
		canceled bool
	}
	outcomes := make([]outcome, nQueries)
	var wg sync.WaitGroup
	for i := 0; i < nQueries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i) * 31))
			q := asiaEuropeQuery(cat, int64(1+r.Intn(4)), float64(r.Intn(80)))
			if r.Intn(3) == 0 {
				q.Dims = q.Dims[:1]
			}
			outcomes[i].q = q

			cancelAfter := -1
			if r.Intn(3) == 0 { // one third of the queries cancel mid-sweep
				cancelAfter = r.Intn(200)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			err := op.Run(ctx, q, func(b *batch.Batch) error {
				outcomes[i].rows = append(outcomes[i].rows, b.RowsView()...)
				seen += b.Len()
				if cancelAfter >= 0 && seen > cancelAfter {
					outcomes[i].canceled = true
					cancel()
				}
				return nil
			})
			outcomes[i].err = err
		}(i)
	}
	wg.Wait()

	verified := 0
	for i, o := range outcomes {
		if o.canceled {
			if !errors.Is(o.err, context.Canceled) {
				t.Errorf("query %d: canceled but err = %v", i, o.err)
			}
			continue
		}
		if o.err != nil {
			t.Errorf("query %d: %v", i, o.err)
			continue
		}
		want := evalStarNaive(t, o.q)
		g, w := canon(o.rows), canon(want)
		if len(g) != len(w) {
			t.Errorf("query %d: got %d rows, want %d", i, len(g), len(w))
			continue
		}
		for j := range g {
			if g[j] != w[j] {
				t.Errorf("query %d row %d mismatch", i, j)
				break
			}
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("every query canceled; nothing verified")
	}
	st := op.Stats()
	if st.Admitted != nQueries {
		t.Errorf("Admitted = %d, want %d", st.Admitted, nQueries)
	}
	if st.Completed+st.Canceled != nQueries {
		t.Errorf("Completed(%d) + Canceled(%d) != %d", st.Completed, st.Canceled, nQueries)
	}
	if st.Busy <= 0 {
		t.Error("pipeline busy time not accounted")
	}
}

// TestParallelStressAdmitCancelRetire hammers a 4-worker GQP with 32
// concurrent queries that admit, cancel and retire at random points while
// the partitioned workers sweep — the epoch-protocol stress case, intended
// to run under -race. Non-canceled queries must return exact results and the
// counters must balance.
func TestParallelStressAdmitCancelRetire(t *testing.T) {
	cat := starDB(t, 6000)
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
		{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
	}, Config{BatchSize: 64, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op.Close)

	const nQueries = 32
	type outcome struct {
		q        *plan.StarQuery
		rows     []types.Row
		err      error
		canceled bool
	}
	outcomes := make([]outcome, nQueries)
	var wg sync.WaitGroup
	for i := 0; i < nQueries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)*193 + 5))
			// Stagger admissions so epochs land mid-sweep on every worker.
			time.Sleep(time.Duration(r.Intn(3000)) * time.Microsecond)
			q := asiaEuropeQuery(cat, int64(1+r.Intn(4)), float64(r.Intn(80)))
			switch r.Intn(4) {
			case 0:
				q.Dims = q.Dims[:1]
			case 1:
				q.FactPred = nil
			}
			outcomes[i].q = q

			cancelAfter := -1
			if r.Intn(3) == 0 {
				cancelAfter = r.Intn(150)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := 0
			err := op.Run(ctx, q, func(b *batch.Batch) error {
				outcomes[i].rows = append(outcomes[i].rows, b.RowsView()...)
				seen += b.Len()
				if cancelAfter >= 0 && seen > cancelAfter {
					outcomes[i].canceled = true
					cancel()
				}
				return nil
			})
			outcomes[i].err = err
		}(i)
	}
	wg.Wait()

	verified := 0
	for i, o := range outcomes {
		if o.canceled {
			// A cancel that fires on the sweep's final batch can race
			// natural completion: Run legitimately returns nil with the
			// full result already delivered. Both outcomes are correct.
			if o.err != nil && !errors.Is(o.err, context.Canceled) {
				t.Errorf("query %d: canceled but err = %v", i, o.err)
			}
			continue
		}
		if o.err != nil {
			t.Errorf("query %d: %v", i, o.err)
			continue
		}
		want := evalStarNaive(t, o.q)
		g, w := canon(o.rows), canon(want)
		if len(g) != len(w) {
			t.Errorf("query %d: got %d rows, want %d", i, len(g), len(w))
			continue
		}
		for j := range g {
			if g[j] != w[j] {
				t.Errorf("query %d row %d mismatch", i, j)
				break
			}
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("every query canceled; nothing verified")
	}
	st := op.Stats()
	if st.Admitted != nQueries {
		t.Errorf("Admitted = %d, want %d", st.Admitted, nQueries)
	}
	if st.Completed+st.Canceled != nQueries {
		t.Errorf("Completed(%d) + Canceled(%d) != %d", st.Completed, st.Canceled, nQueries)
	}
}

// After heavy traffic the operator must be quiescent: a trivial query still
// completes promptly (no leaked slots, wedged stages, or stuck markers).
func TestOperatorQuiescentAfterStress(t *testing.T) {
	cat := starDB(t, 3000)
	op := newOp(t, cat)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := asiaEuropeQuery(cat, int64(1+i%4), float64(i))
			_ = op.Run(context.Background(), q, func(*batch.Batch) error { return nil })
		}(i)
	}
	wg.Wait()

	done := make(chan struct{})
	go func() {
		q := &plan.StarQuery{Fact: cat.MustTable("lo"), FactCols: []int{0}}
		runStar(t, op, q)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("operator wedged after stress")
	}
}

// TestOperatorCloseReleasesDimensionBatches: Close gives back every batch the
// operator took — its dimension tables' included — so after 16 concurrent
// Runs, some cancelled mid-sweep, LiveBatches is back where it was before
// NewOperator (with the pool's page batches evicted on both sides).
func TestOperatorCloseReleasesDimensionBatches(t *testing.T) {
	cat := starDB(t, 4000)
	evict := func() {
		for _, name := range []string{"lo", "cust", "part"} {
			cat.Pool().EvictFile(cat.MustTable(name).File.ID())
		}
	}
	evict()
	before := vec.LiveBatches()
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
		{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
	}, Config{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)*97 + 5))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelAfter := -1
			if r.Intn(2) == 0 {
				cancelAfter = r.Intn(400)
			}
			seen := 0
			err := op.Run(ctx, asiaEuropeQuery(cat, int64(1+r.Intn(4)), float64(r.Intn(80))), func(b *batch.Batch) error {
				seen += b.Len()
				b.Done()
				if cancelAfter >= 0 && seen > cancelAfter {
					cancel()
				}
				return nil
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	op.Close()
	op.Close() // idempotent: the tables are released once
	evict()
	if live := vec.LiveBatches(); live != before {
		t.Fatalf("LiveBatches = %d after Close, want %d (before NewOperator)", live, before)
	}
}

// TestConcurrentWavesReuseEverySlot: waves of 1 500 concurrent queries, each
// on a bitmap slot of its own (prune off), reuse the slots the
// previous wave freed, so the slot high water stays at one wave's width.
// Freed slots once travelled back to the scanner over a bounded channel that
// dropped the overflow, and every later page paid for the lost slots in
// wider bitmaps.
func TestConcurrentWavesReuseEverySlot(t *testing.T) {
	const waves, width = 3, 1500
	cat := slowStarDBPool(t, 10000, 100*time.Microsecond, 8)
	lo := cat.MustTable("lo")
	t.Logf("fact table: %d pages", lo.File.NumPages())
	op := newOpCfg(t, cat, Config{NoPrune: true})
	none := &plan.StarQuery{Fact: lo, FactCols: []int{0},
		FactPred: expr.NewCmp(expr.LT, expr.C(0, "lo_id"), expr.Int(0))}
	for wave := 1; wave <= waves; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := op.Run(context.Background(), none, func(b *batch.Batch) error {
					b.Done()
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		hw := op.Stats().SlotHighWater
		t.Logf("wave %d: SlotHighWater = %d", wave, hw)
		if hw > width {
			t.Errorf("wave %d: SlotHighWater = %d, want <= %d (freed slots were lost)", wave, hw, width)
		}
	}
}

// gatePred is a fact predicate CompileVec has no kernel for, so it runs row
// by row; it holds for every row. Once armed, the first row it sees blocks
// until release is closed, holding whichever worker evaluates it in
// annotate, before the probe, on the page it was dealt.
type gatePred struct {
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g gatePred) Eval(types.Row) types.Datum {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return types.NewBool(true)
}

func (g gatePred) Signature() string { return "gate" }

// TestGatedWorkerKeepsSlotState holds one of two workers behind a gate on a
// page of a retiring query's sweep while the other worker carries the rest
// of the sweep, the query's finish tick goes out and a second query is
// admitted and swept. The held page was dealt before the second query's
// admission tick, so it must route nothing to it; it was dealt before the
// first query's finish tick, so none of the first query's rows on it may be
// lost, although its slot id is free by then: the id must not be reused,
// and its bits not cleared, before the held page is probed. A third query
// then reuses the id and must see none of the old query's bits. Each
// result equals the naive evaluator's.
func TestGatedWorkerKeepsSlotState(t *testing.T) {
	cat := slowStarDB(t, 3000, time.Millisecond)
	lo, cust := cat.MustTable("lo"), cat.MustTable("cust")
	op := newOpCfg(t, cat, Config{BatchSize: 64, Workers: 2, NoPrune: true})
	region := func(fact expr.Expr, r string) *plan.StarQuery {
		return &plan.StarQuery{Fact: lo, FactPred: fact, FactCols: []int{0, 3},
			Dims: []plan.DimJoin{{Table: cust, FactKeyCol: 1, DimKeyCol: 0,
				Pred:        expr.NewCmp(expr.EQ, expr.C(1, "region"), expr.Str(r)),
				PayloadCols: []int{1}}}}
	}
	gate := gatePred{armed: new(atomic.Bool), entered: make(chan struct{}), release: make(chan struct{})}
	gate.armed.Store(true)
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
	}()

	retiring := region(gate, "ASIA")
	retWait := runStarAsync(op, retiring)
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no worker reached the gate")
	}
	// The retiring query was admitted on an idle scanner, so its sweep ends
	// with the fact table's last page scanned; its finish tick follows
	// before the scanner takes another admission.
	npages := int64(lo.File.NumPages())
	deadline := time.Now().Add(20 * time.Second)
	for op.Stats().PagesScanned < npages {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stalled at %d of %d pages behind the gate", op.Stats().PagesScanned, npages)
		}
		time.Sleep(100 * time.Microsecond)
	}
	admitted := region(nil, "EUROPE")
	admWait := runStarAsync(op, admitted)
	waitAdmitted(t, op, 2)
	if st := op.Stats(); st.SlotHighWater != 2 || st.Completed != 0 {
		t.Fatalf("behind the gate: SlotHighWater = %d, Completed = %d; want a fresh slot and nothing finished",
			st.SlotHighWater, st.Completed)
	}
	close(gate.release)
	released = true

	for _, c := range []struct {
		name string
		q    *plan.StarQuery
		wait func() ([]types.Row, error)
	}{{"retiring", retiring, retWait}, {"admitted", admitted, admWait}} {
		rows, err := c.wait()
		if err != nil {
			t.Fatalf("%s query: %v", c.name, err)
		}
		mustEqualRows(t, rows, evalStarNaive(t, c.q))
	}
	reused := region(nil, "AMERICA")
	mustEqualRows(t, runStar(t, op, reused), evalStarNaive(t, reused))
	if hw := op.Stats().SlotHighWater; hw != 2 {
		t.Fatalf("SlotHighWater = %d after the third query, want 2: a freed id is reused", hw)
	}
}

// TestOperatorItemsBoundedByPipeline checks that an operator makes no more
// pipeline items than its pipeline holds at once (itemBound), at 1, 2 and 4
// workers, across rounds of sweeps with a collection between them: a freed
// item waits on the free list for the next tick rather than going back to
// the collector. Every other round eight queries run at once behind a
// consumer held at its first batch, so the distributor stops and every
// queue behind it fills.
func TestOperatorItemsBoundedByPipeline(t *testing.T) {
	cat := slowStarDB(t, 6000, 0)
	for _, nw := range []int{1, 2, 4} {
		op := newOpCfg(t, cat, Config{Workers: nw, BatchSize: 64})
		for round := range 6 {
			if round%2 == 0 {
				runStar(t, op, asiaEuropeQuery(cat, 3, float64(round)))
			} else {
				gate := make(chan struct{})
				var wg sync.WaitGroup
				for i := range 8 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						held := i == 0
						err := op.Run(context.Background(), asiaEuropeQuery(cat, int64(1+i%4), float64(i)), func(b *batch.Batch) error {
							if held {
								<-gate
								held = false
							}
							b.Done()
							return nil
						})
						if err != nil {
							t.Error(err)
						}
					}()
				}
				time.Sleep(20 * time.Millisecond)
				close(gate)
				wg.Wait()
			}
			runtime.GC()
		}
		made, bound := op.made.Load(), int64(itemBound(nw))
		t.Logf("workers %d: %d items made, bound %d", nw, made, bound)
		if made == 0 || made > bound {
			t.Errorf("workers %d: %d items made, want 1..%d", nw, made, bound)
		}
		op.Close()
	}
}

// TestItemEntriesHeldBySurvivor checks that a pipeline item holds joined
// entries for a page's survivors, not its rows: after one sweep of a
// selective query, the largest entry array among the items is the most
// survivors any page had times the dimension count, far below a page's
// rows times the dimension count.
func TestItemEntriesHeldBySurvivor(t *testing.T) {
	cat := starDB(t, 6000)
	lo, cust := cat.MustTable("lo"), cat.MustTable("cust")
	op := newOpCfg(t, cat, Config{Workers: 1, BatchSize: 64, NoPrune: true})
	q := &plan.StarQuery{Fact: lo, FactCols: []int{0},
		FactPred: expr.NewCmp(expr.GE, expr.C(3, "lo_rev"), expr.Float(90)),
		Dims: []plan.DimJoin{{Table: cust, FactKeyCol: 1, DimKeyCol: 0,
			Pred:        expr.NewCmp(expr.EQ, expr.C(1, "region"), expr.Str("ASIA")),
			PayloadCols: []int{1}}}}
	rows := runStar(t, op, q)
	mustEqualRows(t, rows, evalStarNaive(t, q))

	// Survivors per page: lo_id is the row number.
	var pageOf []int // by lo_id
	maxRows := 0
	for p := range lo.File.NumPages() {
		cb, err := lo.File.PageCols(p)
		if err != nil {
			t.Fatal(err)
		}
		for range cb.Len() {
			pageOf = append(pageOf, p)
		}
		maxRows = max(maxRows, cb.Len())
		cb.Release()
	}
	perPage := make([]int, lo.File.NumPages())
	for _, r := range rows {
		perPage[pageOf[r[0].I]]++
	}
	most := slices.Max(perPage)
	nd := len(op.tables)

	// Every item comes back to the free list once the sweep's ticks are
	// applied; take each off it to look, and put it back.
	made := int(op.made.Load())
	deadline := time.Now().Add(10 * time.Second)
	for len(op.items) < made {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d items back on the free list", len(op.items), made)
		}
		time.Sleep(100 * time.Microsecond)
	}
	held := 0
	for range made {
		it := <-op.items
		held = max(held, cap(it.ent))
		op.items <- it
	}
	t.Logf("%d items: largest entry array %d, most survivors on a page %d of up to %d rows, %d dimensions",
		made, held, most, maxRows, nd)
	if most == 0 || 2*most > maxRows {
		t.Fatalf("most survivors on a page = %d of %d rows: the query is not selective", most, maxRows)
	}
	if held != most*nd {
		t.Errorf("largest entry array holds %d entries, want the most survivors on a page × dimensions = %d (page rows × dimensions = %d)",
			held, most*nd, maxRows*nd)
	}
}
