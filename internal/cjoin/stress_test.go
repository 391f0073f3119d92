package cjoin

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

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
	}, Config{BatchSize: 64, Workers: 4, QueueLen: 2})
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
