package workload

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/ssb"
	"repro/internal/types"
	"repro/internal/vec"
)

// naiveStar evaluates a star query's output rows by looking every fact row's
// keys up in maps of the dimension rows that pass their predicates — every
// equal entry, as the query-centric join emits one row per match.
func naiveStar(t *testing.T, q *plan.StarQuery) []types.Row {
	t.Helper()
	dims := make([]map[int64][]types.Row, len(q.Dims))
	for i, d := range q.Dims {
		rows, err := d.Table.File.AllRows()
		if err != nil {
			t.Fatal(err)
		}
		dims[i] = make(map[int64][]types.Row)
		for _, r := range rows {
			if k := r[d.DimKeyCol]; !k.IsNull() && (d.Pred == nil || d.Pred.Eval(r).Bool()) {
				dims[i][k.I] = append(dims[i][k.I], r)
			}
		}
	}
	facts, err := q.Fact.File.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	for _, f := range facts {
		if q.FactPred != nil && !q.FactPred.Eval(f).Bool() {
			continue
		}
		partial := []types.Row{nil}
		for _, c := range q.FactCols {
			partial[0] = append(partial[0], f[c])
		}
		for i, d := range q.Dims {
			var next []types.Row
			if k := f[d.FactKeyCol]; !k.IsNull() {
				for _, p := range partial {
					for _, dr := range dims[i][k.I] {
						row := append(types.Row(nil), p...)
						for _, c := range d.PayloadCols {
							row = append(row, dr[c])
						}
						next = append(next, row)
					}
				}
			}
			partial = next
		}
		out = append(out, partial...)
	}
	return out
}

// Every SSB template, with random parameters: the star's query-centric chain
// with index-served joins and a naive map join return the same rows, and
// every join probes one of CJOIN's four indexes without building another.
func TestIndexServedChainMatchesNaive(t *testing.T) {
	env, err := NewSSBEnv(0.01, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	e := env.Engine(engine.Config{})
	ctx := context.Background()
	r := rand.New(rand.NewSource(29))
	joins, nonEmpty := 0, 0
	for _, tpl := range ssb.AllTemplates {
		for range 2 {
			in := ssb.Instantiate(env.SSB, tpl, r)
			chain := in.Star.QueryCentric()
			res, err := e.Execute(ctx, chain)
			if err != nil {
				t.Fatalf("%s: %v", in.Name, err)
			}
			want := naiveStar(t, in.Star)
			mustEqualRows(t, res.Rows, want)
			joins += len(in.Star.Dims)
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 16 {
		t.Errorf("only %d of 26 instances returned rows", nonEmpty)
	}
	if es := e.Stats(); es.IndexJoins != int64(joins) || es.IndexBuilds != 4 {
		t.Errorf("%d index joins and %d index builds, want %d and CJOIN's 4", es.IndexJoins, es.IndexBuilds, joins)
	}
}

// The qpipe_sp_disk shape: query-centric Q2.1, Q3.2 and Q4.2 from four
// clients under pull SP over a disk-resident database. The environment
// builds each (dimension, key, version) index once — CJOIN's, at start — and
// every join the engine runs probes one of them. After Close the batches,
// the arena's pages and the goroutines are back at their baseline.
func TestQueryCentricBuildsEachIndexOnce(t *testing.T) {
	arena.Settle()
	before, live, routines := arena.Snapshot(), vec.LiveBatches(), runtime.NumGoroutine()
	env, err := NewSSBEnvCfg(EnvConfig{SF: 0.01, Residency: DiskResident, PoolPages: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := env.Engine(engine.Config{SP: true, Model: engine.SPPull})
	start := snapshot(env, e, nil)
	if start["index_builds"] != 4 {
		t.Fatalf("%v index builds at start, want CJOIN's 4", start["index_builds"])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			for i := range 6 {
				tpl := []ssb.Template{ssb.Q2_1, ssb.Q3_2, ssb.Q4_2}[(c+i)%3]
				if _, err := e.Execute(context.Background(), ssb.Instantiate(env.SSB, tpl, r).Plan(false)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	end := snapshot(env, e, nil)
	joins := e.StageStatsFor(plan.KindHashJoin).Executed
	if end["index_builds"] != 4 || end["index_joins"]-start["index_joins"] != float64(joins) || joins == 0 {
		t.Errorf("%v index builds and %v index joins over %d executed joins, want 4 and every join",
			end["index_builds"], end["index_joins"]-start["index_joins"], joins)
	}
	env.Close()

	if n := vec.LiveBatches(); n != live {
		t.Errorf("LiveBatches = %d after Close, want baseline %d", n, live)
	}
	if after := arena.Snapshot(); after.PagesInUse != before.PagesInUse {
		t.Errorf("arena pages in use %d after Close, %d before the environment", after.PagesInUse, before.PagesInUse)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > routines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > routines {
		t.Errorf("%d goroutines after Close, %d before the environment", n, routines)
	}
}
