// Benchmarks regenerating every experiment of the paper (one per scenario,
// §4.3-4.4) plus ablation micro-benchmarks for the design choices called out
// in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Scenario benches measure one workload round per iteration; the per-op time
// is the quantity the paper plots (response time for Scenario I, inverse
// throughput for Scenarios II-IV).
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/bitvec"
	"repro/internal/spl"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Shared environments (generated once per binary run)

var (
	tpchOnce sync.Once
	tpchEnvV *workload.Env

	ssbEnvMu sync.Mutex
	ssbEnvs  = map[workload.Residency]*ssbEnvSlot{} // one live env per residency
)

type ssbEnvSlot struct {
	workers int
	env     *workload.Env
}

func tpchEnv(b *testing.B) *workload.Env {
	tpchOnce.Do(func() {
		env, err := workload.NewTPCHEnv(0.01, workload.MemoryResident, 0, 1)
		if err != nil {
			panic(err)
		}
		tpchEnvV = env
	})
	return tpchEnvV
}

// ssbEnvW returns (building on first use) the shared SSB environment for one
// point on the benchmarks' workers=N axis; workers=0 selects the GOMAXPROCS
// default. At most one environment per residency stays alive: moving to a
// different workers value closes and replaces the previous one, so earlier
// axis points cannot skew later measurements with dead heap (regeneration at
// sf=0.01 costs about a second).
func ssbEnvW(b *testing.B, res workload.Residency, workers int) *workload.Env {
	b.Helper()
	ssbEnvMu.Lock()
	defer ssbEnvMu.Unlock()
	if slot, ok := ssbEnvs[res]; ok {
		if slot.workers == workers {
			return slot.env
		}
		slot.env.Close()
		delete(ssbEnvs, res)
	}
	env, err := workload.NewSSBEnvCfg(workload.EnvConfig{
		SF: 0.01, Residency: res, Seed: 1, Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	ssbEnvs[res] = &ssbEnvSlot{workers: workers, env: env}
	return env
}

func ssbMemEnv(b *testing.B) *workload.Env  { return ssbEnvW(b, workload.MemoryResident, 0) }
func ssbDiskEnv(b *testing.B) *workload.Env { return ssbEnvW(b, workload.DiskResident, 0) }

// scenario3WorkersAxis is the workers=N axis swept by BenchmarkScenarioIII's
// GQP line — the acceptance curve for probe-worker scaling. Scenario II and
// IV sample only the {1, 4} endpoints to bound their disk-resident runtime.
var scenario3WorkersAxis = []int{1, 2, 4, 8}

// ---------------------------------------------------------------------------
// Scenario I (Figure 4): response time of k identical TPC-H Q1 instances.

func BenchmarkScenarioI(b *testing.B) {
	env := tpchEnv(b)
	ctx := context.Background()
	scanOnly := map[PlanKind]bool{KindScan: true}
	modes := []struct {
		name string
		cfg  EngineConfig
	}{
		{"query-centric", EngineConfig{}},
		{"pushSP", EngineConfig{SP: true, Model: SPPush, SPStages: scanOnly}},
		{"pullSP", EngineConfig{SP: true, Model: SPPull, SPStages: scanOnly}},
	}
	for _, m := range modes {
		for _, k := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("mode=%s/queries=%d", m.name, k), func(b *testing.B) {
				e := env.Engine(m.cfg)
				for i := 0; i < b.N; i++ {
					roots := make([]Node, k)
					for j := range roots {
						roots[j] = Q1Plan(env.Lineitem, 90)
					}
					if _, err := e.ExecuteBatch(ctx, roots); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Scenario II: throughput vs concurrency (one batched round per iteration,
// disk-resident, randomized Q2.1 parameters).

func BenchmarkScenarioII(b *testing.B) {
	ctx := context.Background()
	lines := []struct {
		name    string
		useGQP  bool
		workers []int // 0 = default env; the qpipe line never probes the GQP
		cfg     EngineConfig
	}{
		{"qpipeSP", false, []int{0}, EngineConfig{SP: true, Model: SPPull}},
		{"gqp", true, []int{1, 4}, EngineConfig{SP: true, Model: SPPull}},
	}
	for _, line := range lines {
		for _, workers := range line.workers {
			env := ssbEnvW(b, workload.DiskResident, workers)
			pool := ssb.Pool(env.SSB, ssb.Q2_1, 32, 5)
			for _, clients := range []int{1, 8, 32} {
				name := fmt.Sprintf("line=%s/clients=%d", line.name, clients)
				if line.useGQP {
					name = fmt.Sprintf("line=%s/workers=%d/clients=%d", line.name, workers, clients)
				}
				b.Run(name, func(b *testing.B) {
					e := env.Engine(line.cfg)
					r := rand.New(rand.NewSource(3))
					for i := 0; i < b.N; i++ {
						roots := make([]Node, clients)
						for j := range roots {
							roots[j] = pool[r.Intn(len(pool))].Plan(line.useGQP)
						}
						if _, err := e.ExecuteBatch(ctx, roots); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(clients)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Scenario III: throughput vs selectivity (memory-resident, low concurrency,
// randomized predicate windows so SP rarely fires).

func BenchmarkScenarioIII(b *testing.B) {
	ctx := context.Background()
	const clients = 2
	run := func(b *testing.B, env *workload.Env, useGQP bool, sel float64) {
		e := env.Engine(EngineConfig{SP: true, Model: SPPull})
		width := int64(sel * 50)
		if width < 1 {
			width = 1
		}
		r := rand.New(rand.NewSource(3))
		for i := 0; i < b.N; i++ {
			roots := make([]Node, clients)
			for j := range roots {
				start := r.Int63n(50 - width + 1)
				roots[j] = ssb.ParametricWindow(env.SSB, width, start).Plan(useGQP)
			}
			if _, err := e.ExecuteBatch(ctx, roots); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(clients)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	for _, sel := range []float64{0.1, 0.5, 1.0} {
		b.Run(fmt.Sprintf("line=qpipeSP/sel=%.0f%%", sel*100), func(b *testing.B) {
			run(b, ssbMemEnv(b), false, sel)
		})
	}
	for _, workers := range scenario3WorkersAxis {
		env := ssbEnvW(b, workload.MemoryResident, workers)
		for _, sel := range []float64{0.1, 0.5, 1.0} {
			b.Run(fmt.Sprintf("line=gqp/workers=%d/sel=%.0f%%", workers, sel*100), func(b *testing.B) {
				run(b, env, true, sel)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Scenario IV: throughput vs plan diversity (batched, disk-resident; gqp+sp
// admits one query per distinct star sub-plan).

func BenchmarkScenarioIV(b *testing.B) {
	ctx := context.Background()
	const clients = 16
	spOnCJoin := map[PlanKind]bool{KindCJoin: true}
	lines := []struct {
		name string
		cfg  EngineConfig
	}{
		{"gqp", EngineConfig{}},
		{"gqpSP", EngineConfig{SP: true, Model: SPPull, SPStages: spOnCJoin}},
	}
	for _, line := range lines {
		for _, workers := range []int{1, 4} {
			env := ssbEnvW(b, workload.DiskResident, workers)
			for _, plans := range []int{1, 16} {
				b.Run(fmt.Sprintf("line=%s/workers=%d/plans=%d", line.name, workers, plans), func(b *testing.B) {
					pool := ssb.Pool(env.SSB, ssb.Q2_1, plans, 11)
					e := env.Engine(line.cfg)
					r := rand.New(rand.NewSource(3))
					for i := 0; i < b.N; i++ {
						roots := make([]Node, clients)
						for j := range roots {
							roots[j] = pool[r.Intn(len(pool))].Plan(true)
						}
						if _, err := e.ExecuteBatch(ctx, roots); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(clients)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation: FIFO copy (push) vs SPL hand-off (pull) for one producer and N
// consumers — the data structure comparison behind Scenario I.

func benchPages() []*batch.Batch {
	pages := make([]*batch.Batch, 64)
	for i := range pages {
		bt := batch.New(256)
		for j := 0; j < 256; j++ {
			bt.Append(types.Row{types.NewInt(int64(j)), types.NewFloat(float64(j)), types.NewString("payload-payload")})
		}
		pages[i] = bt
	}
	return pages
}

func BenchmarkSPLvsFIFO(b *testing.B) {
	pages := benchPages()
	for _, consumers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("model=push/consumers=%d", consumers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chans := make([]chan *batch.Batch, consumers)
				var wg sync.WaitGroup
				for c := 0; c < consumers; c++ {
					chans[c] = make(chan *batch.Batch, 8)
					wg.Add(1)
					go func(ch chan *batch.Batch) {
						defer wg.Done()
						for range ch {
						}
					}(chans[c])
				}
				// The producer copies each page into every consumer FIFO.
				for _, p := range pages {
					for c, ch := range chans {
						if c == 0 {
							ch <- p
						} else {
							ch <- p.Clone()
						}
					}
				}
				for _, ch := range chans {
					close(ch)
				}
				wg.Wait()
			}
		})
		b.Run(fmt.Sprintf("model=pull/consumers=%d", consumers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				list := spl.New(8)
				var wg sync.WaitGroup
				for c := 0; c < consumers; c++ {
					r, err := list.NewReader()
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func(r *spl.Reader) {
						defer wg.Done()
						for {
							if _, err := r.Next(); err != nil {
								return
							}
						}
					}(r)
				}
				// The producer appends each page exactly once.
				for _, p := range pages {
					if err := list.Append(p); err != nil {
						b.Fatal(err)
					}
				}
				list.Close(nil)
				wg.Wait()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: circular shared scans vs independent scans on a latency-modelled
// disk (k concurrent scanners).

func BenchmarkSharedScan(b *testing.B) {
	mk := func(shared bool) (*storage.Table, *storage.MemDisk) {
		disk := storage.NewMemDisk(storage.DiskProfile{ReadLatency: 20 * time.Microsecond, MaxConcurrent: 4})
		cat := storage.NewCatalog(disk, 16, shared)
		tbl, err := cat.CreateTable("t", types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt},
			types.Column{Name: "pad", Kind: types.KindString},
		))
		if err != nil {
			b.Fatal(err)
		}
		pad := types.NewString(string(make([]byte, 120)))
		for i := 0; i < 30000; i++ {
			if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), pad}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tbl.File.Seal(); err != nil {
			b.Fatal(err)
		}
		return tbl, disk
	}
	for _, shared := range []bool{true, false} {
		tbl, disk := mk(shared)
		b.Run(fmt.Sprintf("shared=%v/scanners=4", shared), func(b *testing.B) {
			readsBefore := disk.Stats().PageReads
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < 4; s++ {
					wg.Add(1)
					// Scanners arrive staggered (as real queries do): late
					// arrivals either join the in-progress sweep at its
					// current position (shared) or start their own from
					// page zero (unshared).
					go func(delay time.Duration) {
						defer wg.Done()
						time.Sleep(delay)
						cur := tbl.Attach()
						defer cur.Close()
						for {
							cb, _, ok, err := cur.NextCols()
							if err != nil || !ok {
								return
							}
							cb.Release()
						}
					}(time.Duration(s) * 2 * time.Millisecond)
				}
				wg.Wait()
			}
			// The savings of circular shared scans show up as disk reads per
			// round (~1x pages shared vs ~4x unshared).
			reads := disk.Stats().PageReads - readsBefore
			b.ReportMetric(float64(reads)/float64(b.N), "diskreads/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: bitmap AND cost per CJOIN probe as the admitted-query population
// grows (the GQP bookkeeping Scenario III measures).

func BenchmarkCJoinBitmapAnd(b *testing.B) {
	for _, queries := range []int{16, 256, 4096} {
		tuple := bitvec.New(queries)
		entry := bitvec.New(queries)
		mask := bitvec.New(queries)
		var tupleW, entryW, maskW []uint64
		for i := 0; i < queries; i++ {
			if i%2 == 0 {
				tuple.Set(i)
				tupleW = bitvec.SetWord(tupleW, i)
			}
			if i%3 == 0 {
				entry.Set(i)
				entryW = bitvec.SetWord(entryW, i)
			}
			if i%5 != 0 {
				mask.Set(i)
				maskW = bitvec.SetWord(maskW, i)
			}
		}
		b.Run(fmt.Sprintf("impl=bits/queries=%d", queries), func(b *testing.B) {
			work := tuple.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(tuple)
				work.AndMasked(entry, mask)
				if !work.Any() {
					b.Fatal("bitmap unexpectedly empty")
				}
			}
		})
		// The flat word kernels run on inline bitmap arenas — the CJOIN
		// steady-state representation (zero allocations).
		b.Run(fmt.Sprintf("impl=words/queries=%d", queries), func(b *testing.B) {
			work := make([]uint64, len(tupleW))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, tupleW)
				bitvec.AndMaskedWords(work, entryW, maskW)
				if !bitvec.AnyWords(work) {
					b.Fatal("bitmap unexpectedly empty")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: batched vs staggered submission — the SP sharing window
// (Scenario IV's batching knob).

func BenchmarkSPWindow(b *testing.B) {
	env := ssbMemEnv(b)
	ctx := context.Background()
	in := ssb.Instantiate(env.SSB, ssb.Q2_1, rand.New(rand.NewSource(7)))
	const k = 8
	b.Run("submission=batched", func(b *testing.B) {
		e := env.Engine(EngineConfig{SP: true, Model: SPPull})
		for i := 0; i < b.N; i++ {
			roots := make([]Node, k)
			for j := range roots {
				roots[j] = in.Plan(false)
			}
			if _, err := e.ExecuteBatch(ctx, roots); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("submission=staggered", func(b *testing.B) {
		e := env.Engine(EngineConfig{SP: true, Model: SPPull})
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				if _, err := e.Execute(ctx, in.Plan(false)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation: scan readahead — prefetching the next page while the current one
// decodes hides disk latency on sequential sweeps.

func BenchmarkScanPrefetch(b *testing.B) {
	for _, prefetch := range []bool{false, true} {
		disk := storage.NewMemDisk(storage.DiskProfile{ReadLatency: 100 * time.Microsecond, MaxConcurrent: 4})
		cat := storage.NewCatalog(disk, 16, true)
		tbl, err := cat.CreateTable("t", types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt},
			types.Column{Name: "pad", Kind: types.KindString},
		))
		if err != nil {
			b.Fatal(err)
		}
		pad := types.NewString(string(make([]byte, 120)))
		for i := 0; i < 30000; i++ {
			if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), pad}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tbl.File.Seal(); err != nil {
			b.Fatal(err)
		}
		tbl.ScanGroup().SetPrefetch(prefetch)
		b.Run(fmt.Sprintf("prefetch=%v", prefetch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := tbl.Attach()
				for {
					cb, _, ok, err := cur.NextCols()
					if err != nil {
						b.Fatal(err)
					} else if !ok {
						break
					}
					cb.Release()
				}
				cur.Close()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: zone-map pruning on the Scenario IV date-clustered axis. One
// 10%-selectivity date-window star query per iteration over a disk-resident,
// date-clustered fact table — pruning on vs off (the pre-zone-map baseline).
// With pruning the CJOIN sweep proves ~90% of pages irrelevant from their
// zone maps and never fetches them.

func BenchmarkPrunedSweep(b *testing.B) {
	ctx := context.Background()
	for _, mode := range []struct {
		name    string
		noPrune bool
	}{{"prune", false}, {"noprune", true}} {
		// 24 pool pages against a 45-page fact table: the 10% window stays
		// resident, a full sweep cannot (the genuinely disk-resident regime).
		env, err := workload.NewSSBEnvCfg(workload.EnvConfig{
			SF: 0.01, Residency: workload.DiskResident, PoolPages: 24, Seed: 1,
			DateClustered: true, NoPrune: mode.noPrune,
		})
		if err != nil {
			b.Fatal(err)
		}
		e := env.Engine(EngineConfig{})
		in := ssb.DateWindow(env.SSB, 10, 500)
		b.Run("line="+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(ctx, in.Plan(true)); err != nil {
					b.Fatal(err)
				}
			}
		})
		env.Close()
	}
}
