package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"strconv"

	"repro"
	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Closed loop: every client waits for its reply before it sends the next
// query. Queries in flight are a property of the workload, because sharing
// needs concurrency; the process stays at GOMAXPROCS = nproc.
const (
	inprocClients = 8
	httpClients   = 2 // keep-alive connections
	seqLen        = 4096
)

// querySpec is one distinct query of a workload. make binds it to a
// database, so that the system under test and the oracle, which own separate
// databases, evaluate the same query.
type querySpec struct {
	label string
	make  func(db *ssb.DB) ssb.Instance
	url   string   // http_serve: path and query string of the request
	cols  []string // result column names, which key the NDJSON objects
}

func templateSpec(t ssb.Template, seed int64) querySpec {
	return querySpec{
		label: fmt.Sprintf("%s/seed=%d", t, seed),
		make: func(db *ssb.DB) ssb.Instance {
			return ssb.Instantiate(db, t, rand.New(rand.NewSource(seed)))
		},
		url: "/query?" + url.Values{"template": {t.String()}, "seed": {strconv.FormatInt(seed, 10)}}.Encode(),
	}
}

func dateWindowSpec(selPct, start int) querySpec {
	return querySpec{
		label: fmt.Sprintf("datewin/sel=%d/start=%d", selPct, start),
		make:  func(db *ssb.DB) ssb.Instance { return ssb.DateWindow(db, selPct, start) },
		url: "/query?" + url.Values{"template": {"datewin"}, "sel": {strconv.Itoa(selPct)},
			"start": {strconv.Itoa(start)}}.Encode(),
	}
}

// distinctSpecs draws specs from gen until n of them have distinct plan
// fingerprints on db.
func distinctSpecs(db *ssb.DB, n int, gen func(i int) querySpec) []querySpec {
	seen := make(map[any]bool, n)
	out := make([]querySpec, 0, n)
	for i := 0; len(out) < n && i < n*100; i++ {
		s := gen(i)
		root := s.make(db).Plan(true)
		fp := plan.Fingerprint(root)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		for _, c := range root.Schema().Cols {
			s.cols = append(s.cols, c.Name)
		}
		out = append(out, s)
	}
	return out
}

// templatePool draws n distinct instances, the templates taken in turn so
// that every seed gives the same template mix and only the parameters vary.
func templatePool(db *ssb.DB, templates []ssb.Template, n int, r *rand.Rand) []querySpec {
	return distinctSpecs(db, n, func(i int) querySpec {
		return templateSpec(templates[i%len(templates)], r.Int63n(1<<31))
	})
}

// cycle fills a client's request sequence with seeded permutations of
// [0,n), one after another.
func cycle(n int, r *rand.Rand) []int {
	seq := make([]int, 0, seqLen+n)
	for len(seq) < seqLen {
		seq = append(seq, r.Perm(n)...)
	}
	return seq
}

// cycles gives every client a sequence of its own.
func cycles(n, clients int, r *rand.Rand) [][]int {
	seqs := make([][]int, clients)
	for c := range seqs {
		seqs[c] = cycle(n, r)
	}
	return seqs
}

// target is a system under test that is ready for queries.
type target struct {
	// do runs query q for one closed-loop client and returns when the whole
	// reply has arrived. sp, which may be nil, is the query's trace span.
	do func(ctx context.Context, client, q int, sp *spanRef) (reply, error)
	// counters snapshots the layers' cumulative Stats.
	counters func() (counters, error)
	pid      int // the process whose CPU and memory are the system's
	close    func()

	// In-process handles for the per-layer phases; nil for http_serve.
	db  *ssb.DB
	cat *storage.Catalog
	op  *cjoin.Operator
	srv *server // http_serve only
}

// workloadDef describes one workload. The why strings are BENCHMARK.json's.
type workloadDef struct {
	name      string
	clients   int
	clustered bool // fact table generated in date order
	// queryCentric workloads expand stars into hash-join chains
	// (Instance.Plan(false)); the others route them to CJOIN.
	queryCentric bool
	// specs draws the workload's distinct queries and each client's request
	// sequence (indexes into the specs) from the seed. A single sequence is
	// shared: the clients take its entries in the order they come to ask.
	specs func(db *ssb.DB, r *rand.Rand, clients int) ([]querySpec, [][]int)
	// setup builds the system under test; its duration is setup_s.
	setup func(cfg *runConfig, specs []querySpec) (*target, error)
}

var workloads = []workloadDef{
	{
		name: "gqp_mem", clients: inprocClients,
		specs: func(db *ssb.DB, r *rand.Rand, clients int) ([]querySpec, [][]int) {
			specs := templatePool(db, ssb.AllTemplates, 256, r)
			return specs, cycles(len(specs), clients, r)
		},
		setup: func(cfg *runConfig, specs []querySpec) (*target, error) {
			env, err := workload.NewSSBEnvCfg(workload.EnvConfig{SF: cfg.sf,
				Residency: workload.MemoryResident, Seed: dataSeed})
			if err != nil {
				return nil, err
			}
			// Star = the CJOIN operator; SP and the result cache stay off,
			// folding stays on.
			return envTarget(env, env.Engine(engine.Config{}), true, specs), nil
		},
	},
	{
		name: "qpipe_sp_disk", clients: inprocClients, queryCentric: true,
		specs: func(db *ssb.DB, r *rand.Rand, clients int) ([]querySpec, [][]int) {
			specs := templatePool(db, []ssb.Template{ssb.Q2_1, ssb.Q3_2, ssb.Q4_2}, 8, r)
			return specs, cycles(len(specs), clients, r)
		},
		setup: func(cfg *runConfig, specs []querySpec) (*target, error) {
			env, err := workload.NewSSBEnvCfg(workload.EnvConfig{SF: cfg.sf,
				Residency: workload.DiskResident, PoolPages: cfg.diskPoolPages(), Seed: dataSeed})
			if err != nil {
				return nil, err
			}
			eng := env.Engine(engine.Config{SP: true, Model: engine.SPPull})
			return envTarget(env, eng, false, specs), nil
		},
	},
	{
		name: "gqp_prune_disk", clients: inprocClients, clustered: true,
		specs: func(db *ssb.DB, r *rand.Rand, clients int) ([]querySpec, [][]int) {
			// ssb.DateWindowPool may repeat a start; draw 64 distinct ones.
			nd := len(db.DateKeys)
			starts := r.Perm(nd - nd*10/100 + 1)
			specs := distinctSpecs(db, 64, func(i int) querySpec {
				return dateWindowSpec(10, starts[i%len(starts)])
			})
			return specs, cycles(len(specs), clients, r)
		},
		setup: func(cfg *runConfig, specs []querySpec) (*target, error) {
			env, err := workload.NewSSBEnvCfg(workload.EnvConfig{SF: cfg.sf,
				Residency: workload.DiskResident, PoolPages: cfg.diskPoolPages(), Seed: dataSeed,
				DateClustered: true})
			if err != nil {
				return nil, err
			}
			return envTarget(env, env.Engine(engine.Config{}), true, specs), nil
		},
	},
	{
		name: "reuse_mem", clients: inprocClients,
		specs: func(db *ssb.DB, r *rand.Rand, clients int) ([]querySpec, [][]int) {
			// The first 8 specs are the hot set, the others the pool. One
			// sequence is shared by all clients, so the pool is walked in
			// one cyclic order. It exceeds the default result cache of 256
			// by more than the queries in flight, so under LRU a pool entry
			// has always been evicted by the time its turn comes again, and
			// the hit share is the hot share. That is 9 requests of every
			// 20, at seeded places, not a half: hits take microseconds and
			// misses milliseconds, and a median that sits on the boundary
			// between the two is not a measurement. The sequence is a whole
			// number of passes over the pool, so the walk continues across
			// the wrap and no entry comes round early.
			const hot, pool, block, hotPerBlock = 8, 288, 20, 9
			specs := templatePool(db, ssb.AllTemplates, hot+pool, r)
			order := r.Perm(pool)
			seq := make([]int, 0, pool*block)
			for w := 0; len(seq) < pool*block; {
				isHot := make([]bool, block)
				for _, i := range r.Perm(block)[:hotPerBlock] {
					isHot[i] = true
				}
				for _, h := range isHot {
					if h {
						seq = append(seq, r.Intn(hot))
					} else {
						seq = append(seq, hot+order[w%pool])
						w++
					}
				}
			}
			return specs, [][]int{seq}
		},
		setup: func(cfg *runConfig, specs []querySpec) (*target, error) {
			// The facade's defaults: result cache on, folding on.
			sys := repro.NewSystem(repro.Config{})
			db, err := sys.LoadSSB(cfg.sf, dataSeed)
			if err != nil {
				sys.Close()
				return nil, err
			}
			t := engineTarget(db, sys.Catalog(), sys.GQP(), sys.NewEngine(repro.EngineConfig{}), true, specs)
			t.close = sys.Close
			return t, nil
		},
	},
	{
		name: "http_serve", clients: httpClients,
		specs: func(db *ssb.DB, r *rand.Rand, clients int) ([]querySpec, [][]int) {
			// A seeded pool of 64 distinct requests, uniform over the 13
			// templates with seed in [0,64) plus the two date windows. The
			// pool bounds what the oracle has to compute for one run.
			specs := distinctSpecs(db, 64, func(i int) querySpec {
				if i < 2 {
					return dateWindowSpec([]int{10, 100}[i], 0)
				}
				return templateSpec(ssb.AllTemplates[i%len(ssb.AllTemplates)], r.Int63n(64))
			})
			seqs := make([][]int, clients)
			for c := range seqs {
				seq := make([]int, seqLen)
				for i := range seq {
					seq[i] = r.Intn(len(specs))
				}
				seqs[c] = seq
			}
			return specs, seqs
		},
		setup: func(cfg *runConfig, specs []querySpec) (*target, error) {
			return serverTarget(cfg, specs)
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// envTarget wraps a workload.Env and an engine over it.
func envTarget(env *workload.Env, eng *engine.Engine, gqp bool, specs []querySpec) *target {
	t := engineTarget(env.SSB, env.Cat, env.CJoin, eng, gqp, specs)
	t.close = env.Close
	return t
}

// engineTarget runs queries by building the plan and blocking in
// Engine.Execute, as an embedding program would.
func engineTarget(db *ssb.DB, cat *storage.Catalog, op *cjoin.Operator, eng *engine.Engine, gqp bool, specs []querySpec) *target {
	insts := make([]ssb.Instance, len(specs))
	for i, s := range specs {
		insts[i] = s.make(db)
	}
	return &target{
		pid: os.Getpid(), db: db, cat: cat, op: op,
		do: func(ctx context.Context, _, q int, sp *spanRef) (reply, error) {
			b := sp.child("plan.build")
			root := insts[q].Plan(gqp)
			b.end()
			x := sp.child("engine.execute")
			res, err := eng.Execute(ctx, root)
			x.end()
			if err != nil {
				return reply{}, err
			}
			return reply{rows: res.Rows}, nil
		},
		counters: func() (counters, error) {
			c := counters{
				pool:   cat.Pool().Stats(),
				decode: cat.Pool().DecodeStats(),
				disk:   cat.Disk().Stats(),
				engine: eng.Stats(),
			}
			if op != nil {
				c.cjoin = op.Stats()
			}
			return c, nil
		},
	}
}

// counters is one snapshot of every layer's cumulative Stats.
type counters struct {
	pool    storage.PoolStats
	decode  storage.DecodeStats
	disk    storage.DiskStats
	cjoin   cjoin.Stats
	engine  engine.EngineStats
	gateway *service.Stats // http_serve: the /statsz payload
}
