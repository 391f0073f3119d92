// Package workload drives the paper's demonstration: it owns database
// environments (memory- or disk-resident), the five protected comparison
// lines, a registry of curves over them (Scenarios I-IV of the paper's §4 and
// this repository's reuse, pruning, overload and fault axes), and the one
// runner that measures any curve into a Table.
package workload

import (
	"fmt"
	"time"

	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Residency selects whether the database fits the buffer pool or lives on
// the (simulated) disk.
type Residency int

// Residency values. DefaultResidency lets each curve pick its demo default
// (memory-resident for I and III, disk-resident for II and IV).
const (
	DefaultResidency Residency = iota
	MemoryResident
	DiskResident
)

// String names the residency.
func (r Residency) String() string {
	if r == DiskResident {
		return "disk-resident"
	}
	return "memory-resident"
}

// Env is one database environment: a catalog over a simulated disk with
// either the SSB star schema or the TPC-H lineitem table loaded, plus (for
// SSB) a running CJOIN operator over the full dimension chain.
type Env struct {
	Cat  *storage.Catalog
	Disk *storage.MemDisk

	// Fault is the fault-injection layer between the catalog and the disk;
	// set only when EnvConfig.FaultInjection was requested (curve F and the
	// chaos batteries).
	Fault *storage.FaultDisk

	SSB      *ssb.DB        // set by NewSSBEnv
	Lineitem *storage.Table // set by NewTPCHEnv

	CJoin *cjoin.Operator // set by NewSSBEnv

	Residency Residency
	PoolPages int
}

// Page bytes per generated fact row, the SSB dimensions included: pages
// hold an SSB lineorder row in 18.1-19.1 bytes and a TPC-H lineitem row in
// 26.8-27.3 (measured at sf 0.01 and 0.1; TestEstimatePagesTracksGenerator
// pins both). The two differ by more than one estimate can cover.
const (
	ssbRowBytes  = 19
	tpchRowBytes = 28
)

// estimatePages over-approximates the page count of a generated database of
// factRows fact rows at rowBytes page bytes a row, so the buffer pool can be
// sized before generation.
func estimatePages(factRows, rowBytes int) int {
	return factRows*rowBytes/storage.PageSize + 16
}

// newCatalog builds the disk+catalog pair for the residency mode. The pool
// size is a cap on frames that are allocated as pages are fetched: for
// memory-resident databases it is twice the estimate, so the whole database
// fits whatever the generator wrote; for disk-resident ones it is a quarter of
// the estimate (at least 32 frames, so concurrent scans cannot pin them all)
// and every miss pays the HDD-profile latency.
func newCatalog(est int, res Residency, poolPages int, fault bool) (*storage.Catalog, *storage.MemDisk, *storage.FaultDisk, int) {
	var disk *storage.MemDisk
	switch res {
	case DiskResident:
		disk = storage.NewMemDisk(storage.HDDProfile)
		if poolPages <= 0 {
			poolPages = max(est/4, 32)
		}
	default:
		disk = storage.NewMemDisk(storage.DiskProfile{})
		if poolPages <= 0 {
			poolPages = est * 2
		}
	}
	var fd *storage.FaultDisk
	var d storage.Disk = disk
	if fault {
		// The fault layer starts fully disarmed: generation and warm-up
		// I/O pass through untouched until a scenario arms a fault mode.
		fd = storage.NewFaultDisk(disk)
		d = fd
	}
	return storage.NewCatalog(d, poolPages), disk, fd, poolPages
}

// EnvConfig parameterizes an environment beyond the positional basics:
// today that is the degree of CJOIN data parallelism.
type EnvConfig struct {
	SF        float64
	Residency Residency
	PoolPages int
	Seed      int64
	// Workers is the number of parallel CJOIN probe pipelines
	// (0 = GOMAXPROCS).
	Workers int
	// DateClustered generates the fact table with monotone lo_orderdate
	// (time-ordered ingest layout) so date windows map to page ranges.
	DateClustered bool
	// NoPrune disables zone-map page pruning in both the engine's table
	// scans and the CJOIN shared scan (the ablation toggle).
	NoPrune bool
	// NoFold has no effect.
	//
	// Deprecated: CJOIN no longer folds queries; every admission opens a
	// bitmap slot of its own.
	NoFold bool
	// FaultInjection interposes a storage.FaultDisk (initially disarmed)
	// between the catalog and the disk, exposed as Env.Fault — the hook
	// curve F and the chaos batteries use to inject read/write faults,
	// corrupt bytes and poisoned pages.
	FaultInjection bool
}

// SSBChain is the CJOIN dimension chain over a generated SSB database:
// date → customer → supplier → part.
func SSBChain(db *ssb.DB) []cjoin.DimSpec {
	return []cjoin.DimSpec{
		{Table: db.Date, FactKeyCol: ssb.LOOrderDate, DimKeyCol: ssb.DDateKey},
		{Table: db.Customer, FactKeyCol: ssb.LOCustKey, DimKeyCol: ssb.CCustKey},
		{Table: db.Supplier, FactKeyCol: ssb.LOSuppKey, DimKeyCol: ssb.SSuppKey},
		{Table: db.Part, FactKeyCol: ssb.LOPartKey, DimKeyCol: ssb.PPartKey},
	}
}

// NewSSBEnv generates an SSB database and starts the CJOIN operator over
// SSBChain, with the default degree of probe parallelism.
func NewSSBEnv(sf float64, res Residency, poolPages int, seed int64) (*Env, error) {
	return NewSSBEnvCfg(EnvConfig{SF: sf, Residency: res, PoolPages: poolPages, Seed: seed})
}

// NewSSBEnvCfg is NewSSBEnv with every knob exposed.
func NewSSBEnvCfg(cfg EnvConfig) (*Env, error) {
	factRows := int(float64(ssb.LineorderRowsPerSF) * cfg.SF)
	cat, disk, fd, pool := newCatalog(estimatePages(factRows, ssbRowBytes), cfg.Residency, cfg.PoolPages, cfg.FaultInjection)
	db, err := ssb.GenerateOpts(cat, cfg.SF, cfg.Seed, ssb.GenOptions{DateClustered: cfg.DateClustered})
	if err != nil {
		return nil, fmt.Errorf("workload: generate ssb: %w", err)
	}
	op, err := cjoin.NewOperator(db.Lineorder, SSBChain(db),
		cjoin.Config{Workers: cfg.Workers, NoPrune: cfg.NoPrune})
	if err != nil {
		return nil, fmt.Errorf("workload: start cjoin: %w", err)
	}
	return &Env{Cat: cat, Disk: disk, Fault: fd, SSB: db, CJoin: op,
		Residency: cfg.Residency, PoolPages: pool}, nil
}

// NewTPCHEnv generates the lineitem table for curve I.
func NewTPCHEnv(sf float64, res Residency, poolPages int, seed int64) (*Env, error) {
	factRows := int(float64(tpch.LineitemRowsPerSF) * sf)
	cat, disk, _, pool := newCatalog(estimatePages(factRows, tpchRowBytes), res, poolPages, false)
	tbl, err := tpch.Generate(cat, sf, seed)
	if err != nil {
		return nil, fmt.Errorf("workload: generate tpch: %w", err)
	}
	return &Env{Cat: cat, Disk: disk, Lineitem: tbl, Residency: res, PoolPages: pool}, nil
}

// Engine builds an execution engine over the environment, wiring the CJOIN
// operator as the engine's StarRunner when present; EnvConfig.NoPrune, which
// the operator carries, turns pruning off in the engine's scans too.
func (env *Env) Engine(cfg engine.Config) *engine.Engine {
	if env.CJoin != nil {
		if cfg.Star == nil {
			cfg.Star = env.CJoin
		}
		if env.CJoin.Config().NoPrune {
			cfg.NoPrune = true
		}
	}
	return engine.New(env.Cat, cfg)
}

// CJoinBusy returns the CJOIN pipeline's cumulative processing time (zero
// when no GQP is running); it feeds the CPU-utilisation proxy.
func (env *Env) CJoinBusy() time.Duration {
	if env.CJoin == nil {
		return 0
	}
	return env.CJoin.Stats().Busy
}

// Close shuts down the CJOIN pipeline, then closes the buffer pool and the
// disk, which give their pages back to the arena. Queries must have finished:
// a frame still pinned is released by its holder's Unpin.
func (env *Env) Close() {
	if env.CJoin != nil {
		env.CJoin.Close()
	}
	_ = env.Cat.Pool().Close() // reports pinned frames; they free themselves on Unpin
	if env.Disk != nil {
		_ = env.Disk.Close()
	}
}
