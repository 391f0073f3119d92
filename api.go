// Package repro is a from-scratch Go reproduction of "Reactive and Proactive
// Sharing Across Concurrent Analytical Queries" (Psaroudakis et al., SIGMOD
// 2014): the QPipe staged execution engine with Simultaneous Pipelining
// (reactive sharing, push-based over FIFOs or pull-based over Shared Pages
// Lists), the CJOIN operator evaluating a Global Query Plan with shared
// scans / selections / hash-joins (proactive sharing), their integration
// (SP applied on top of the GQP), and the storage and workload substrates
// required to regenerate the paper's demonstration as curves over its five
// protected lines (query-centric, push-SP, pull-SP, GQP, GQP+SP).
//
// This package is the facade: it re-exports the building blocks and offers
// System, a convenience wrapper that assembles a database instance
// (simulated disk, buffer pool, generated SSB or TPC-H data, a running CJOIN
// pipeline) and hands out execution engines. The heavy lifting lives in the
// internal packages:
//
//	internal/storage   pages, disks, buffer pool, circular shared scans
//	internal/engine    QPipe stages, packets, operators, the SP registry
//	internal/spl       the Shared Pages List
//	internal/cjoin     the CJOIN global query plan
//	internal/plan      operator trees and star-query descriptors
//	internal/expr      predicates and scalar expressions
//	internal/ssb       Star Schema Benchmark generator and templates
//	internal/tpch      TPC-H lineitem generator and Q1
//	internal/workload  environments, the five lines, the curve registry
//	                   (Scenarios I-IV, reuse, pruning, overload, faults)
//	                   and the one runner that measures a curve into a table
package repro

import (
	"fmt"

	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Re-exported building blocks. The aliases make the internal packages'
// types usable through the public facade.
type (
	// Engine is the QPipe execution engine.
	Engine = engine.Engine
	// EngineConfig tunes an engine (SP on/off per stage, push vs pull, ...).
	EngineConfig = engine.Config
	// Result is a materialized query result.
	Result = engine.Result
	// SPModel selects push-based (FIFO) or pull-based (SPL) sharing.
	SPModel = engine.SPModel
	// StageStats snapshots one stage's counters (SP attaches, misses, ...).
	StageStats = engine.StageStats
	// EngineStats snapshots all stages.
	EngineStats = engine.EngineStats

	// Catalog is a database instance: disk, buffer pool and tables.
	Catalog = storage.Catalog
	// Table couples a heap file with its shared-scan coordinator.
	Table = storage.Table
	// DiskProfile models a simulated disk's latency and bandwidth.
	DiskProfile = storage.DiskProfile

	// Node is a query plan operator.
	Node = plan.Node
	// PlanKind identifies an operator (and its QPipe stage).
	PlanKind = plan.Kind
	// StarQuery describes a star join for CJOIN admission or query-centric
	// expansion.
	StarQuery = plan.StarQuery
	// DimJoin is one dimension of a star query.
	DimJoin = plan.DimJoin

	// CJoinOperator is a running CJOIN pipeline (Global Query Plan).
	CJoinOperator = cjoin.Operator
	// CJoinConfig tunes the GQP (batch sizes, queue depths, and Workers —
	// the number of parallel probe pipelines, defaulting to GOMAXPROCS).
	CJoinConfig = cjoin.Config
	// CJoinDimSpec fixes one dimension of the GQP chain.
	CJoinDimSpec = cjoin.DimSpec
	// CJoinStats snapshots the GQP's counters.
	CJoinStats = cjoin.Stats

	// SSBDatabase is a generated Star Schema Benchmark database.
	SSBDatabase = ssb.DB
	// SSBTemplate identifies one of the 13 SSB query templates.
	SSBTemplate = ssb.Template
	// SSBInstance is one instantiated SSB query (star + upper fragment).
	SSBInstance = ssb.Instance

	// Gateway is the admission-controlled query service tier: bounded
	// per-latency-class FIFOs, backpressure shedding, deadline-aware
	// admission and streaming delivery in front of an Engine.
	Gateway = service.Gateway
	// ServiceConfig sizes a Gateway (per-class slots, queue depth,
	// high-water mark, classification thresholds).
	ServiceConfig = service.Config
	// ServiceStats snapshots a Gateway plus the engine-side counters it
	// fronts (the /statsz payload).
	ServiceStats = service.Stats
	// ServiceClass is a latency class (short or long).
	ServiceClass = service.Class
	// ServicePriority orders arrivals for shedding (Normal sheds first).
	ServicePriority = service.Priority
	// OverloadError is the typed rejection of a shed arrival (carries the
	// Retry-After hint); matches ErrOverloaded via errors.Is.
	OverloadError = service.OverloadError
	// WouldMissError is the typed rejection of a query whose deadline
	// cannot cover its class's p95 service time; matches ErrWouldMiss.
	WouldMissError = service.WouldMissError
)

// Service-tier sentinels and enums.
var (
	// ErrOverloaded matches every backpressure shed (errors.Is).
	ErrOverloaded = service.ErrOverloaded
	// ErrWouldMiss matches every deadline-aware rejection (errors.Is).
	ErrWouldMiss = service.ErrWouldMiss
)

// Latency classes and shedding priorities.
const (
	ClassShort     = service.ClassShort
	ClassLong      = service.ClassLong
	PriorityNormal = service.Normal
	PriorityHigh   = service.High
)

// Sharing models.
const (
	// SPPush is the original push-based SP (producer copies pages into every
	// satellite FIFO).
	SPPush = engine.SPPush
	// SPPull is pull-based SP over the Shared Pages List.
	SPPull = engine.SPPull
)

// Stage kinds, used as EngineConfig.SPStages keys.
const (
	KindScan      = plan.KindScan
	KindFilter    = plan.KindFilter
	KindProject   = plan.KindProject
	KindHashJoin  = plan.KindHashJoin
	KindAggregate = plan.KindAggregate
	KindSort      = plan.KindSort
	KindCJoin     = plan.KindCJoin
)

// Workload generation and plan building helpers.
var (
	// GenerateSSB loads a Star Schema Benchmark database into a catalog.
	GenerateSSB = ssb.Generate
	// InstantiateSSB draws one randomized instance of an SSB template.
	InstantiateSSB = ssb.Instantiate
	// SSBPool pre-generates n distinct instances of a template.
	SSBPool = ssb.Pool
	// GenerateTPCH loads the TPC-H lineitem table into a catalog.
	GenerateTPCH = tpch.Generate
	// Q1Plan builds the TPC-H Q1 plan (curve I's query).
	Q1Plan = tpch.Q1Plan
)

// The SSB templates.
const (
	Q1_1 = ssb.Q1_1
	Q1_2 = ssb.Q1_2
	Q1_3 = ssb.Q1_3
	Q2_1 = ssb.Q2_1
	Q2_2 = ssb.Q2_2
	Q2_3 = ssb.Q2_3
	Q3_1 = ssb.Q3_1
	Q3_2 = ssb.Q3_2
	Q3_3 = ssb.Q3_3
	Q3_4 = ssb.Q3_4
	Q4_1 = ssb.Q4_1
	Q4_2 = ssb.Q4_2
	Q4_3 = ssb.Q4_3
)

// The demonstration's curves (the paper's §4 experiments): Curves is the
// registry, RunCurve measures one into a table of (x, line) cells with
// counter deltas and checks its orderings.
var (
	Curves   = workload.Curves
	RunCurve = workload.Run
)

// CurveParams is what a caller may set about a run (scale, window, seed,
// workers, residency, pool pages, x values, client count).
type CurveParams = workload.Params

// Residency values for CurveParams.
const (
	// MemoryResident databases fit entirely in the buffer pool.
	MemoryResident = workload.MemoryResident
	// DiskResident databases pay simulated I/O latency on pool misses.
	DiskResident = workload.DiskResident
)

// Config assembles a System.
type Config struct {
	// DiskResident selects a latency/bandwidth-modelled disk (HDD profile)
	// with a partial buffer pool; otherwise the database is memory-resident.
	DiskResident bool
	// Profile overrides the simulated disk profile (nil = HDD profile when
	// DiskResident, zero-latency otherwise).
	Profile *DiskProfile
	// BufferPoolPages caps the buffer pool (0 = 2048 pages = at most 64 MiB;
	// a frame is allocated when a page is first fetched into it).
	BufferPoolPages int
	// CJoin tunes the CJOIN Global Query Plan started by LoadSSB; the zero
	// value selects every default (notably Workers = GOMAXPROCS parallel
	// probe pipelines; CJoin.DisableFold turns off predicate-subsumption
	// query folding at admission, which is on by default). Invalid values
	// surface as a LoadSSB error.
	CJoin CJoinConfig
	// DisableResultCache disables the materialized result cache in engines
	// built by NewEngine (on by default: exact repeat templates answer
	// from the previous materialization until a base table changes).
	DisableResultCache bool
}

// System is an assembled database instance: a simulated disk, a buffer pool,
// generated data, and (once an SSB database is loaded) a running CJOIN
// pipeline usable as the engines' Global Query Plan.
type System struct {
	cat      *storage.Catalog
	disk     *storage.MemDisk
	gqp      *cjoin.Operator
	gqpCfg   cjoin.Config
	noCache  bool
	ssbDB    *ssb.DB
	lineitem *storage.Table
}

// NewSystem creates an empty system.
func NewSystem(cfg Config) *System {
	profile := storage.DiskProfile{}
	if cfg.DiskResident {
		profile = storage.HDDProfile
	}
	if cfg.Profile != nil {
		profile = *cfg.Profile
	}
	pool := cfg.BufferPoolPages
	if pool <= 0 {
		pool = 2048
	}
	disk := storage.NewMemDisk(profile)
	return &System{cat: storage.NewCatalog(disk, pool, true), disk: disk,
		gqpCfg: cfg.CJoin, noCache: cfg.DisableResultCache}
}

// Catalog exposes the underlying catalog (table creation, buffer pool
// statistics, raw scans).
func (s *System) Catalog() *Catalog { return s.cat }

// LoadSSB generates the Star Schema Benchmark database at the given scale
// factor and starts the CJOIN pipeline over its full dimension chain.
func (s *System) LoadSSB(sf float64, seed int64) (*SSBDatabase, error) {
	if s.ssbDB != nil {
		return nil, fmt.Errorf("repro: SSB already loaded")
	}
	db, err := ssb.Generate(s.cat, sf, seed)
	if err != nil {
		return nil, err
	}
	op, err := cjoin.NewOperator(db.Lineorder, workload.SSBChain(db), s.gqpCfg)
	if err != nil {
		return nil, err
	}
	s.ssbDB, s.gqp = db, op
	return db, nil
}

// LoadTPCH generates the TPC-H lineitem table (curve I's data).
func (s *System) LoadTPCH(sf float64, seed int64) (*Table, error) {
	if s.lineitem != nil {
		return nil, fmt.Errorf("repro: TPC-H already loaded")
	}
	tbl, err := tpch.Generate(s.cat, sf, seed)
	if err != nil {
		return nil, err
	}
	s.lineitem = tbl
	return tbl, nil
}

// GQP returns the running CJOIN operator (nil before LoadSSB).
func (s *System) GQP() *CJoinOperator { return s.gqp }

// SSB returns the loaded SSB database (nil before LoadSSB).
func (s *System) SSB() *SSBDatabase { return s.ssbDB }

// Lineitem returns the loaded TPC-H table (nil before LoadTPCH).
func (s *System) Lineitem() *Table { return s.lineitem }

// NewGateway builds an admission-controlled service tier over a fresh engine
// (see NewEngine), pre-wiring the system's CJOIN operator and buffer pool
// into the gateway's Stats snapshot. Callers submit plans through
// Gateway.Submit / Gateway.Stream instead of talking to the engine directly;
// overload surfaces as typed ErrOverloaded / ErrWouldMiss rejections rather
// than unbounded queueing.
func (s *System) NewGateway(engCfg EngineConfig, svcCfg ServiceConfig) *Gateway {
	if svcCfg.CJoin == nil {
		svcCfg.CJoin = s.gqp
	}
	if svcCfg.Pool == nil {
		svcCfg.Pool = s.cat.Pool()
	}
	return service.NewGateway(s.NewEngine(engCfg), svcCfg)
}

// NewEngine builds an execution engine over the system, wiring the CJOIN
// pipeline as the engine's StarRunner when one is running. Unless the
// system was configured with DisableResultCache, the engine's materialized
// result cache is enabled — callers must treat results as shared/read-only.
func (s *System) NewEngine(cfg EngineConfig) *Engine {
	if cfg.Star == nil && s.gqp != nil {
		cfg.Star = s.gqp
	}
	if !s.noCache {
		cfg.ResultCache = true
	}
	return engine.New(s.cat, cfg)
}

// Close shuts the CJOIN pipeline down, then closes the buffer pool and the
// simulated disk, which give their pages back to the arena. Queries must have
// finished: a frame still pinned is released by its holder's Unpin.
func (s *System) Close() {
	if s.gqp != nil {
		s.gqp.Close()
		s.gqp = nil
	}
	_ = s.cat.Pool().Close() // reports pinned frames; they free themselves on Unpin
	if s.disk != nil {
		_ = s.disk.Close()
	}
}
