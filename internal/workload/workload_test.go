package workload

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
	"repro/internal/vec"
)

func canon(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func mustEqualRows(t *testing.T, got, want []types.Row) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("got %d rows, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d:\n got  %s\n want %s", i, g[i], w[i])
		}
	}
}

// The GQP strategy must produce exactly the same result as the query-centric
// strategy for every SSB template (end-to-end engine+cjoin integration).
func TestGQPMatchesQueryCentricAcrossTemplates(t *testing.T) {
	env, err := NewSSBEnv(0.0005, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	e := env.Engine(engine.Config{})
	ctx := context.Background()
	r := rand.New(rand.NewSource(13))
	for _, tpl := range ssb.AllTemplates {
		in := ssb.Instantiate(env.SSB, tpl, r)
		qc, err := e.Execute(ctx, in.Plan(false))
		if err != nil {
			t.Fatalf("%s query-centric: %v", tpl, err)
		}
		gqp, err := e.Execute(ctx, in.Plan(true))
		if err != nil {
			t.Fatalf("%s gqp: %v", tpl, err)
		}
		if len(qc.Rows) != len(gqp.Rows) {
			t.Fatalf("%s: query-centric %d rows, gqp %d rows", tpl, len(qc.Rows), len(gqp.Rows))
		}
		mustEqualRows(t, gqp.Rows, qc.Rows)
	}
}

// The aggregate above the exchange changed how it evaluates arithmetic
// arguments (columnar kernels instead of boxed rows); the results must not
// have. The digests are sha256 prefixes of the sorted result rows of every SSB
// template, recorded from the commit before that change (860214b) on the same
// data and instance seeds — byte-identical there between the CJOIN plan and
// the query-centric plan, and so they must be here.
func TestTemplateResultsMatchRecordedDigests(t *testing.T) {
	want := map[ssb.Template]string{
		ssb.Q1_1: "1:e1fee134a34081a5", ssb.Q1_2: "1:54107c1acf47ea17", ssb.Q1_3: "1:0fd7764348bf9602",
		ssb.Q2_1: "216:b679cb5d35d3984b", ssb.Q2_2: "42:dfd82468626f5eaf", ssb.Q2_3: "2:55ad8c80c322374b",
		ssb.Q3_1: "100:3d37dac6946bd478", ssb.Q3_2: "31:babe27a150f54277",
		ssb.Q3_3: "0:e3b0c44298fc1c14", ssb.Q3_4: "0:e3b0c44298fc1c14",
		ssb.Q4_1: "35:bef39c482d25131e", ssb.Q4_2: "38:a1052ca1ac578495", ssb.Q4_3: "0:e3b0c44298fc1c14",
	}
	env, err := NewSSBEnv(0.01, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	e := env.Engine(engine.Config{})
	ctx := context.Background()
	r := rand.New(rand.NewSource(13))
	for _, tpl := range ssb.AllTemplates {
		in := ssb.Instantiate(env.SSB, tpl, r)
		for _, gqp := range []bool{true, false} {
			res, err := e.Execute(ctx, in.Plan(gqp))
			if err != nil {
				t.Fatalf("%s gqp=%v: %v", tpl, gqp, err)
			}
			sum := sha256.Sum256([]byte(strings.Join(canon(res.Rows), "\n")))
			if got := fmt.Sprintf("%d:%x", len(res.Rows), sum[:8]); got != want[tpl] {
				t.Errorf("%s gqp=%v: rows:digest = %s, recorded %s", tpl, gqp, got, want[tpl])
			}
		}
	}
}

// The page builder may change how it admits a row, never what it writes. The
// digests are sha256 prefixes over every page of every generated table, in
// page order, recorded from the first bit-packed page format (format 4),
// whose decoded rows TestGeneratedRowsMatchRecordedDigests holds to those of
// the byte-aligned format before it: any byte that moves — a different cut
// row, a different encoding choice, a different draw of the generator —
// fails here. The sf 0.1 fact table, the benchmark's own data and several
// hundred load chunks long, is skipped under -short.
func TestGeneratedPagesMatchRecordedDigests(t *testing.T) {
	want := map[string]string{
		"ssb/date":                "1:63b39356e178ecaf",
		"ssb/customer":            "1:50ca3c945212bbf2",
		"ssb/supplier":            "1:2264ff2325441334",
		"ssb/part":                "1:e6b56af352459d29",
		"ssb/lineorder":           "31:f4b3e6a0606ee4fb",
		"ssb-clustered/lineorder": "29:6450a63ee53f3908",
		"tpch/lineitem":           "50:5be2578566c38e06",
		"ssb-sf0.1/lineorder":     "324:cde6a73468cca7f2",
	}
	got := map[string]string{}
	digest := func(prefix string, cat *storage.Catalog, tables ...*storage.Table) {
		t.Helper()
		for _, tbl := range tables {
			h := sha256.New()
			n := tbl.File.NumPages()
			for i := 0; i < n; i++ {
				l, err := cat.Disk().ReadPage(tbl.File.ID(), i)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(l.Page)
				l.Release()
			}
			got[prefix+"/"+tbl.Name] = fmt.Sprintf("%d:%x", n, h.Sum(nil)[:8])
		}
	}
	for _, clustered := range []bool{false, true} {
		disk := storage.NewMemDisk(storage.DiskProfile{})
		cat := storage.NewCatalog(disk, 4)
		db, err := ssb.GenerateOpts(cat, 0.01, 1, ssb.GenOptions{DateClustered: clustered})
		if err != nil {
			t.Fatal(err)
		}
		if clustered {
			digest("ssb-clustered", cat, db.Lineorder)
		} else {
			digest("ssb", cat, db.Date, db.Customer, db.Supplier, db.Part, db.Lineorder)
		}
		disk.Close()
	}
	disk := storage.NewMemDisk(storage.DiskProfile{})
	cat := storage.NewCatalog(disk, 4)
	lineitem, err := tpch.Generate(cat, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	digest("tpch", cat, lineitem)
	disk.Close()
	if testing.Short() {
		delete(want, "ssb-sf0.1/lineorder")
	} else {
		disk := storage.NewMemDisk(storage.DiskProfile{})
		cat := storage.NewCatalog(disk, 4)
		db, err := ssb.Generate(cat, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		digest("ssb-sf0.1", cat, db.Lineorder)
		disk.Close()
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: pages:digest = %s, recorded %s", name, got[name], w)
		}
	}
}

// The rows a generated table decodes to must not depend on how its pages
// encode them. The digests are sha256 prefixes over every row of every
// generated table, in page order, each datum as its kind byte, int and float
// payloads (8 bytes each) and string bytes: recorded from the byte-aligned
// frame-of-reference format (6b14cdd), before pages went bit-packed, so a
// page format change that decodes any value differently fails here while
// TestGeneratedPagesMatchRecordedDigests is re-recorded. The sf 0.1 fact
// table is skipped under -short.
func TestGeneratedRowsMatchRecordedDigests(t *testing.T) {
	want := map[string]string{
		"ssb/date":                "2557:289728d3d08fd3bc",
		"ssb/customer":            "300:af93dc5c8a8c0636",
		"ssb/supplier":            "20:ee335090bf67a43f",
		"ssb/part":                "2000:8ef27d353c37c18a",
		"ssb/lineorder":           "60000:a7cdc79607525e8d",
		"ssb-clustered/lineorder": "60000:fb43c5a6ee331398",
		"tpch/lineitem":           "60000:fa70d9e8743c6473",
		"ssb-sf0.1/lineorder":     "600000:7922ee4b75bd55a7",
	}
	got := map[string]string{}
	digest := func(prefix string, tables ...*storage.Table) {
		t.Helper()
		for _, tbl := range tables {
			h := sha256.New()
			var buf []byte
			rows := 0
			for p := 0; p < tbl.File.NumPages(); p++ {
				cb, err := tbl.File.PageCols(p)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cb.Len(); i++ {
					buf = buf[:0]
					for c := 0; c < cb.NumCols(); c++ {
						d := cb.Col(c).Datum(i)
						buf = append(buf, byte(d.K))
						buf = binary.LittleEndian.AppendUint64(buf, uint64(d.I))
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.F))
						buf = binary.AppendUvarint(buf, uint64(len(d.S)))
						buf = append(buf, d.S...)
					}
					h.Write(buf)
				}
				rows += cb.Len()
				cb.Release()
			}
			got[prefix+"/"+tbl.Name] = fmt.Sprintf("%d:%x", rows, h.Sum(nil)[:8])
		}
	}
	for _, clustered := range []bool{false, true} {
		disk := storage.NewMemDisk(storage.DiskProfile{})
		cat := storage.NewCatalog(disk, 4)
		db, err := ssb.GenerateOpts(cat, 0.01, 1, ssb.GenOptions{DateClustered: clustered})
		if err != nil {
			t.Fatal(err)
		}
		if clustered {
			digest("ssb-clustered", db.Lineorder)
		} else {
			digest("ssb", db.Date, db.Customer, db.Supplier, db.Part, db.Lineorder)
		}
		cat.Pool().Close()
		disk.Close()
	}
	disk := storage.NewMemDisk(storage.DiskProfile{})
	cat := storage.NewCatalog(disk, 4)
	lineitem, err := tpch.Generate(cat, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	digest("tpch", lineitem)
	cat.Pool().Close()
	disk.Close()
	if !testing.Short() {
		disk := storage.NewMemDisk(storage.DiskProfile{})
		cat := storage.NewCatalog(disk, 4)
		db, err := ssb.Generate(cat, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		digest("ssb-sf0.1", db.Lineorder)
		cat.Pool().Close()
		disk.Close()
	}
	if testing.Short() {
		delete(want, "ssb-sf0.1/lineorder")
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: rows:digest = %s, recorded %s", name, got[name], w)
		}
	}
}

// The pool is sized before the generator runs, from estimatePages. The
// estimate must cover what the generator writes (memory-resident means
// resident) without drifting far above it (disk-resident means a quarter of
// the database, not all of it), for both schemas at both scales the scenarios
// and the benchmark use.
func TestEstimatePagesTracksGenerator(t *testing.T) {
	check := func(name string, env *Env, factRows, rowBytes int) {
		t.Helper()
		pages := 0
		for _, tbl := range env.Cat.Tables() {
			pages += env.Cat.MustTable(tbl).File.NumPages()
		}
		est := estimatePages(factRows, rowBytes)
		if est < pages || 2*est > 3*pages {
			t.Errorf("%s: estimatePages(%d, %d) = %d, generator wrote %d pages; want within [1, 1.5]x",
				name, factRows, rowBytes, est, pages)
		}
		if env.PoolPages < pages {
			t.Errorf("%s: memory-resident pool of %d frames does not cover %d pages", name, env.PoolPages, pages)
		}
	}
	for _, sf := range []float64{0.01, 0.1} {
		env, err := NewSSBEnv(sf, MemoryResident, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("ssb sf=%v", sf), env, env.SSB.Lineorder.NumRows(), ssbRowBytes)
		env.Close()
		env, err = NewTPCHEnv(sf, MemoryResident, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("tpch sf=%v", sf), env, env.Lineitem.NumRows(), tpchRowBytes)
		env.Close()
	}
}

// fullWidthChain is the query-centric expansion without column pruning:
// every join carries every column of both inputs (plan.NewHashJoin), and one
// final projection picks the star output — the twin the narrowed chain of
// StarQuery.QueryCentric is checked against.
func fullWidthChain(q *plan.StarQuery) plan.Node {
	var n plan.Node = plan.NewScan(q.Fact)
	if q.FactPred != nil {
		n = plan.NewFilter(n, q.FactPred)
	}
	pos := append([]int(nil), q.FactCols...)
	for _, d := range q.Dims {
		var dn plan.Node = plan.NewScan(d.Table)
		if d.Pred != nil {
			dn = plan.NewFilter(dn, d.Pred)
		}
		offset := n.Schema().Len()
		n = plan.NewHashJoin(n, dn, d.FactKeyCol, d.DimKeyCol)
		for _, pc := range d.PayloadCols {
			pos = append(pos, offset+pc)
		}
	}
	out := q.OutputSchema()
	cols := make([]plan.ProjCol, out.Len())
	for i, c := range out.Cols {
		cols[i] = plan.ProjCol{Name: c.Name, Kind: c.Kind, Expr: expr.C(pos[i], c.Name)}
	}
	return plan.NewProject(n, cols)
}

// Column pruning must be invisible in results: for every SSB template and
// the join-above-the-star template, the narrowed query-centric chain, its
// full-width twin and the CJOIN plan return the same rows — submitted as one
// batch, so with SP on the three share what they legitimately can (scans,
// filters) and nothing they cannot (joins of different widths) — under SP
// off, push and pull. Batch refs return to baseline.
func TestNarrowedChainMatchesFullWidthAndCJoin(t *testing.T) {
	env, err := NewSSBEnv(0.01, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	evictAll := func() {
		for _, name := range env.Cat.Tables() {
			env.Cat.Pool().EvictFile(env.Cat.MustTable(name).File.ID())
		}
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(13))
	var instances []ssb.Instance
	for _, tpl := range ssb.AllTemplates {
		instances = append(instances, ssb.Instantiate(env.SSB, tpl, r))
	}
	instances = append(instances, ssb.ParametricWindowJoin(env.SSB, 25, 10))

	evictAll()
	base := vec.LiveBatches()
	for _, cfg := range []engine.Config{
		{},
		{SP: true, Model: engine.SPPush},
		{SP: true, Model: engine.SPPull},
	} {
		e := env.Engine(cfg)
		nonEmpty := 0
		for _, in := range instances {
			res, err := e.ExecuteBatch(ctx, []plan.Node{
				in.Plan(false), in.Build(fullWidthChain(in.Star)), in.Plan(true)})
			if err != nil {
				t.Fatalf("%s (sp=%v %v): %v", in.Name, cfg.SP, cfg.Model, err)
			}
			if len(res[0].Rows) > 0 {
				nonEmpty++
			}
			mustEqualRows(t, res[0].Rows, res[1].Rows)
			mustEqualRows(t, res[0].Rows, res[2].Rows)
		}
		// The most selective templates match nothing at this scale; the
		// battery is only evidence if most of them return rows.
		if nonEmpty < 10 {
			t.Errorf("only %d of %d instances returned rows", nonEmpty, len(instances))
		}
	}
	evictAll()
	if live := vec.LiveBatches(); live != base {
		t.Errorf("LiveBatches = %d after the battery, want baseline %d", live, base)
	}
}

// Zone-map pruning must be invisible in results: the same query over the
// same (date-clustered) database returns identical rows with pruning on and
// off, for every SSB template and both execution strategies, plus the
// pruning-heavy date-window template.
func TestPruningOnOffEquivalenceAcrossTemplates(t *testing.T) {
	mk := func(noPrune bool) *Env {
		env, err := NewSSBEnvCfg(EnvConfig{SF: 0.0005, Residency: MemoryResident,
			Seed: 5, DateClustered: true, NoPrune: noPrune})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	envOn := mk(false)
	defer envOn.Close()
	envOff := mk(true)
	defer envOff.Close()
	eOn, eOff := envOn.Engine(engine.Config{}), envOff.Engine(engine.Config{})
	ctx := context.Background()

	check := func(name string, mkPlan func(env *Env) ssb.Instance) {
		t.Helper()
		for _, useGQP := range []bool{false, true} {
			on, err := eOn.Execute(ctx, mkPlan(envOn).Plan(useGQP))
			if err != nil {
				t.Fatalf("%s gqp=%v pruning on: %v", name, useGQP, err)
			}
			off, err := eOff.Execute(ctx, mkPlan(envOff).Plan(useGQP))
			if err != nil {
				t.Fatalf("%s gqp=%v pruning off: %v", name, useGQP, err)
			}
			mustEqualRows(t, on.Rows, off.Rows)
		}
	}
	// Identical seeds instantiate identical template parameters in both
	// environments.
	rOn, rOff := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13))
	for _, tpl := range ssb.AllTemplates {
		check(tpl.String(), func(env *Env) ssb.Instance {
			r := rOn
			if env == envOff {
				r = rOff
			}
			return ssb.Instantiate(env.SSB, tpl, r)
		})
	}
	for _, sel := range []int{2, 10, 50} {
		check("datewin", func(env *Env) ssb.Instance {
			return ssb.DateWindow(env.SSB, sel, 400)
		})
	}
}

// Figure 2: identical star sub-plans with SP enabled on the CJOIN stage are
// admitted once; satellites share the host's output through an SPL.
func TestIntegrationSPOnCJoinAdmitsOnce(t *testing.T) {
	env, err := NewSSBEnv(0.001, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	e := env.Engine(GQPSP.Engine)
	ctx := context.Background()

	in := ssb.Instantiate(env.SSB, ssb.Q2_1, rand.New(rand.NewSource(3)))
	before := env.CJoin.Stats()
	roots := []plan.Node{in.Plan(true), in.Plan(true), in.Plan(true)}
	results, err := e.ExecuteBatch(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		mustEqualRows(t, results[i].Rows, results[0].Rows)
	}
	after := env.CJoin.Stats()
	if got := after.Admitted - before.Admitted; got != 1 {
		t.Errorf("admissions = %d, want 1 (only the host enters the GQP)", got)
	}
	cjoinStats := e.StageStatsFor(plan.KindCJoin)
	if cjoinStats.SPAttached != 2 {
		t.Errorf("cjoin-stage satellites = %d, want 2", cjoinStats.SPAttached)
	}
}

// Without SP on the CJOIN stage, every identical query is admitted.
func TestIntegrationNoSPOnCJoinAdmitsAll(t *testing.T) {
	env, err := NewSSBEnv(0.001, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	e := env.Engine(GQP.Engine)
	ctx := context.Background()

	before := env.CJoin.Stats()
	pool := ssb.Pool(env.SSB, ssb.Q2_1, 3, 19)
	roots := []plan.Node{pool[0].Plan(true), pool[1].Plan(true), pool[2].Plan(true)}
	if _, err := e.ExecuteBatch(ctx, roots); err != nil {
		t.Fatal(err)
	}
	after := env.CJoin.Stats()
	if got := after.Admitted - before.Admitted; got != 3 {
		t.Errorf("admissions = %d, want 3", got)
	}
}

// TestCurveILinesAgreeOnQ1: the three lines of curve I return the same
// TPC-H Q1 result for a host and four satellites. Under push-SP every
// satellite aggregates rows cloned straight from the scan's column batches;
// under pull-SP all five read the same view batches.
func TestCurveILinesAgreeOnQ1(t *testing.T) {
	env, err := NewTPCHEnv(0.005, MemoryResident, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := context.Background()
	const k = 5
	var want []types.Row
	curve := CurveByName("I")
	for _, m := range curve.Lines {
		e := env.Engine(curve.engineConfig(m))
		roots := make([]plan.Node, k)
		for i := range roots {
			roots[i] = tpch.Q1Plan(env.Lineitem, 90)
		}
		results, err := e.ExecuteBatch(ctx, roots)
		if err != nil {
			t.Fatalf("%s: %v", m.Label, err)
		}
		scan := e.StageStatsFor(plan.KindScan)
		switch m.Label {
		case QueryCentric.Label:
			want = results[0].Rows
			if len(want) < 3 {
				t.Fatalf("reference Q1 has %d groups", len(want))
			}
		case PushSP.Label:
			if scan.SPAttached != k-1 || scan.Copies == 0 {
				t.Fatalf("push-SP: %d satellites, %d copies; want %d satellites fed by clones", scan.SPAttached, scan.Copies, k-1)
			}
		case PullSP.Label:
			if scan.SPAttached != k-1 || scan.Copies != 0 {
				t.Fatalf("pull-SP: %d satellites, %d copies; want %d satellites and no copies", scan.SPAttached, scan.Copies, k-1)
			}
		}
		for i, res := range results {
			if !rowsEqualUpToRounding(res.Rows, want) {
				t.Fatalf("%s query %d:\n got  %v\n want %v", m.Label, i, res.Rows, want)
			}
		}
	}
}

// rowsEqualUpToRounding compares two Q1 results, both ordered by the plan's
// Sort: circular scans start wherever the sweep is, so float sums agree only
// up to the rounding of a different addition order.
func rowsEqualUpToRounding(got, want []types.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for c, g := range got[i] {
			w := want[i][c]
			if g.K == types.KindFloat && w.K == types.KindFloat {
				if math.Abs(g.F-w.F) > 1e-9*math.Abs(w.F) {
					return false
				}
			} else if g.K != w.K || !g.Equal(w) {
				return false
			}
		}
	}
	return true
}

func TestEnvRejectsBadScaleFactor(t *testing.T) {
	if _, err := NewSSBEnv(0, MemoryResident, 0, 1); err == nil {
		t.Error("sf=0 must fail")
	}
	if _, err := NewTPCHEnv(0, MemoryResident, 0, 1); err == nil {
		t.Error("sf=0 must fail")
	}
}

// BenchmarkStarChainBytes runs the join chain of one Q2.1 instance (three
// dimension joins, the first over every fact row) as the narrowed
// query-centric chain and as its full-width twin over the sf=0.01 database.
// The perf-smoke CI job gates the B/op ratio: the narrowed chain must allocate
// at most a third of the twin's bytes, so a regression to wide gathers fails
// a PR. Output batches are pooled, so a warm pool would hide a join's width
// behind its hit rate; two collections before each run empty the pool, and
// B/op is then what one query needs in flight — the quantity a lagging SP
// consumer multiplies.
func BenchmarkStarChainBytes(b *testing.B) {
	env, err := NewSSBEnv(0.01, MemoryResident, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	in := ssb.Instantiate(env.SSB, ssb.Q2_1, rand.New(rand.NewSource(1)))
	e := env.Engine(engine.Config{})
	for _, line := range []struct {
		name string
		root plan.Node
	}{
		{"narrow", in.Star.QueryCentric()},
		{"full", fullWidthChain(in.Star)},
	} {
		b.Run("line="+line.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC() // a sync.Pool survives one collection in its victim cache
				runtime.GC()
				b.StartTimer()
				if _, err := e.Execute(context.Background(), line.root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: zone-map pruning on the date-clustered fact table. One
// 10%-selectivity date window per iteration through CJOIN, pruning on vs off,
// with 24 pool pages against a 45-page fact table: the window stays resident,
// a full sweep cannot. Curve IVp is the same contrast under concurrency.
func BenchmarkPrunedSweep(b *testing.B) {
	for _, noPrune := range []bool{false, true} {
		env, err := NewSSBEnvCfg(EnvConfig{SF: 0.01, Residency: DiskResident, PoolPages: 24, Seed: 1,
			DateClustered: true, NoPrune: noPrune})
		if err != nil {
			b.Fatal(err)
		}
		e := env.Engine(GQP.Engine)
		in := ssb.DateWindow(env.SSB, 10, 500)
		b.Run(fmt.Sprintf("noprune=%v", noPrune), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(context.Background(), in.Plan(true)); err != nil {
					b.Fatal(err)
				}
			}
		})
		env.Close()
	}
}

// TestFirstTouchDecodesWhatQueriesRead counts what a scan materialises of
// lineorder: a query-centric Q2.1 opens each lineorder page once and reads
// lo_orderdate, lo_partkey, lo_suppkey and lo_revenue, so it decodes at most
// four of its columns per page (fewer on a page the join chain empties
// early); and a date predicate that a page's zone map cannot rule out but no
// row satisfies decodes exactly the date column. Dimension pages are opened
// once per index build, not per query: CJOIN's four builds open each once,
// and the same star over an empty fact table, whose joins probe those
// indexes, opens none and builds none.
func TestFirstTouchDecodesWhatQueriesRead(t *testing.T) {
	env, err := NewSSBEnv(0.01, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := context.Background()
	pool, fact := env.Cat.Pool(), env.SSB.Lineorder
	dimPages := 0
	for _, d := range SSBChain(env.SSB) {
		dimPages += d.Table.File.NumPages()
	}
	if opened := pool.DecodeStats().Decoded; opened != int64(dimPages) || env.Cat.IndexBuilds() != 4 {
		t.Fatalf("set-up opened %d pages in %d index builds, want the dimensions' %d in 4", opened, env.Cat.IndexBuilds(), dimPages)
	}
	empty, err := env.Cat.CreateTable("lineorder_empty", fact.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.File.Seal(); err != nil {
		t.Fatal(err)
	}
	e := env.Engine(engine.Config{})
	run := func(p plan.Node) (pages, cols int64, rows int) {
		pool.EvictFile(fact.File.ID())
		before := pool.DecodeStats()
		res, err := e.Execute(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		after := pool.DecodeStats()
		return after.Decoded - before.Decoded, after.ColsDecoded - before.ColsDecoded, len(res.Rows)
	}

	q21 := ssb.Instantiate(env.SSB, ssb.Q2_1, rand.New(rand.NewSource(13)))
	dims := *q21.Star
	dims.Fact = empty
	for range 2 {
		if pages, _, _ := run(dims.QueryCentric()); pages != 0 {
			t.Fatalf("Q2.1's dimension joins opened %d pages, want 0 (CJOIN's indexes serve them)", pages)
		}
	}
	pages, cols, _ := run(q21.Plan(false))
	if np := int64(fact.File.NumPages()); pages != np {
		t.Fatalf("Q2.1 opened %d lineorder pages, the table has %d", pages, np)
	}
	if cols == 0 || cols > 4*pages {
		t.Errorf("Q2.1 decoded %d lineorder columns over %d pages, want at most 4 per page", cols, pages)
	}
	if b := env.Cat.IndexBuilds(); b != 4 {
		t.Errorf("%d index builds after three queries, want CJOIN's 4", b)
	}

	// 30 February 1995 is inside every page's date range and in no row.
	noDay := expr.NewBetween(expr.C(ssb.LOOrderDate, "lo_orderdate"), expr.Int(19950230), expr.Int(19950230))
	pages, cols, rows := run(plan.NewScanFiltered(fact, noDay))
	if rows != 0 || pages != int64(fact.File.NumPages()) {
		t.Fatalf("empty date window: %d rows from %d pages opened", rows, pages)
	}
	if cols != pages {
		t.Errorf("empty date window decoded %d columns over %d pages, want exactly 1 per page", cols, pages)
	}
}

// TestEnvCloseLeavesArenaEmpty loads SSB, runs one shared sweep and one
// query-centric plan, and closes. Between queries the device pages and the
// frames hold the fact table and no decoded page is left: decoded columns
// live while a query reads them. After Close every page the disk and the
// opened batches took, and every lease the pool took on the disk's, is back,
// none of them through a finalizer, and —
// when nothing else in the process holds pages, as in the perf-smoke step that
// runs this test alone — the arena is empty and down to one mapped chunk.
func TestEnvCloseLeavesArenaEmpty(t *testing.T) {
	arena.Settle()
	before := arena.Snapshot()
	env, err := NewSSBEnv(0.01, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := env.Engine(engine.Config{})
	in := ssb.Instantiate(env.SSB, ssb.Q3_2, rand.New(rand.NewSource(2)))
	for _, gqp := range []bool{true, false} {
		if _, err := e.Execute(context.Background(), in.Plan(gqp)); err != nil {
			t.Fatal(err)
		}
	}
	mid := arena.Snapshot()
	if np := int64(env.SSB.Lineorder.File.NumPages()); mid.PagesDevice-before.PagesDevice < np ||
		env.Cat.Pool().Stats().Frames < int(np) || mid.PagesDecoded != before.PagesDecoded {
		t.Errorf("between queries a swept database should hold device pages, and frames lent the fact table, but no decoded page: %+v, %+v, before %+v", mid, env.Cat.Pool().Stats(), before)
	}
	env.Close()
	env.Close() // idempotent
	after := arena.Snapshot()
	if after.PagesInUse != before.PagesInUse || after.Reclaimed != before.Reclaimed {
		t.Errorf("arena after Close: %+v, before the environment %+v", after, before)
	}
	if before.PagesInUse == 0 && after.MappedBytes > 2<<20 {
		t.Errorf("an empty arena keeps %d bytes mapped, want at most one 2 MiB chunk", after.MappedBytes)
	}
}

// TestDecodedPagesLiveOnlyInFlight: decoded columns are a reader's, not a
// frame's. While four concurrent queries sweep a memory-resident fact table
// through one CJOIN worker, the arena holds decoded pages only for the page
// batches in the pipeline, and when the queries are done it holds none — a
// frame that kept its page's decode would leave every page's columns behind.
func TestDecodedPagesLiveOnlyInFlight(t *testing.T) {
	env, err := NewSSBEnvCfg(EnvConfig{SF: 0.03, Residency: MemoryResident, Seed: 5, Workers: 1}) // 93 fact pages
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	fact := env.SSB.Lineorder.File
	// The decoded pages one page batch can hold: every column decoded, each
	// of 8 bytes a row, packed whole into PageSize arena pages.
	maxRows := 0
	for p := 0; p < fact.NumPages(); p++ {
		cb, err := fact.PageCols(p)
		if err != nil {
			t.Fatal(err)
		}
		maxRows = max(maxRows, cb.Len())
		cb.Release()
	}
	perPage := storage.PageSize / (8 * maxRows)
	perBatch := (fact.Schema().Len() + perPage - 1) / perPage
	// Page batches alive at once with one worker: the scanner's in hand, the
	// worker's queue, the one it probes and its output (queue plus one), and
	// the distributor's in hand, with cjoin's queueLen = 4.
	const queueLen = 4
	inFlight := 1 + queueLen + 1 + (queueLen + 1) + 1
	bound := int64(inFlight * perBatch)
	if np := int64(fact.NumPages()); bound >= np {
		t.Fatalf("bound %d does not tell in-flight pages from a decode per fact page (%d pages)", bound, np)
	}

	e := env.Engine(engine.Config{})
	r := rand.New(rand.NewSource(9))
	arena.Settle()
	base := arena.Snapshot().PagesDecoded
	var peak, samples atomic.Int64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			peak.Store(max(peak.Load(), arena.Snapshot().PagesDecoded-base))
			samples.Add(1)
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for _, tmpl := range []ssb.Template{ssb.Q1_1, ssb.Q2_1, ssb.Q3_2, ssb.Q4_1} {
			in := ssb.Instantiate(env.SSB, tmpl, r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Execute(context.Background(), in.Plan(true)); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	close(done)
	<-sampled
	if got := arena.Snapshot().PagesDecoded - base; got != 0 {
		t.Errorf("%d decoded pages left after the queries, want none", got)
	}
	// On one P the sampler rarely runs between a worker's decode and the
	// distributor's release, so a peak of 0 is allowed; a sampler that never
	// ran is not.
	if p := peak.Load(); p > bound || samples.Load() < 2 {
		t.Errorf("decoded pages peaked at %d in %d samples during the sweeps, want at most %d (%d batches in flight × %d)", p, samples.Load(), bound, inFlight, perBatch)
	}
}

// TestMemoryResidentHoldsEachPageOnce: after a full CJOIN sweep of a
// memory-resident database, whose pool has a frame for every page, the arena
// holds the disk's pages and the decoded columns and nothing else — every
// resident page is the device's, lent to its frame, not a copy of it.
func TestMemoryResidentHoldsEachPageOnce(t *testing.T) {
	arena.Settle()
	before := arena.Snapshot()
	env, err := NewSSBEnv(0.01, MemoryResident, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	e := env.Engine(engine.Config{})
	in := ssb.Instantiate(env.SSB, ssb.Q2_1, rand.New(rand.NewSource(3)))
	if _, err := e.Execute(context.Background(), in.Plan(true)); err != nil {
		t.Fatal(err)
	}
	st, ps := arena.Snapshot(), env.Cat.Pool().Stats()
	if np := env.SSB.Lineorder.File.NumPages(); ps.Misses < int64(np) || ps.Frames < np {
		t.Fatalf("the sweep did not make the fact table resident: %+v for %d pages", ps, np)
	}
	device, decoded := st.PagesDevice-before.PagesDevice, st.PagesDecoded-before.PagesDecoded
	if got := st.PagesInUse - before.PagesInUse; got != device+decoded {
		t.Errorf("%d pages in use, want the %d device and %d decoded pages", got, device, decoded)
	}
	if written := env.Disk.Stats().PageWrites; device != written {
		t.Errorf("%d device pages for the %d pages written: resident pages are not the disk's", device, written)
	}
}
