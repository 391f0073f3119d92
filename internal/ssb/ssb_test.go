package ssb

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

func genDB(t *testing.T, sf float64) (*storage.Catalog, *DB) {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 2048)
	db, err := Generate(cat, sf, 3)
	if err != nil {
		t.Fatal(err)
	}
	return cat, db
}

func TestGenerateCardinalities(t *testing.T) {
	_, db := genDB(t, 0.002)
	if got := db.Lineorder.NumRows(); got != 12000 {
		t.Errorf("lineorder rows = %d, want 12000", got)
	}
	if got := db.Date.NumRows(); got != 2557 {
		t.Errorf("date rows = %d, want 2557 (1992-1998)", got)
	}
	if db.Customer.NumRows() != db.NCust || db.Supplier.NumRows() != db.NSupp || db.Part.NumRows() != db.NPart {
		t.Errorf("dimension sizes inconsistent with DB fields")
	}
}

func TestForeignKeyIntegrity(t *testing.T) {
	_, db := genDB(t, 0.001)
	dateKeys := make(map[int64]bool, len(db.DateKeys))
	for _, k := range db.DateKeys {
		dateKeys[k] = true
	}
	rows, err := db.Lineorder.File.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if ck := r[LOCustKey].I; ck < 1 || ck > int64(db.NCust) {
			t.Fatalf("custkey %d out of range", ck)
		}
		if pk := r[LOPartKey].I; pk < 1 || pk > int64(db.NPart) {
			t.Fatalf("partkey %d out of range", pk)
		}
		if sk := r[LOSuppKey].I; sk < 1 || sk > int64(db.NSupp) {
			t.Fatalf("suppkey %d out of range", sk)
		}
		if !dateKeys[r[LOOrderDate].I] {
			t.Fatalf("orderdate %d not in date dimension", r[LOOrderDate].I)
		}
		// Revenue derives from price and discount.
		price, disc, rev := r[LOExtendedPrice].I, r[LODiscount].I, r[LORevenue].I
		if want := price * (100 - disc) / 100; rev != want {
			t.Fatalf("revenue %d != price*(100-disc)/100 = %d", rev, want)
		}
	}
}

func TestDimensionValueDomains(t *testing.T) {
	_, db := genDB(t, 0.001)
	regions := map[string]bool{}
	for _, reg := range Regions {
		regions[reg] = true
	}
	crows, _ := db.Customer.File.AllRows()
	for _, r := range crows {
		if !regions[r[CRegion].S] {
			t.Fatalf("customer region %q invalid", r[CRegion].S)
		}
		nations := NationsByRegion[r[CRegion].S]
		found := false
		for _, n := range nations {
			if n == r[CNation].S {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("nation %q not in region %q", r[CNation].S, r[CRegion].S)
		}
		if len(r[CCity].S) != 10 {
			t.Fatalf("city %q must be 10 chars", r[CCity].S)
		}
	}
	prows, _ := db.Part.File.AllRows()
	for _, r := range prows {
		m, c, b := r[PMfgr].S, r[PCategory].S, r[PBrand1].S
		if len(c) < len(m) || c[:len(m)] != m {
			t.Fatalf("category %q does not extend mfgr %q", c, m)
		}
		if len(b) < len(c) || b[:len(c)] != c {
			t.Fatalf("brand %q does not extend category %q", b, c)
		}
	}
}

func TestCityOfFormat(t *testing.T) {
	if got := CityOf("UNITED KINGDOM", 1); got != "UNITED KI1" {
		t.Errorf("CityOf = %q", got)
	}
	if got := CityOf("PERU", 3); got != "PERU     3" {
		t.Errorf("CityOf short nation = %q", got)
	}
}

// Every template must instantiate, build both plan flavors, and the
// query-centric flavor must execute.
func TestAllTemplatesBuildAndRun(t *testing.T) {
	cat, db := genDB(t, 0.0005)
	e := engine.New(cat, engine.Config{})
	r := rand.New(rand.NewSource(5))
	for _, tpl := range AllTemplates {
		in := Instantiate(db, tpl, r)
		if in.Star == nil || in.Build == nil {
			t.Fatalf("%s: incomplete instance", tpl)
		}
		if gqp := in.Plan(true); gqp == nil {
			t.Fatalf("%s: nil GQP plan", tpl)
		}
		res, err := e.Execute(context.Background(), in.Plan(false))
		if err != nil {
			t.Fatalf("%s: %v", tpl, err)
		}
		_ = res
	}
}

// The upper fragment must be oblivious to the execution strategy: both
// flavors share the star output schema.
func TestPlanFlavorsShareStarSchema(t *testing.T) {
	_, db := genDB(t, 0.0002)
	r := rand.New(rand.NewSource(9))
	for _, tpl := range AllTemplates {
		in := Instantiate(db, tpl, r)
		qc := in.Star.QueryCentric().Schema().String()
		want := in.Star.OutputSchema().String()
		if qc != want {
			t.Errorf("%s: query-centric schema %s != star schema %s", tpl, qc, want)
		}
	}
}

// starFp is the identity Pool dedupes instances by.
func starFp(in Instance) expr.Fp { return plan.Fingerprint(plan.NewCJoin(in.Star)) }

func TestInstantiateDeterministicPerSeed(t *testing.T) {
	_, db := genDB(t, 0.0002)
	for _, tpl := range AllTemplates {
		a := Instantiate(db, tpl, rand.New(rand.NewSource(33)))
		b := Instantiate(db, tpl, rand.New(rand.NewSource(33)))
		if starFp(a) != starFp(b) {
			t.Errorf("%s: same seed produced different instances", tpl)
		}
	}
}

func TestPoolProducesDistinctPlans(t *testing.T) {
	_, db := genDB(t, 0.0002)
	pool := Pool(db, Q2_1, 8, 17)
	if len(pool) != 8 {
		t.Fatalf("pool size = %d, want 8", len(pool))
	}
	fps := map[expr.Fp]bool{}
	for _, in := range pool {
		fps[starFp(in)] = true
	}
	if len(fps) != 8 {
		t.Errorf("pool has %d distinct fingerprints, want 8", len(fps))
	}
}

// starPreds renders the predicates an instance was drawn with, in plan order.
func starPreds(in Instance) string {
	var parts []string
	if in.Star.FactPred != nil {
		parts = append(parts, in.Star.FactPred.Signature())
	}
	for _, d := range in.Star.Dims {
		if d.Pred != nil {
			parts = append(parts, d.Table.Name+":"+d.Pred.Signature())
		}
	}
	return strings.Join(parts, " ")
}

// TestPoolPicksPinnedInstances pins the instances Pool draws, in order, for a
// few templates and seeds. The pins were recorded when Pool deduped by a
// star signature string, so they also check that the fingerprint groups
// instances the same way: the Q2.1 pools at seeds 4 and 7 and the Q3.2 pool
// skip duplicate draws, so the dedupe key decides what they hold. The
// benchmark's pool phase and curve IV draw their queries from Pool.
func TestPoolPicksPinnedInstances(t *testing.T) {
	_, db := genDB(t, 0.0002)
	cases := []struct {
		tpl  Template
		n    int
		seed int64
		want []string
	}{
		{Q2_1, 8, 4, []string{
			"part:eq(col(2),string:MFGR#52) supplier:eq(col(3),string:EUROPE)",
			"part:eq(col(2),string:MFGR#13) supplier:eq(col(3),string:ASIA)",
			"part:eq(col(2),string:MFGR#54) supplier:eq(col(3),string:AMERICA)",
			"part:eq(col(2),string:MFGR#23) supplier:eq(col(3),string:AMERICA)",
			"part:eq(col(2),string:MFGR#14) supplier:eq(col(3),string:AFRICA)",
			"part:eq(col(2),string:MFGR#15) supplier:eq(col(3),string:AMERICA)",
			"part:eq(col(2),string:MFGR#53) supplier:eq(col(3),string:MIDDLE EAST)",
			"part:eq(col(2),string:MFGR#23) supplier:eq(col(3),string:AFRICA)",
		}},
		{Q2_1, 8, 7, []string{
			"part:eq(col(2),string:MFGR#21) supplier:eq(col(3),string:EUROPE)",
			"part:eq(col(2),string:MFGR#43) supplier:eq(col(3),string:EUROPE)",
			"part:eq(col(2),string:MFGR#33) supplier:eq(col(3),string:ASIA)",
			"part:eq(col(2),string:MFGR#24) supplier:eq(col(3),string:AMERICA)",
			"part:eq(col(2),string:MFGR#11) supplier:eq(col(3),string:AMERICA)",
			"part:eq(col(2),string:MFGR#13) supplier:eq(col(3),string:ASIA)",
			"part:eq(col(2),string:MFGR#51) supplier:eq(col(3),string:MIDDLE EAST)",
			"part:eq(col(2),string:MFGR#12) supplier:eq(col(3),string:AMERICA)",
		}},
		{Q2_1, 4, 1, []string{
			"part:eq(col(2),string:MFGR#23) supplier:eq(col(3),string:ASIA)",
			"part:eq(col(2),string:MFGR#52) supplier:eq(col(3),string:EUROPE)",
			"part:eq(col(2),string:MFGR#11) supplier:eq(col(3),string:AMERICA)",
			"part:eq(col(2),string:MFGR#15) supplier:eq(col(3),string:AMERICA)",
		}},
		{Q1_1, 3, 5, []string{
			"and(between(col(8),int:5,int:7),lt(col(6),int:22)) date:eq(col(3),int:1994)",
			"and(between(col(8),int:4,int:6),lt(col(6),int:20)) date:eq(col(3),int:1992)",
			"and(between(col(8),int:6,int:8),lt(col(6),int:23)) date:eq(col(3),int:1997)",
		}},
		{Q3_2, 8, 2, []string{
			"customer:eq(col(2),string:INDIA) supplier:eq(col(2),string:INDIA) date:between(col(3),int:1993,int:1998)",
			"customer:eq(col(2),string:ROMANIA) supplier:eq(col(2),string:ROMANIA) date:between(col(3),int:1992,int:1997)",
			"customer:eq(col(2),string:MOZAMBIQUE) supplier:eq(col(2),string:MOZAMBIQUE) date:between(col(3),int:1996,int:2001)",
			"customer:eq(col(2),string:ARGENTINA) supplier:eq(col(2),string:ARGENTINA) date:between(col(3),int:1996,int:2001)",
			"customer:eq(col(2),string:CHINA) supplier:eq(col(2),string:CHINA) date:between(col(3),int:1996,int:2001)",
			"customer:eq(col(2),string:EGYPT) supplier:eq(col(2),string:EGYPT) date:between(col(3),int:1994,int:1999)",
			"customer:eq(col(2),string:ETHIOPIA) supplier:eq(col(2),string:ETHIOPIA) date:between(col(3),int:1994,int:1999)",
			"customer:eq(col(2),string:SAUDI ARABIA) supplier:eq(col(2),string:SAUDI ARABIA) date:between(col(3),int:1994,int:1999)",
		}},
		{Q4_2, 3, 9, []string{
			"customer:eq(col(3),string:AMERICA) supplier:eq(col(3),string:AMERICA) part:in(col(1),[string:MFGR#1;string:MFGR#3]) date:in(col(3),[int:1997;int:1998])",
			"customer:eq(col(3),string:AFRICA) supplier:eq(col(3),string:AFRICA) part:in(col(1),[string:MFGR#4;string:MFGR#2]) date:in(col(3),[int:1992;int:1993])",
			"customer:eq(col(3),string:AFRICA) supplier:eq(col(3),string:AFRICA) part:in(col(1),[string:MFGR#3;string:MFGR#3]) date:in(col(3),[int:1996;int:1997])",
		}},
	}
	for _, c := range cases {
		pool := Pool(db, c.tpl, c.n, c.seed)
		if len(pool) != len(c.want) {
			t.Errorf("Pool(%s, %d, %d) drew %d instances, want %d", c.tpl, c.n, c.seed, len(pool), len(c.want))
			continue
		}
		for i, in := range pool {
			if got := starPreds(in); got != c.want[i] {
				t.Errorf("Pool(%s, %d, %d)[%d] = %s, want %s", c.tpl, c.n, c.seed, i, got, c.want[i])
			}
		}
	}
}

func TestParametricSelectivity(t *testing.T) {
	cat, db := genDB(t, 0.002)
	e := engine.New(cat, engine.Config{})
	total := db.Lineorder.NumRows()

	selRows := func(qmax int64) int {
		in := ParametricWindow(db, qmax, 0)
		// Count star-output rows (before aggregation).
		res, err := e.Execute(context.Background(), in.Star.QueryCentric())
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	half := selRows(25)
	frac := float64(half) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("quantity<=25 selectivity = %.3f, want ~0.5", frac)
	}
	if full := selRows(50); full != total {
		t.Errorf("quantity<=50 keeps %d of %d rows", full, total)
	}
	if tiny := selRows(1); float64(tiny)/float64(total) > 0.05 {
		t.Errorf("quantity<=1 selectivity too high: %d of %d", tiny, total)
	}
}

// Q1.1-style revenue via the template must match a direct computation.
func TestQ1TemplateMatchesNaive(t *testing.T) {
	cat, db := genDB(t, 0.001)
	e := engine.New(cat, engine.Config{})
	r := rand.New(rand.NewSource(21))
	in := Instantiate(db, Q1_1, r)
	res, err := e.Execute(context.Background(), in.Plan(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("Q1.1 produced %d rows, want 1", len(res.Rows))
	}

	// Recompute naively.
	fact, _ := db.Lineorder.File.AllRows()
	dates, _ := db.Date.File.AllRows()
	dateByKey := map[int64]types.Row{}
	for _, d := range dates {
		dateByKey[d[DDateKey].I] = d
	}
	var want float64
	for _, f := range fact {
		if in.Star.FactPred != nil && !in.Star.FactPred.Eval(f).Bool() {
			continue
		}
		d := dateByKey[f[LOOrderDate].I]
		if d == nil || !in.Star.Dims[0].Pred.Eval(d).Bool() {
			continue
		}
		want += float64(f[LOExtendedPrice].I * f[LODiscount].I)
	}
	got := res.Rows[0][0]
	if got.IsNull() {
		if want != 0 {
			t.Fatalf("revenue NULL, want %v", want)
		}
		return
	}
	if got.Float() != want {
		t.Errorf("revenue = %v, want %v", got.Float(), want)
	}
}

func TestTemplateNames(t *testing.T) {
	names := make([]string, 0, len(AllTemplates))
	for _, tpl := range AllTemplates {
		names = append(names, tpl.String())
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Fatalf("duplicate template name %s", names[i])
		}
	}
	if Template(99).String() == "" {
		t.Error("unknown template must still render")
	}
}
