package tpch

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

func genLineitem(t *testing.T, sf float64) (*storage.Catalog, *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 1024)
	tbl, err := Generate(cat, sf, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

func TestGenerateCardinality(t *testing.T) {
	_, tbl := genLineitem(t, 0.001)
	if got := tbl.File.NumRows(); got != 6000 {
		t.Errorf("NumRows = %d, want 6000 at sf 0.001", got)
	}
}

func TestGenerateRejectsTinyScaleFactor(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64)
	if _, err := Generate(cat, 0, 1); err == nil {
		t.Error("sf=0 must fail")
	}
}

func TestGeneratedDistributions(t *testing.T) {
	_, tbl := genLineitem(t, 0.002)
	rows, err := tbl.File.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	cutoff := types.DateFromYMD(1995, 6, 17).I
	lo := types.DateFromYMD(1992, 1, 2).I
	hi := types.DateFromYMD(1998, 12, 1).I
	flags := map[string]int{}
	for _, r := range rows {
		if q := r[ColQuantity].I; q < 1 || q > 50 {
			t.Fatalf("quantity %d out of range", q)
		}
		if d := r[ColDiscount].F; d < 0 || d > 0.10 {
			t.Fatalf("discount %f out of range", d)
		}
		if x := r[ColTax].F; x < 0 || x > 0.08 {
			t.Fatalf("tax %f out of range", x)
		}
		ship := r[ColShipDate].I
		if ship < lo || ship > hi {
			t.Fatalf("shipdate out of range")
		}
		ls := r[ColLineStatus].S
		if ship > cutoff && ls != "O" {
			t.Fatalf("shipdate after cutoff must be O, got %s", ls)
		}
		if ship <= cutoff && ls != "F" {
			t.Fatalf("shipdate before cutoff must be F, got %s", ls)
		}
		flags[r[ColReturnFlag].S]++
	}
	for _, f := range []string{"A", "N", "R"} {
		if flags[f] == 0 {
			t.Errorf("return flag %s never generated", f)
		}
	}
}

func TestQ1PlanAgainstNaive(t *testing.T) {
	cat, tbl := genLineitem(t, 0.001)
	e := engine.New(cat, engine.Config{})
	res, err := e.Execute(context.Background(), Q1Plan(tbl, 90))
	if err != nil {
		t.Fatal(err)
	}
	// Q1 groups on (returnflag, linestatus): flags A/N/R and statuses F/O
	// co-occur as AF, NF, NO, RF -> 4 groups.
	if len(res.Rows) != 4 {
		t.Fatalf("Q1 produced %d groups, want 4", len(res.Rows))
	}

	// Naive reference for one group (A, F).
	rows, err := tbl.File.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	cutoff := types.DateFromYMD(1998, 12, 1).I - 90
	var sumQty, count float64
	var sumCharge float64
	for _, r := range rows {
		if r[ColShipDate].I > cutoff || r[ColReturnFlag].S != "A" || r[ColLineStatus].S != "F" {
			continue
		}
		sumQty += float64(r[ColQuantity].I)
		count++
		sumCharge += r[ColExtendedPrice].F * (1 - r[ColDiscount].F) * (1 + r[ColTax].F)
	}
	var af types.Row
	for _, r := range res.Rows {
		if r[0].S == "A" && r[1].S == "F" {
			af = r
			break
		}
	}
	if af == nil {
		t.Fatal("group (A,F) missing")
	}
	if got := af[res.Schema.MustColIndex("sum_qty")].Float(); got != sumQty {
		t.Errorf("sum_qty = %v, want %v", got, sumQty)
	}
	if got := af[res.Schema.MustColIndex("count_order")].I; got != int64(count) {
		t.Errorf("count_order = %d, want %d", got, int64(count))
	}
	charge := af[res.Schema.MustColIndex("sum_charge")].F
	if diff := charge - sumCharge; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum_charge = %v, want %v", charge, sumCharge)
	}
	// Output must be ordered by (returnflag, linestatus).
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[0].S > b[0].S || (a[0].S == b[0].S && a[1].S > b[1].S) {
			t.Errorf("rows out of order: %v before %v", a, b)
		}
	}
}

func TestQ1SignatureStableForSameDelta(t *testing.T) {
	_, tbl := genLineitem(t, 0.0005)
	a := plan.Fingerprint(Q1Plan(tbl, 90))
	b := plan.Fingerprint(Q1Plan(tbl, 90))
	c := plan.Fingerprint(Q1Plan(tbl, 60))
	if a != b {
		t.Error("identical Q1 instances must share a fingerprint (SP prerequisite)")
	}
	if a == c {
		t.Error("different deltas must not share a fingerprint")
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	cat1 := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 256)
	cat2 := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 256)
	t1, err := Generate(cat1, 0.0005, 7)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Generate(cat2, 0.0005, 7)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := t1.File.AllRows()
	r2, _ := t2.File.AllRows()
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if !r1[i].Equal(r2[i]) {
			t.Fatalf("row %d differs across same-seed generations", i)
		}
	}
}
