package cjoin

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
)

// ssbStar generates a small SSB database and returns it with the full GQP
// dimension chain.
func ssbStar(t testing.TB, sf float64) (*ssb.DB, []DimSpec) {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 4096, true)
	db, err := ssb.Generate(cat, sf, 42)
	if err != nil {
		t.Fatal(err)
	}
	specs := []DimSpec{
		{Table: db.Date, FactKeyCol: ssb.LOOrderDate, DimKeyCol: ssb.DDateKey},
		{Table: db.Customer, FactKeyCol: ssb.LOCustKey, DimKeyCol: ssb.CCustKey},
		{Table: db.Supplier, FactKeyCol: ssb.LOSuppKey, DimKeyCol: ssb.SSuppKey},
		{Table: db.Part, FactKeyCol: ssb.LOPartKey, DimKeyCol: ssb.PPartKey},
	}
	return db, specs
}

// TestParallelMatchesSerialAllTemplates is the parallel-vs-serial
// equivalence battery: every one of the 13 SSB templates runs through a
// Workers=1 and a Workers=4 GQP over the same database, and both must
// produce the identical (sorted) joined result set.
func TestParallelMatchesSerialAllTemplates(t *testing.T) {
	db, specs := ssbStar(t, 0.002)
	op1, err := NewOperator(db.Lineorder, specs, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op1.Close)
	op4, err := NewOperator(db.Lineorder, specs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op4.Close)
	if got := op4.Config().Workers; got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}

	total := 0
	for _, tmpl := range ssb.AllTemplates {
		tmpl := tmpl
		t.Run(strings.ReplaceAll(tmpl.String(), ".", "_"), func(t *testing.T) {
			in := ssb.Instantiate(db, tmpl, rand.New(rand.NewSource(int64(tmpl)*131+7)))
			serial := canon(runStar(t, op1, in.Star))
			parallel := canon(runStar(t, op4, in.Star))
			if len(serial) != len(parallel) {
				t.Fatalf("workers=1 returned %d rows, workers=4 returned %d", len(serial), len(parallel))
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("row %d differs:\n workers=1: %s\n workers=4: %s", i, serial[i], parallel[i])
				}
			}
			total += len(serial)
		})
	}
	if total == 0 {
		t.Error("every template returned an empty result; the equivalence check is vacuous")
	}
}

// TestParallelConcurrentTemplatesMatchSerial runs several templates through
// the 4-worker GQP at the same time — exercising epoch switches while pages
// are in flight on every worker — and checks each against the serial run.
func TestParallelConcurrentTemplatesMatchSerial(t *testing.T) {
	db, specs := ssbStar(t, 0.002)
	op1, err := NewOperator(db.Lineorder, specs, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op1.Close)
	op4, err := NewOperator(db.Lineorder, specs, Config{Workers: 4, QueueLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op4.Close)

	stars := make([]*plan.StarQuery, len(ssb.AllTemplates))
	for i, tmpl := range ssb.AllTemplates {
		stars[i] = ssb.Instantiate(db, tmpl, rand.New(rand.NewSource(int64(tmpl)*977+3))).Star
	}
	results := make([][]types.Row, len(stars))
	errs := make([]error, len(stars))
	var wg sync.WaitGroup
	for i, q := range stars {
		wg.Add(1)
		go func(i int, q *plan.StarQuery) {
			defer wg.Done()
			errs[i] = op4.Run(context.Background(), q, func(b *batch.Batch) error {
				results[i] = append(results[i], b.RowsView()...)
				return nil
			})
		}(i, q)
	}
	wg.Wait()
	for i, q := range stars {
		if errs[i] != nil {
			t.Fatalf("template %d: %v", i, errs[i])
		}
		want := canon(runStar(t, op1, q))
		got := canon(results[i])
		if len(got) != len(want) {
			t.Errorf("template %d: got %d rows, want %d", i, len(got), len(want))
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("template %d row %d mismatch", i, j)
				break
			}
		}
	}
}

// TestParallelMatchesNaiveOnStarDB cross-checks the partitioned pipeline
// against the nested-loop reference on the small hand-built star schema at
// several worker counts (including more workers than pages see traffic).
func TestParallelMatchesNaiveOnStarDB(t *testing.T) {
	cat := starDB(t, 5000)
	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
				{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
				{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
			}, Config{BatchSize: 64, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer op.Close()
			q := asiaEuropeQuery(cat, 3, 20)
			mustEqualRows(t, runStar(t, op, q), evalStarNaive(t, q))
		})
	}
}

// TestParallelDeliveryIsOrdered checks per-query ordered delivery: with the
// fact table carrying a monotonically increasing id, a query selecting every
// row must receive ids in scan order even when four workers probe pages
// concurrently.
func TestParallelDeliveryIsOrdered(t *testing.T) {
	cat := starDB(t, 12000)
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
		{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
	}, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	q := &plan.StarQuery{Fact: cat.MustTable("lo"), FactCols: []int{0}}
	rows := runStar(t, op, q)
	if len(rows) != 12000 {
		t.Fatalf("got %d rows, want 12000", len(rows))
	}
	last := int64(-1)
	for i, r := range rows {
		id := r[0].I
		if id <= last {
			t.Fatalf("row %d: id %d arrived after id %d (delivery out of scan order)", i, id, last)
		}
		last = id
	}
}

// TestConfigValidation locks in the NewOperator contract: nonsensical
// configurations are rejected instead of silently defaulted.
func TestConfigValidation(t *testing.T) {
	cat := starDB(t, 100)
	specs := []DimSpec{{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0}}
	bad := []Config{
		{BatchSize: -1},
		{QueueLen: -4},
		{OutBuffer: -2},
		{Workers: -1},
		{Workers: MaxWorkers + 1},
	}
	for i, cfg := range bad {
		if _, err := NewOperator(cat.MustTable("lo"), specs, cfg); err == nil {
			t.Errorf("case %d: NewOperator accepted invalid config %+v", i, cfg)
		}
	}
	// The zero config resolves every documented default.
	cfg, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BatchSize <= 0 || cfg.QueueLen <= 0 || cfg.OutBuffer <= 0 || cfg.Workers <= 0 {
		t.Errorf("normalize left a zero field: %+v", cfg)
	}
}
