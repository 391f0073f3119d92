package ssb

import (
	"testing"
	"time"

	"repro/internal/storage"
)

// BenchmarkGenerateSSB times the set-up every benchmark workload starts with:
// one op generates all five tables at sf 0.1 into a memory-resident catalog
// (a zero-latency MemDisk and a pool that could hold every page), in
// Generate's order: the four dimensions, then lineorder. ns/row is over the
// rows of all five tables, 96 % of them lineorder's; fact-ns/row and
// dim-ns/row split it into the fact table's rate and the dimensions'.
func BenchmarkGenerateSSB(b *testing.B) {
	const sf = 0.1
	var dimTime, factTime time.Duration
	dimRows, factRows := 0, 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disk := storage.NewMemDisk(storage.DiskProfile{})
		cat := storage.NewCatalog(disk, 1024)
		t0 := time.Now()
		db, r, err := generateDims(cat, sf, 1)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if db.Lineorder, err = generateLineorder(cat, db, int(float64(LineorderRowsPerSF)*sf), r, GenOptions{}); err != nil {
			b.Fatal(err)
		}
		dimTime, factTime = dimTime+t1.Sub(t0), factTime+time.Since(t1)
		for _, t := range []*storage.Table{db.Date, db.Customer, db.Supplier, db.Part} {
			dimRows += t.NumRows()
		}
		factRows += db.Lineorder.NumRows()
		b.StopTimer()
		disk.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dimRows+factRows), "ns/row")
	b.ReportMetric(float64(factTime.Nanoseconds())/float64(factRows), "fact-ns/row")
	b.ReportMetric(float64(dimTime.Nanoseconds())/float64(dimRows), "dim-ns/row")
}
