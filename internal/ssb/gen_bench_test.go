package ssb

import (
	"testing"

	"repro/internal/storage"
)

// BenchmarkGenerateSSB times the set-up every benchmark workload starts with:
// one op generates all five tables at sf 0.1 into a memory-resident catalog
// (a zero-latency MemDisk and a pool that could hold every page). ns/row is
// over the rows of all five tables, 96 % of them lineorder's.
func BenchmarkGenerateSSB(b *testing.B) {
	const sf = 0.1
	rows := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disk := storage.NewMemDisk(storage.DiskProfile{})
		db, err := Generate(storage.NewCatalog(disk, 1024), sf, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range []*storage.Table{db.Date, db.Customer, db.Supplier, db.Part, db.Lineorder} {
			rows += t.NumRows()
		}
		b.StopTimer()
		disk.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}
