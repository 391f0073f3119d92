package cjoin

import (
	"fmt"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// BenchmarkDistributorRoute measures the distributor's per-tuple output
// assembly — the route loop that copies two fact columns and two dimension
// payload columns for every surviving tuple of a page (line=typed):
// AppendFrom against the page batch at the survivor's row (item.rowIdx) and
// the dimension table's entry-aligned ColBatch at the entry the worker
// resolved for the survivor (item.ent, by survivor), typed end to end. The
// final numbers of the retired boxed-Datum baseline are in CHANGES.md.
//
// Output batches recycle through the vec pool, so steady-state cost is the
// copy loop itself.
func BenchmarkDistributorRoute(b *testing.B) {
	const nrows = 1024
	const dimEntries = 512
	const ndims = 1

	// Fact page: two int columns (the columns a subscription projects).
	page := vec.Get(2)
	for i := 0; i < nrows; i++ {
		page.Col(0).AppendDatum(types.NewInt(int64(i)))
		page.Col(1).AppendDatum(types.NewInt(int64(i * 7)))
	}
	page.Seal(nrows)
	defer page.Release()

	// Dimension table as entry-aligned columns. Payloads: dict string + int.
	dimCB := vec.Get(2)
	dict := dimCB.Col(0).BulkDict(25)
	for d := range dict {
		dict[d] = fmt.Sprintf("nation-%02d", d)
	}
	dimCB.Col(0).SetRows(types.KindString, dimEntries)
	codes := dimCB.Col(0).BulkI(dimEntries)
	for e := 0; e < dimEntries; e++ {
		codes[e] = int64(e % 25)
		dimCB.Col(1).AppendDatum(types.NewInt(int64(e)))
	}
	dimCB.Seal(dimEntries)
	defer dimCB.Release()

	// Every other row survives, and each survivor's joined entry is
	// resolved by survivor, as the worker leaves them.
	const survivors = nrows / 2
	rowIdx := make([]int32, survivors)
	ent := make([]int32, survivors*ndims)
	for i := range rowIdx {
		rowIdx[i] = int32(2 * i)
		ent[i*ndims] = int32(2 * i % dimEntries)
	}

	route := []routeCol{{dim: -1, col: 0}, {dim: -1, col: 1}, {dim: 0, col: 0}, {dim: 0, col: 1}}

	b.Run("line=typed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := vec.Get(len(route))
			for ti, r := range rowIdx {
				base := ti * ndims
				for ci, rc := range route {
					if rc.dim < 0 {
						out.Col(ci).AppendFrom(page.Col(rc.col), int(r))
					} else {
						out.Col(ci).AppendFrom(dimCB.Col(rc.col), int(ent[base+rc.dim]))
					}
				}
			}
			out.Seal(survivors)
			out.Release()
		}
		b.ReportMetric(float64(survivors), "tuples/op")
	})
}
