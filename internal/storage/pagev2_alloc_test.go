//go:build !race

package storage

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/types"
)

// Allocation-profile tests for the v2 bulk decoder. They assert on
// sync.Pool recycling, so they are skipped under the race detector (the
// pool instrumentation itself allocates).

// TestDecodePageColsV2IntsZeroAlloc locks in the numeric decode profile:
// once the batch pool is warm, decoding an int/date/float page allocates
// nothing.
func TestDecodePageColsV2IntsZeroAlloc(t *testing.T) {
	pb := newPageBuilder()
	for i := 0; ; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewDate(int64(18000 + i%365)),
			types.NewFloat(float64(i) * 0.5),
		}
		if !pb.tryAppend(r) {
			break
		}
	}
	page := pb.finish()
	decode := func() {
		cb, err := DecodePageCols(page, 3)
		if err != nil {
			t.Fatal(err)
		}
		cb.Release()
	}
	decode() // warm the pool to the page size
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("v2 int/date/float page decode allocates %v objects, want 0", allocs)
	}
}

// TestDecodePageColsV2StringsO1Alloc locks in the dictionary decode
// profile: a page's string columns cost a constant number of allocations
// (the shared region copy per dictionary column), not one per row.
func TestDecodePageColsV2StringsO1Alloc(t *testing.T) {
	pb := newPageBuilder()
	nrows := 0
	for i := 0; ; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("CITY-%02d", i%40)),
		}
		if !pb.tryAppend(r) {
			break
		}
		nrows++
	}
	page := pb.finish()
	decode := func() {
		cb, err := DecodePageCols(page, 2)
		if err != nil {
			t.Fatal(err)
		}
		cb.Release()
	}
	decode()
	allocs := testing.AllocsPerRun(100, decode)
	// One allocation for the dictionary region copy; allow one more for
	// slack. Far below one per row.
	if allocs > 2 {
		t.Errorf("v2 string page decode allocates %v objects for %d rows, want O(1) per page", allocs, nrows)
	}
}

// TestLoadAllocsPerPage bounds what flushing a page costs: the builder's
// scratch is the page the disk copies from, the disk's copy is an arena page,
// and what is left is the page's zone maps and the amortised growth of the
// file's page list — a handful of small allocations, not a 32 KiB buffer.
func TestLoadAllocsPerPage(t *testing.T) {
	disk := NewMemDisk(DiskProfile{})
	defer disk.Close()
	cat := NewCatalog(disk, 4, true)
	tbl, err := cat.CreateTable("t", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	row := types.Row{types.NewInt(0), types.NewInt(0), types.NewFloat(0.5)}
	load := func(pages int) {
		for target := tbl.File.NumPages() + pages; tbl.File.NumPages() < target; {
			row[0].I++
			row[1].I = 3 * row[0].I
			if err := tbl.File.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(4) // the builder's arrays reach their page size
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	load(100)
	runtime.ReadMemStats(&m1)
	allocs, bytes := float64(m1.Mallocs-m0.Mallocs)/100, float64(m1.TotalAlloc-m0.TotalAlloc)/100
	if allocs > 2 || bytes > 2048 {
		t.Errorf("loading a page costs %.1f allocations and %.0f bytes, want at most 2 and 2048", allocs, bytes)
	}
}
