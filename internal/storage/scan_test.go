package storage

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// loadNumbered loads n rows keyed 0..n-1 with a padding column so that the
// table spans many pages (~300 rows per 32 KiB page). The pad is unique per
// row so the columnar page format cannot dictionary-compress it away — these
// tests are about multi-page scan mechanics, not about packing.
func loadNumbered(t testing.TB, c *Catalog, name string, n int) *Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	)
	tbl, err := c.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 100)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(pad + strconv.Itoa(i))}
	}
	if err := tbl.File.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func collectScan(t *testing.T, cur *ScanCursor) map[int64]int {
	t.Helper()
	seen := map[int64]int{}
	for {
		cb, _, ok, err := cur.NextCols()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for _, k := range cb.Col(0).I[:cb.Len()] {
			seen[k]++
		}
		cb.Release()
	}
	return seen
}

func TestScanDeliversEveryRowOnce(t *testing.T) {
	c := newTestCatalog(t, 64)
	tbl := loadNumbered(t, c, "t", 20000)
	cur := tbl.Attach()
	defer cur.Close()
	seen := collectScan(t, cur)
	if len(seen) != 20000 {
		t.Fatalf("saw %d distinct rows, want 20000", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("row %d delivered %d times", k, n)
		}
	}
}

func TestScanAttachMidSweepStillSeesEverything(t *testing.T) {
	c := newTestCatalog(t, 64)
	tbl := loadNumbered(t, c, "t", 20000)

	first := tbl.Attach()
	defer first.Close()
	// Advance the first cursor halfway.
	half := first.NumPages() / 2
	for i := 0; i < half; i++ {
		if _, ok := first.Next(); !ok {
			t.Fatal("first cursor exhausted early")
		}
	}
	// The second cursor attaches mid-sweep and must still see all rows.
	second := tbl.Attach()
	defer second.Close()
	seen := collectScan(t, second)
	if len(seen) != 20000 {
		t.Fatalf("late-attached cursor saw %d rows, want 20000", len(seen))
	}
	st := tbl.ScanGroup().Stats()
	if st.Attaches != 2 || st.AttachedShared != 1 {
		t.Errorf("stats = %+v, want 2 attaches / 1 shared", st)
	}
}

func TestScanSharedAttachStartsAtLeader(t *testing.T) {
	c := newTestCatalog(t, 64)
	tbl := loadNumbered(t, c, "t", 20000)

	lead := tbl.Attach()
	defer lead.Close()
	for i := 0; i < 3; i++ {
		lead.Next()
	}
	follower := tbl.Attach()
	defer follower.Close()
	idx, ok := follower.Next()
	if !ok || idx != 3 {
		t.Errorf("follower first page = %d, want 3 (leader position)", idx)
	}
}

func TestScanUnsharedStartsAtZero(t *testing.T) {
	disk := NewMemDisk(DiskProfile{})
	c := NewCatalog(disk, 64, false) // shared scans disabled
	tbl := loadNumbered(t, c, "t", 20000)

	lead := tbl.Attach()
	defer lead.Close()
	lead.Next()
	lead.Next()
	follower := tbl.Attach()
	defer follower.Close()
	idx, ok := follower.Next()
	if !ok || idx != 0 {
		t.Errorf("unshared follower first page = %d, want 0", idx)
	}
	st := tbl.ScanGroup().Stats()
	if st.AttachedShared != 0 {
		t.Errorf("unshared group recorded shared attaches: %+v", st)
	}
}

func TestScanDetachedCursorNotALeader(t *testing.T) {
	c := newTestCatalog(t, 64)
	tbl := loadNumbered(t, c, "t", 20000)

	lead := tbl.Attach()
	lead.Next()
	lead.Next()
	lead.Close()
	follower := tbl.Attach()
	defer follower.Close()
	idx, _ := follower.Next()
	if idx != 0 {
		t.Errorf("after leader detach, new cursor starts at %d, want 0", idx)
	}
}

func TestScanExhaustedCursorNotALeader(t *testing.T) {
	c := newTestCatalog(t, 64)
	tbl := loadNumbered(t, c, "t", 5000)
	lead := tbl.Attach()
	defer lead.Close()
	for {
		if _, ok := lead.Next(); !ok {
			break
		}
	}
	follower := tbl.Attach()
	defer follower.Close()
	seen := collectScan(t, follower)
	if len(seen) != 5000 {
		t.Fatalf("follower after exhausted leader saw %d rows", len(seen))
	}
}

// Clustered concurrent shared scans must cost roughly one disk sweep, not k.
// The savings are a disk-resident phenomenon: scanners cluster because the
// leader is I/O bound while trailers catch up from the buffer pool, so the
// test models a disk with latency.
func TestSharedScansSaveDiskReads(t *testing.T) {
	disk := NewMemDisk(DiskProfile{ReadLatency: 200 * time.Microsecond, MaxConcurrent: 2})
	c := NewCatalog(disk, 8, true) // pool much smaller than table
	tbl := loadNumbered(t, c, "t", 50000)
	npages := tbl.File.NumPages()
	if npages <= 16 {
		t.Fatalf("table too small (%d pages) for this test", npages)
	}

	base := disk.Stats().PageReads
	const k = 4
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := tbl.Attach()
			defer cur.Close()
			for {
				cb, _, ok, err := cur.NextCols()
				if err != nil || !ok {
					return
				}
				cb.Release()
			}
		}()
	}
	wg.Wait()
	reads := disk.Stats().PageReads - base
	// Perfectly clustered would be npages; fully independent would be
	// k*npages. Require meaningful sharing: < half of independent cost.
	if reads >= int64(k*npages/2) {
		t.Errorf("shared scans issued %d reads for %d pages x %d scanners (no sharing evident)", reads, npages, k)
	}
}

// drain sweeps the cursor to the end, releasing every page.
func drain(cur *ScanCursor) error {
	defer cur.Close()
	for {
		cb, _, ok, err := cur.NextCols()
		if err != nil || !ok {
			return err
		}
		cb.Release()
	}
}

// Ablation: scan readahead — prefetching the next page while the current one
// decodes hides disk latency on a sequential sweep.
func BenchmarkScanPrefetch(b *testing.B) {
	for _, prefetch := range []bool{false, true} {
		disk := NewMemDisk(DiskProfile{ReadLatency: 100 * time.Microsecond, MaxConcurrent: 4})
		tbl := loadNumbered(b, NewCatalog(disk, 16, true), "t", 10000)
		tbl.ScanGroup().SetPrefetch(prefetch)
		b.Run(fmt.Sprintf("prefetch=%v", prefetch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := drain(tbl.Attach()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
