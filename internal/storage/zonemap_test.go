package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/types"
)

// zoneFixture appends monotonically increasing ints with unique string
// padding (defeating dictionary compression) until the table spans at least
// minPages pages, so consecutive pages carry disjoint int zone ranges.
func zoneFixture(t *testing.T, c *Catalog, minPages int) *Table {
	t.Helper()
	tbl, err := c.CreateTable("z", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; tbl.File.NumPages() < minPages; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("%0220d", i)),
		}
		if err := tbl.File.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestZoneMapsPersistedOnFlush checks that the normal Append/Seal path
// publishes exact zone bounds readable without decoding the page.
func TestZoneMapsPersistedOnFlush(t *testing.T) {
	c := newTestCatalog(t, 8)
	tbl, err := c.CreateTable("f", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row := types.Row{types.NewInt(int64(10 + i)), types.NewString(fmt.Sprintf("v%02d", i%37))}
		if err := tbl.File.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	zones := tbl.File.PageZones(0)
	if zones == nil {
		t.Fatal("no zone maps after flush")
	}
	if z := zones[0]; z.Flags&ZoneInt == 0 || z.MinI != 10 || z.MaxI != 109 {
		t.Fatalf("int zone = %+v, want [10,109]", z)
	}
	if z := zones[1]; z.Flags&ZoneStr == 0 || z.MinS != "v00" || z.MaxS != "v36" {
		t.Fatalf("string zone = %+v, want [v00,v36]", z)
	}

	// The on-disk header must agree with the flush-time cache.
	page := make([]byte, PageSize)
	if err := readInto(c.Disk(), tbl.File.ID(), 0, page); err != nil {
		t.Fatal(err)
	}
	disk := ReadPageZones(page)
	if disk == nil || disk[0] != zones[0] || disk[1] != zones[1] {
		t.Fatalf("on-disk zones %+v disagree with cached %+v", disk, zones)
	}
}

// TestNextColsPrunedExactlyOnce checks that a pruning sweep delivers exactly
// the non-pruned pages, each once, and counts the pruned ones.
func TestNextColsPrunedExactlyOnce(t *testing.T) {
	c := newTestCatalog(t, 4)
	tbl := zoneFixture(t, c, 7)
	nPages := tbl.File.NumPages()
	// Keep only pages whose int zone starts above the first page's range:
	// prunes page 0, keeps the rest (pages carry disjoint ascending ranges).
	cut := tbl.File.PageZones(0)[0].MaxI
	check := func(z []ZoneMap) bool {
		if z[0].Flags&ZoneInt == 0 {
			return true
		}
		return z[0].MinI > cut
	}
	cur := tbl.Attach()
	defer cur.Close()
	seen := map[int]int{}
	for {
		cb, idx, ok, err := cur.NextColsPruned(check)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[idx]++
		cb.Release()
	}
	for p := 0; p < nPages; p++ {
		want := 1
		if p == 0 {
			want = 0
		}
		if seen[p] != want {
			t.Fatalf("page %d delivered %d times, want %d (seen %v)", p, seen[p], want, seen)
		}
	}
	if got := c.Pool().DecodeStats().Pruned; got != 1 {
		t.Fatalf("DecodeStats.Pruned = %d, want 1", got)
	}
}

// TestNextColsPrunedDemandFirst checks demand-first ordering: resident
// relevant pages are delivered before cold ones, and the sweep still covers
// every page exactly once.
func TestNextColsPrunedDemandFirst(t *testing.T) {
	c := newTestCatalog(t, 3)
	tbl := zoneFixture(t, c, 6)
	nPages := tbl.File.NumPages()
	// Prime pages 3 and 4 into the pool.
	for _, p := range []int{3, 4} {
		cb, err := tbl.File.PageCols(p)
		if err != nil {
			t.Fatal(err)
		}
		cb.Release()
	}
	cur := tbl.Attach()
	defer cur.Close()
	var order []int
	for {
		cb, idx, ok, err := cur.NextColsPruned(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		order = append(order, idx)
		cb.Release()
	}
	if len(order) != nPages {
		t.Fatalf("delivered %d pages, want %d (%v)", len(order), nPages, order)
	}
	seen := map[int]bool{}
	for _, p := range order {
		if seen[p] {
			t.Fatalf("page %d delivered twice: %v", p, order)
		}
		seen[p] = true
	}
	// The two resident pages must come first (cold pages were deferred).
	if !(order[0] == 3 && order[1] == 4) {
		t.Fatalf("resident pages not served first: %v", order)
	}
}

// TestPageZonesWhileLoading reads zone maps while a load flushes pages past
// the first growth of the heap file's zone array: a reader sees every flushed
// page's zones and nothing for a page not flushed yet, and afterwards every
// page's zones are the ones on its disk page. Run it with -race.
func TestPageZonesWhileLoading(t *testing.T) {
	c := newTestCatalog(t, 4)
	tbl, err := c.CreateTable("z", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	const pages = 100 // more than the zone array's first size
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := tbl.File.NumPages()
				for idx := 0; idx < n; idx++ {
					if z := tbl.File.PageZones(idx); len(z) != 2 || z[0].Flags&ZoneInt == 0 || z[0].MinI > z[0].MaxI {
						t.Errorf("flushed page %d of %d: zones %+v", idx, n, z)
						return
					}
				}
				// PageZones answers only for a page NumPages already counts.
				if z := tbl.File.PageZones(n + 1); z != nil && tbl.File.NumPages() <= n+1 {
					t.Errorf("page %d has zones before it was flushed", n+1)
					return
				}
			}
		}()
	}
	for i := 0; tbl.File.NumPages() < pages; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("%0220d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	page := make([]byte, PageSize)
	for idx := 0; idx < tbl.File.NumPages(); idx++ {
		if err := readInto(c.Disk(), tbl.File.ID(), idx, page); err != nil {
			t.Fatal(err)
		}
		if got, want := tbl.File.PageZones(idx), ReadPageZones(page); !slices.Equal(got, want) {
			t.Fatalf("page %d: kept zones %+v, on disk %+v", idx, got, want)
		}
	}
}
