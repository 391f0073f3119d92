package storage

import (
	"testing"
	"time"

	"repro/internal/types"
)

func TestPrefetchBringsPageIntoPool(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 8)
	p := NewBufferPool(d, 4)

	p.Prefetch(f, 3)
	deadline := time.Now().Add(2 * time.Second)
	for !p.Contains(f, 3) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !p.Contains(f, 3) {
		t.Fatal("prefetched page never arrived")
	}
	if p.Prefetched() == 0 {
		t.Error("prefetch counter not incremented")
	}
	// A demand fetch of the prefetched page is now a hit.
	before := p.Stats().Hits
	fr, err := p.Fetch(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr)
	if p.Stats().Hits != before+1 {
		t.Error("demand fetch after prefetch was not a pool hit")
	}
}

func TestPrefetchOfCachedPageIsNoop(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 4)
	p := NewBufferPool(d, 4)
	fr, err := p.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr)
	reads := d.Stats().PageReads
	p.Prefetch(f, 0)
	time.Sleep(20 * time.Millisecond)
	if d.Stats().PageReads != reads {
		t.Error("prefetch of a cached page issued a disk read")
	}
}

func TestPrefetchOfMissingPageIsSilent(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 2)
	p := NewBufferPool(d, 4)
	p.Prefetch(f, 99) // must not panic or poison the pool
	time.Sleep(20 * time.Millisecond)
	fr, err := p.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr)
}

func TestScanWithPrefetchDeliversEverything(t *testing.T) {
	disk := NewMemDisk(DiskProfile{ReadLatency: 100 * time.Microsecond})
	c := NewCatalog(disk, 16, true)
	tbl := loadNumbered(t, c, "t", 20000)
	tbl.ScanGroup().SetPrefetch(true)

	cur := tbl.Attach()
	defer cur.Close()
	seen := collectScan(t, cur)
	if len(seen) != 20000 {
		t.Fatalf("prefetching scan saw %d rows, want 20000", len(seen))
	}
}

// The device is one queue, so readahead cannot overlap one page's device
// time with another's: what it hides is the decode of the current page
// behind the read of the next. A sweep with or without it takes at least
// the device time its reads were charged, less the debt under minSleep the
// last read may leave unslept, and readahead must not make it much slower.
func TestPrefetchHidesDiskLatency(t *testing.T) {
	mk := func(prefetch bool) (el, device time.Duration) {
		disk := NewMemDisk(DiskProfile{ReadLatency: 150 * time.Microsecond})
		c := NewCatalog(disk, 16, true)
		tbl := loadNumbered(t, c, "t", 30000)
		tbl.ScanGroup().SetPrefetch(prefetch)
		base := disk.Stats().DeviceNs
		start := time.Now()
		cur := tbl.Attach()
		defer cur.Close()
		for {
			cb, _, ok, err := cur.NextCols()
			if err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
			cb.Release()
		}
		return time.Since(start), time.Duration(disk.Stats().DeviceNs - base)
	}
	without, devWithout := mk(false)
	with, devWith := mk(true)
	for _, r := range []struct {
		what       string
		el, device time.Duration
	}{{"without prefetch", without, devWithout}, {"with prefetch", with, devWith}} {
		if r.device == 0 {
			t.Fatalf("sweep %s charged no device time", r.what)
		}
		if r.el < r.device-minSleep {
			t.Errorf("sweep %s took %v, under its %v of device time", r.what, r.el, r.device)
		}
	}
	if with > without*3/2 {
		t.Errorf("prefetch made the scan much slower: with=%v without=%v", with, without)
	}
}

// End-to-end FileDisk round trip: generate onto a real-file disk, read back
// through the buffer pool and circular scans.
func TestFileDiskEndToEnd(t *testing.T) {
	disk, err := NewFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	cat := NewCatalog(disk, 8, true)
	tbl, err := cat.CreateTable("t", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString("abcdefghij")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	cur := tbl.Attach()
	defer cur.Close()
	seen := collectScan(t, cur)
	if len(seen) != n {
		t.Fatalf("file-disk scan saw %d rows, want %d", len(seen), n)
	}
}
