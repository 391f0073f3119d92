package storage

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// makeDiskWithPages writes n distinct pages to a fresh file.
func makeDiskWithPages(t *testing.T, d Disk, n int) FileID {
	t.Helper()
	f, err := d.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(page, uint32(i))
		if err := d.WritePage(f, i, pageOf(page)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestPoolHitMiss(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 4)
	p := NewBufferPool(d, 2)

	fr, err := p.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(fr.Data()); got != 0 {
		t.Errorf("page content = %d", got)
	}
	p.Unpin(fr)

	fr, err = p.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr)

	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit", st)
	}
}

func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 4)
	p := NewBufferPool(d, 2)

	for _, idx := range []int{0, 1, 2} { // 2 forces an eviction
		fr, err := p.Fetch(f, idx)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(fr.Data()); int(got) != idx {
			t.Errorf("page %d content = %d", idx, got)
		}
		p.Unpin(fr)
	}
	st := p.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if p.Contains(f, 2) == false {
		t.Error("most recent page must be cached")
	}
}

func TestPoolPinPreventsEviction(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 4)
	p := NewBufferPool(d, 2)

	fr0, err := p.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr1, err := p.Fetch(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pool full of pinned frames: a third fetch must fail, not evict.
	if _, err := p.Fetch(f, 2); err == nil {
		t.Fatal("fetch with all frames pinned must fail")
	}
	p.Unpin(fr1)
	fr2, err := p.Fetch(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(f, 0) {
		t.Error("pinned page 0 must not have been evicted")
	}
	if p.Contains(f, 1) {
		t.Error("unpinned page 1 must have been evicted")
	}
	p.Unpin(fr0)
	p.Unpin(fr2)
}

func TestPoolSingleFlight(t *testing.T) {
	// A slow disk with many concurrent fetches of the same page must issue
	// exactly one disk read.
	d := NewMemDisk(DiskProfile{ReadLatency: 5 * time.Millisecond})
	f := makeDiskWithPages(t, d, 1)
	baseline := d.Stats().PageReads
	p := NewBufferPool(d, 4)

	var wg sync.WaitGroup
	const goroutines = 16
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fr, err := p.Fetch(f, 0)
			if err != nil {
				errs <- err
				return
			}
			if got := binary.LittleEndian.Uint32(fr.Data()); got != 0 {
				errs <- &poolContentError{got}
			}
			p.Unpin(fr)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.Stats().PageReads - baseline; got != 1 {
		t.Errorf("disk reads = %d, want 1 (single-flight)", got)
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("pool stats = %+v", st)
	}
}

type poolContentError struct{ got uint32 }

func (e *poolContentError) Error() string { return "unexpected page content" }

func TestPoolConcurrentMixedWorkload(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 32)
	p := NewBufferPool(d, 8)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (seed*7 + i*13) % 32
				fr, err := p.Fetch(f, idx)
				if err != nil {
					errs <- err
					return
				}
				if got := binary.LittleEndian.Uint32(fr.Data()); int(got) != idx {
					errs <- &poolContentError{got}
					p.Unpin(fr)
					return
				}
				p.Unpin(fr)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolFetchErrorPropagates(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 1)
	p := NewBufferPool(d, 2)
	if _, err := p.Fetch(f, 99); err == nil {
		t.Fatal("fetch of missing page must fail")
	}
	// The failed load must not leave a poisoned frame behind.
	fr, err := p.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr)
}

func TestPoolMinimumSize(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	p := NewBufferPool(d, 0)
	if p.Size() != 1 {
		t.Errorf("Size = %d, want clamped to 1", p.Size())
	}
}
