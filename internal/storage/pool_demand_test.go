package storage

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// fetchAll fetches and unpins pages [lo, hi) of f, checking their content.
func fetchAll(t *testing.T, p *BufferPool, f FileID, lo, hi int) {
	t.Helper()
	for idx := lo; idx < hi; idx++ {
		fr, err := p.Fetch(f, idx)
		if err != nil {
			t.Fatalf("fetch page %d: %v", idx, err)
		}
		if got := binary.LittleEndian.Uint32(fr.Data()); int(got) != idx {
			t.Fatalf("page %d content = %d", idx, got)
		}
		p.Unpin(fr)
	}
}

// A pool's capacity is a cap: k distinct fetches materialise exactly k
// frames, hits materialise none, and constructing the pool costs far less
// than one pointer per frame of capacity — never capacity x PageSize.
func TestPoolMaterialisesFramesOnDemand(t *testing.T) {
	const capacity, k = 1 << 16, 37
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, k)

	var p *BufferPool
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p = NewBufferPool(d, capacity)
		}
	})
	if got := res.AllocedBytesPerOp(); got > capacity*8 {
		t.Errorf("NewBufferPool(%d) allocates %d B, want at most a pointer per frame (%d B)",
			capacity, got, capacity*8)
	}
	if p.Size() != capacity {
		t.Errorf("Size = %d, want the capacity %d", p.Size(), capacity)
	}
	if got := p.Stats().Frames; got != 0 {
		t.Errorf("a new pool holds %d frames, want 0", got)
	}
	fetchAll(t, p, f, 0, k)
	fetchAll(t, p, f, 0, k) // hits
	st := p.Stats()
	if st.Frames != k || st.Misses != k || st.Hits != k || st.Evictions != 0 {
		t.Errorf("after %d distinct fetches twice: %+v, want %d frames, misses and hits, no eviction", k, st, k)
	}
}

// At capacity the pool stops growing and evicts.
func TestPoolStopsGrowingAtCapacity(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 12)
	p := NewBufferPool(d, 4)
	fetchAll(t, p, f, 0, 12)
	if st := p.Stats(); st.Frames != 4 || st.Evictions != 8 {
		t.Errorf("stats = %+v, want 4 frames and 8 evictions", st)
	}
}

// Frames invalidated by EvictFile, by ClearQuarantine and by a failed load
// are reused before the pool materialises another.
func TestPoolReusesInvalidatedFramesBeforeGrowing(t *testing.T) {
	t.Run("EvictFile", func(t *testing.T) {
		d := NewMemDisk(DiskProfile{})
		f := makeDiskWithPages(t, d, 16)
		p := NewBufferPool(d, 64)
		fetchAll(t, p, f, 0, 8)
		p.EvictFile(f)
		fetchAll(t, p, f, 8, 16)
		if st := p.Stats(); st.Frames != 8 || st.Evictions != 0 {
			t.Errorf("stats = %+v, want the 8 evicted frames reused and nothing evicted by the clock", st)
		}
		fetchAll(t, p, f, 0, 8) // the free list is empty again: now it grows
		if got := p.Stats().Frames; got != 16 {
			t.Errorf("frames = %d, want 16", got)
		}
	})
	t.Run("failed load", func(t *testing.T) {
		fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
		f := makeDiskWithPages(t, fd, 8)
		p := NewBufferPool(fd, 64)
		p.SetRetryPolicy(0, time.Microsecond)
		fetchAll(t, p, f, 0, 2)
		fd.PoisonPage(f, 5)
		var pe *PageError
		if _, err := p.Fetch(f, 5); !errors.As(err, &pe) {
			t.Fatalf("fetch of a poisoned page: err = %v, want *PageError", err)
		}
		if got := p.Stats().Frames; got != 3 {
			t.Fatalf("frames = %d after two loads and a failed one, want 3", got)
		}
		fetchAll(t, p, f, 2, 3)
		if got := p.Stats().Frames; got != 3 {
			t.Errorf("frames = %d, want the failed load's frame reused (3)", got)
		}
	})
	t.Run("failed load with waiters", func(t *testing.T) {
		// The waiters of a failed single-flight load still hold their pins
		// when the frame is invalidated; it is reused once they let go.
		fd := NewFaultDisk(NewMemDisk(DiskProfile{ReadLatency: 5 * time.Millisecond}))
		f := makeDiskWithPages(t, fd, 8)
		p := NewBufferPool(fd, 64)
		p.SetRetryPolicy(0, time.Microsecond)
		fd.PoisonPage(f, 5)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Fetch(f, 5); err == nil {
					t.Error("fetch of a poisoned page succeeded")
				}
			}()
		}
		wg.Wait()
		fetchAll(t, p, f, 0, 1)
		if got := p.Stats().Frames; got != 1 {
			t.Errorf("frames = %d, want the failed load's frame reused (1)", got)
		}
	})
	t.Run("ClearQuarantine", func(t *testing.T) {
		c, fd, tbl := faultCatalog(t, 64, 3000)
		p, f := c.Pool(), tbl.File.ID()
		fd.CorruptReadsAfter(0)
		if _, err := tbl.File.PageCols(0); err == nil {
			t.Fatal("decoding a corrupted page must fail")
		}
		fd.Heal()
		if !p.Contains(f, 0) || p.Stats().Frames != 1 {
			t.Fatalf("the corrupt page should sit in the pool's one frame: %+v", p.Stats())
		}
		p.ClearQuarantine()
		if p.Contains(f, 0) {
			t.Fatal("ClearQuarantine must invalidate the quarantined page's frame")
		}
		cb, err := tbl.File.PageCols(1)
		if err != nil {
			t.Fatal(err)
		}
		cb.Release()
		if got := p.Stats().Frames; got != 1 {
			t.Errorf("frames = %d, want the invalidated frame reused (1)", got)
		}
	})
}

// Concurrent fetches of distinct pages while the pool is growing: every
// goroutine sees its own page's bytes, the pool ends with one frame per
// distinct page, and a later round at capacity still serves every page.
// Run under -race.
func TestPoolConcurrentFetchWhileGrowing(t *testing.T) {
	const goroutines, perG = 8, 24
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, goroutines*perG)
	for _, capacity := range []int{1 << 12, goroutines * perG / 2} {
		p := NewBufferPool(d, capacity)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 2; round++ {
					for i := 0; i < perG; i++ {
						// Own pages interleaved with a neighbour's, so
						// growth, hits and single-flight waits all occur.
						idx := ((g+i%2)%goroutines)*perG + i
						fr, err := p.Fetch(f, idx)
						if err != nil {
							errs <- err
							return
						}
						got := binary.LittleEndian.Uint32(fr.Data())
						p.Unpin(fr)
						if int(got) != idx {
							errs <- &poolContentError{got}
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if got, want := p.Stats().Frames, min(capacity, goroutines*perG); got != want {
			t.Errorf("capacity %d: %d frames materialised, want %d", capacity, got, want)
		}
	}
}

// BenchmarkNewBufferPool is the footprint gate of the perf-smoke CI job: a
// 4096-frame pool must cost at most 64 KiB to construct (it used to cost
// 128 MiB).
func BenchmarkNewBufferPool(b *testing.B) {
	d := NewMemDisk(DiskProfile{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := NewBufferPool(d, 4096); p.Size() != 4096 {
			b.Fatal("capacity lost")
		}
	}
}
