package arena

import (
	"encoding/binary"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

func TestMain(m *testing.M) {
	SetPoison(true)
	os.Exit(m.Run())
}

// uniform reports whether every byte of b is v.
func uniform(b []byte, v byte) bool {
	for _, x := range b {
		if x != v {
			return false
		}
	}
	return true
}

// resident is the memory the arena keeps the operating system from taking
// back: pages in use plus the warm free ones.
func (a *Arena) resident() (inUse, resident int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	inUse = a.pagesInUse() * PageSize
	return inUse, inUse + int64(len(a.warm))*PageSize
}

// TestArenaTakeFreeProperty: random Take and Free from several goroutines
// never hands one page to two holders, hands out pages that are either
// untouched (zero, as after a discard or a fresh mapping) or wholly poisoned
// by their last Free — never somebody's stale bytes — and at quiescence keeps
// resident at most a chunk, or an eighth, beyond the pages in use.
func TestArenaTakeFreeProperty(t *testing.T) {
	const goroutines, steps, maxHeld = 8, 2500, 96
	var a Arena
	var wg sync.WaitGroup
	held := make([][][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			stamp := func(pg []byte, i int) uint64 { return uint64(g)<<48 | uint64(i)<<16 | uint64(len(pg)) }
			var mine [][]byte
			var ids []int
			for i := 0; i < steps; i++ {
				if len(mine) < maxHeld && (len(mine) == 0 || r.Intn(5) < 3) {
					pg := a.Take(Role(r.Intn(int(numRoles))))
					if len(pg) != PageSize || cap(pg) != PageSize {
						t.Errorf("Take: len %d cap %d", len(pg), cap(pg))
						return
					}
					if runtime.GOOS == "linux" && !uniform(pg, 0) && !uniform(pg, poisonByte) {
						t.Errorf("goroutine %d: Take returned a page that is neither untouched nor poisoned", g)
						return
					}
					binary.LittleEndian.PutUint64(pg, stamp(pg, i))
					binary.LittleEndian.PutUint64(pg[PageSize-8:], stamp(pg, i))
					mine, ids = append(mine, pg), append(ids, i)
					continue
				}
				k := r.Intn(len(mine))
				pg, id := mine[k], ids[k]
				if binary.LittleEndian.Uint64(pg) != stamp(pg, id) || binary.LittleEndian.Uint64(pg[PageSize-8:]) != stamp(pg, id) {
					t.Errorf("goroutine %d: page taken at step %d was written by another holder", g, id)
					return
				}
				a.Free(pg)
				mine[k], ids[k] = mine[len(mine)-1], ids[len(ids)-1]
				mine, ids = mine[:len(mine)-1], ids[:len(ids)-1]
			}
			held[g] = mine
		}(g)
	}
	wg.Wait()
	var n int64
	for _, mine := range held {
		n += int64(len(mine))
	}
	if st := a.Stats(); st.PagesInUse != n || st.PagesDevice+st.PagesFrames+st.PagesHeld+st.PagesDecoded != n {
		t.Fatalf("stats %+v with %d pages held", st, n)
	}
	check := func(when string) {
		inUse, res := a.resident()
		if limit := inUse + max(chunkSize, inUse/8); res > limit {
			t.Errorf("%s: %d bytes resident with %d in use, want at most %d", when, res, inUse, limit)
		}
	}
	check("with pages held")
	for g, mine := range held {
		for i, pg := range mine {
			if (g+i)%3 != 0 { // leave holes in every chunk
				a.Free(pg)
				mine[i] = nil
			}
		}
	}
	check("fragmented")
	for _, mine := range held {
		for _, pg := range mine {
			if pg != nil {
				a.Free(pg)
			}
		}
	}
	check("empty")
	if st := a.Stats(); st.PagesInUse != 0 || st.MappedBytes > chunkSize || st.Reclaimed != 0 {
		t.Errorf("after the last Free: %+v, want nothing in use and at most one chunk mapped", st)
	}
}

// TestArenaTrimsAtZero: many chunks' worth of pages, all freed, leaves one
// chunk mapped, and the arena works on from there.
func TestArenaTrimsAtZero(t *testing.T) {
	var a Arena
	for round := 0; round < 3; round++ {
		pages := make([][]byte, 5*chunkPages+3)
		for i := range pages {
			pages[i] = a.Take(Device)
			pages[i][0], pages[i][PageSize-1] = 1, 1
		}
		if st := a.Stats(); mapped && st.MappedBytes != 6*chunkSize {
			t.Fatalf("round %d: %d bytes mapped for %d pages", round, st.MappedBytes, len(pages))
		}
		for _, pg := range pages {
			a.Free(pg)
		}
		if st := a.Stats(); st.PagesInUse != 0 || st.MappedBytes > chunkSize {
			t.Fatalf("round %d: after freeing everything: %+v", round, st)
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestArenaRejectsWhatItDidNotHandOut: a second Free, a Free of foreign
// memory and a Retag of a free page are bugs in the caller and panic rather
// than hand one page to two holders later.
func TestArenaRejectsWhatItDidNotHandOut(t *testing.T) {
	var a Arena
	pg := a.Take(Frame)
	a.Retag(pg, Held)
	if st := a.Stats(); st.PagesFrames != 0 || st.PagesHeld != 1 {
		t.Fatalf("after Retag: %+v", st)
	}
	a.Free(pg[:10]) // any slice that starts the page names it
	mustPanic(t, "double Free", func() { a.Free(pg) })
	mustPanic(t, "Retag of a free page", func() { a.Retag(pg, Frame) })
	mustPanic(t, "Free of foreign memory", func() { a.Free(make([]byte, PageSize)) })
	mustPanic(t, "Free of a short slice", func() { a.Free(make([]byte, 8)) })
	if st := a.Stats(); st.PagesInUse != 0 {
		t.Fatalf("stats after rejected calls: %+v", st)
	}
}

// TestArenaPoisonsFreedPages: with poisoning on, a holder that kept its slice
// past Free reads the poison (or, once the page was discarded, zeros) — never
// the bytes it left there.
func TestArenaPoisonsFreedPages(t *testing.T) {
	var a Arena
	keep := a.Take(Decoded) // so that the arena does not trim under the test
	defer a.Free(keep)
	pg := a.Take(Decoded)
	fill(pg, 0x11)
	a.Free(pg)
	if !uniform(pg, poisonByte) {
		t.Fatalf("freed page reads %#x…, want poison", pg[:4])
	}
}

// owner leaks its page unless the collector runs its finalizer.
type owner struct {
	a    *Arena
	page []byte
}

// TestArenaReclaimAndSettle: an owner dropped without freeing gives its page
// back from its finalizer, Settle waits for that, and the page is counted.
func TestArenaReclaimAndSettle(t *testing.T) {
	var a Arena
	func() {
		o := &owner{a: &a, page: a.Take(Held)}
		runtime.SetFinalizer(o, func(o *owner) { o.a.Reclaim(o.page) })
	}()
	Settle()
	if st := a.Stats(); st.PagesInUse != 0 || st.Reclaimed != 1 {
		t.Fatalf("after Settle: %+v, want the leaked page reclaimed", st)
	}
}

// TestArenaAsViews: the typed views cover exactly the bytes given.
func TestArenaAsViews(t *testing.T) {
	var a Arena
	pg := a.Take(Decoded)
	defer a.Free(pg)
	ints := As[int64](pg[64 : 64+8*100])
	floats := As[float64](pg[1024 : 1024+8*3])
	tags := As[uint8](pg[8:13])
	if len(ints) != 100 || cap(ints) != 100 || len(floats) != 3 || len(tags) != 5 || cap(tags) != 5 {
		t.Fatalf("view lengths %d/%d %d %d/%d", len(ints), cap(ints), len(floats), len(tags), cap(tags))
	}
	ints[0], ints[99], floats[2], tags[4] = -2, 7, 1.5, 9
	if int64(binary.LittleEndian.Uint64(pg[64:])) != -2 || binary.LittleEndian.Uint64(pg[64+8*99:]) != 7 || pg[12] != 9 {
		t.Fatal("views do not alias the page bytes they were given")
	}
	if got := As[int64](nil); len(got) != 0 {
		t.Fatalf("view of nothing has %d elements", len(got))
	}
}

// BenchmarkArenaTakeFree is the perf-smoke gate: a page changes hands without
// an allocation.
func BenchmarkArenaTakeFree(b *testing.B) {
	SetPoison(false)
	defer SetPoison(true)
	var a Arena
	keep := a.Take(Frame)
	defer a.Free(keep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(a.Take(Frame))
	}
}
