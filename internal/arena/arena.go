// Package arena is the process's one allocator of page-sized buffer memory:
// the bytes of the simulated device, of the buffer pool's frames and of the
// columns decoded from them. Those bytes hold no pointers and every one of
// them is freed by hand at a known point, so on Linux they come from anonymous
// mappings the collector neither traces nor sizes its heap goal by; under the
// race detector and on other systems a page is a plain make, with the
// detector's checking and the collector's safety net intact.
//
// Ownership is the whole contract: whoever Takes a page Frees it, exactly
// once, and touches it no more. A page changes hands without copying (Retag).
// An owner that the collector finds before it let go gives its pages back from
// a finalizer through Reclaim, which counts them: Stats.Reclaimed above zero
// is a leak somebody should fix, not a crash.
//
// Take and Free are one mutex and a map lookup; there are no size classes and
// nothing is coalesced. Freed pages beyond a slack of one chunk are handed
// back to the operating system at once, and when the last page in use is
// freed every chunk but one is unmapped, so resident memory follows pages in
// use and a closed database leaves nothing behind.
package arena

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// PageSize is the size of every page, the storage layer's page size.
	PageSize = 32 * 1024

	chunkSize  = 2 << 20 // pages are carved from mappings of this size
	chunkPages = chunkSize / PageSize

	// slackPages bounds the free pages whose memory stays resident, ready to
	// be taken again without a page fault.
	slackPages = chunkPages

	// poisonByte fills freed pages in tests: 0xA5A5 is not the page magic and
	// 0xA5 is no segment tag, so a page read after it was freed fails to open
	// and a decoded column read after its batch's last Release fails a digest.
	poisonByte = 0xA5
)

// Role says what a page in use is for; Stats counts pages by it.
type Role uint8

const (
	Device  Role = iota // a page stored on a MemDisk
	Frame               // the buffer of a buffer-pool frame
	Held                // a page buffer an evicted frame left to a batch that still decodes from it
	Decoded             // decoded column arrays of an opened page
	numRoles
	free = numRoles // in the page table: not in use
)

// Stats is the arena at one instant: gauges by role, and the count of pages
// that came back from finalizers rather than from their owners.
type Stats struct {
	MappedBytes  int64 `json:"mapped_bytes"` // address space held in chunks (0 where pages are plain allocations)
	PagesInUse   int64 `json:"pages_in_use"`
	PagesDevice  int64 `json:"pages_device"`
	PagesFrames  int64 `json:"pages_frames"`
	PagesHeld    int64 `json:"pages_held"`
	PagesDecoded int64 `json:"pages_decoded"`
	Reclaimed    int64 `json:"reclaimed"`
}

// Arena hands out pages. The zero value is ready to use; the process shares
// one (Take, Free, …), tests make their own.
type Arena struct {
	mu     sync.Mutex
	chunks [][]byte
	// table knows every page: the role it is in use for, or free. Where pages
	// are plain allocations it knows only those in use, so that the collector
	// can take back the rest.
	table     map[*byte]Role
	warm      [][]byte // free pages whose memory is resident
	cold      [][]byte // free pages the operating system holds nothing for
	inUse     [numRoles]int64
	reclaimed int64
}

var (
	std    Arena
	poison atomic.Bool
)

// Take returns a page of PageSize bytes, contents unspecified, owned by the
// caller until it is passed to Free.
func Take(r Role) []byte { return std.Take(r) }

// Free returns a page Take handed out. The caller must not touch it again;
// freeing a page that is not in use panics.
func Free(page []byte) { std.Free(page) }

// Retag moves a page in use to another role: it has changed hands.
func Retag(page []byte, r Role) { std.Retag(page, r) }

// Reclaim is Free for a finalizer: the page's owner was collected before it
// let go.
func Reclaim(page []byte) { std.Reclaim(page) }

// Snapshot returns the process arena's gauges.
func Snapshot() Stats { return std.Stats() }

// SetPoison makes Free overwrite pages, so that tests fail on a read after
// free instead of finding the old bytes still there.
func SetPoison(on bool) { poison.Store(on) }

// Take is the package's Take on this arena.
func (a *Arena) Take(r Role) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	var page []byte
	if last := len(a.warm) - 1; last >= 0 {
		page, a.warm = a.warm[last], a.warm[:last]
	} else {
		if len(a.cold) == 0 {
			a.grow()
		}
		last := len(a.cold) - 1
		page, a.cold = a.cold[last], a.cold[:last]
	}
	a.table[&page[0]] = r
	a.inUse[r]++
	return page
}

// grow adds free pages: a fresh chunk's worth, or one plain allocation.
func (a *Arena) grow() {
	if a.table == nil {
		a.table = make(map[*byte]Role)
	}
	if !mapped {
		a.cold = append(a.cold, make([]byte, PageSize))
		return
	}
	chunk, err := mapChunk()
	if err != nil {
		panic(fmt.Sprintf("arena: map %d bytes: %v", chunkSize, err))
	}
	a.chunks = append(a.chunks, chunk)
	a.spread(chunk)
}

// spread files every page of an untouched chunk as free and cold.
func (a *Arena) spread(chunk []byte) {
	for off := chunkSize - PageSize; off >= 0; off -= PageSize { // popped lowest first
		page := chunk[off : off+PageSize : off+PageSize]
		a.table[&page[0]] = free
		a.cold = append(a.cold, page)
	}
}

// inUseKey returns the table key of page and the role it is in use for; a
// slice that is not a page in use is a bug in the caller.
func (a *Arena) inUseKey(page []byte, op string) (*byte, Role) {
	if cap(page) < PageSize {
		panic("arena: " + op + " of a slice that is not a page")
	}
	key := &page[:PageSize][0]
	r, ok := a.table[key]
	if !ok || r == free {
		panic("arena: " + op + " of a page that is not in use")
	}
	return key, r
}

// Free is the package's Free on this arena.
func (a *Arena) Free(page []byte) { a.put(page, 0) }

// Reclaim is the package's Reclaim on this arena.
func (a *Arena) Reclaim(page []byte) { a.put(page, 1) }

func (a *Arena) put(page []byte, reclaimed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key, r := a.inUseKey(page, "Free")
	page = page[:PageSize]
	a.inUse[r]--
	a.reclaimed += reclaimed
	if mapped && len(a.warm) >= slackPages {
		a.table[key] = free
		discard(page)
		a.cold = append(a.cold, page)
	} else {
		if poison.Load() {
			fill(page, poisonByte) // a holder that kept the slice reads this, not its old bytes
		}
		if mapped {
			a.table[key] = free
			a.warm = append(a.warm, page)
		} else {
			delete(a.table, key) // the collector's, once its holder drops it
		}
	}
	if len(a.chunks) > 1 && a.pagesInUse() == 0 {
		a.trim()
	}
}

// trim unmaps every chunk but the first, whose pages start over untouched.
func (a *Arena) trim() {
	for _, chunk := range a.chunks[1:] {
		for off := 0; off < chunkSize; off += PageSize {
			delete(a.table, &chunk[off])
		}
		unmapChunk(chunk)
	}
	clear(a.chunks[1:])
	a.chunks = a.chunks[:1]
	clear(a.warm)
	clear(a.cold)
	a.warm, a.cold = a.warm[:0], a.cold[:0]
	discard(a.chunks[0])
	a.spread(a.chunks[0])
}

// Retag is the package's Retag on this arena.
func (a *Arena) Retag(page []byte, r Role) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key, old := a.inUseKey(page, "Retag")
	a.table[key] = r
	a.inUse[old]--
	a.inUse[r]++
}

func (a *Arena) pagesInUse() int64 {
	var n int64
	for _, c := range a.inUse {
		n += c
	}
	return n
}

// Stats returns the arena's gauges.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		MappedBytes:  int64(len(a.chunks)) * chunkSize,
		PagesInUse:   a.pagesInUse(),
		PagesDevice:  a.inUse[Device],
		PagesFrames:  a.inUse[Frame],
		PagesHeld:    a.inUse[Held],
		PagesDecoded: a.inUse[Decoded],
		Reclaimed:    a.reclaimed,
	}
}

func fill(b []byte, v byte) {
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// As views the bytes of b — a range of a page, starting at a multiple of 8 —
// as elements of T. The view is the caller's for as long as the page is.
func As[T ~uint8 | ~int64 | ~float64](b []byte) []T {
	var z T
	n := len(b) / int(unsafe.Sizeof(z))
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// Settle runs the collector until the finalizers of everything unreachable
// now have run, so that what earlier owners leaked is back in the arena: the
// baseline of a test that compares Stats before and after.
func Settle() {
	// Finalizers run a batch at a time, in no order within a batch: the second
	// round's marker is queued once the first's has run, so it cannot run
	// before the rest of the first round's batch has.
	for round := 0; round < 2; round++ {
		runtime.GC()
		done := make(chan struct{})
		runtime.SetFinalizer(new(settled), func(*settled) { close(done) })
		runtime.GC()
		<-done
	}
}

type settled struct{ _ *int } // pointer-bearing, so never batched into a tiny allocation
