package vec

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Payload arrays are recycled one by one, not as part of the batch that last
// held them: a released batch hands every array back to the park of its
// element type, filed under the size class of its capacity, and the next use
// — whatever its width or row count — takes arrays of exactly the classes it
// fills. Classes are eight to a power of two from minClassRows to
// maxClassRows, so an array overshoots the rows asked for by at most an
// eighth; a request above maxClassRows (a whole dimension gathered into one
// batch) is a plain allocation that the collector takes back.
const (
	minClassRows = 16
	maxClassRows = 1 << 20
	classSteps   = 8
	numClasses   = 1 + classSteps*(20-4) // class 0 is minClassRows, then 8 per octave up to 2^20
)

// classOf returns the size class holding n elements and the class's exact
// capacity; idx is -1 above maxClassRows.
func classOf(n int) (idx, size int) {
	if n <= minClassRows {
		return 0, minClassRows
	}
	if n > maxClassRows {
		return -1, n
	}
	k := bits.Len(uint(n - 1)) // 2^(k-1) < n <= 2^k
	base := 1 << (k - 1)
	step := base / classSteps
	sub := (n - base + step - 1) / step
	return (k-5)*classSteps + sub, base + sub*step
}

// park holds the released arrays of one element type in two generations:
// put files into cur, take looks in cur and then old, and every collection
// cycle drops what is still in old and ages cur into it — what sync.Pool does
// for whole objects, done here per size class with the bytes counted. An
// array nobody asked for across two cycles goes back to the collector, so a
// burst of one shape (a dimension load) does not stay parked under a workload
// that never asks for it again.
type park[T any] struct {
	elem int64 // bytes per element
	wipe bool  // elements hold pointers: clear on put so a parked array pins nothing

	mu       sync.Mutex
	cur, old [numClasses][][]T
}

var (
	kindPark  = park[types.Kind]{elem: 1}
	intPark   = park[int64]{elem: 8}
	floatPark = park[float64]{elem: 8}
	strPark   = park[string]{elem: 16, wipe: true}

	// bytesOut gauges the payload capacity held by the columns of checked-out
	// batches; bytesParked what the parks hold for reuse.
	bytesOut    atomic.Int64
	bytesParked atomic.Int64
)

// take returns an empty array with room for at least n elements, recycled
// when the class has one parked.
func (p *park[T]) take(n int) []T {
	idx, size := classOf(n)
	bytesOut.Add(int64(size) * p.elem)
	var s []T
	if idx >= 0 {
		p.mu.Lock()
		gen := &p.cur[idx]
		if len(*gen) == 0 {
			gen = &p.old[idx]
		}
		if last := len(*gen) - 1; last >= 0 {
			s, (*gen)[last] = (*gen)[last], nil
			*gen = (*gen)[:last]
		}
		p.mu.Unlock()
	}
	if s == nil {
		return make([]T, 0, size)
	}
	bytesParked.Add(-int64(size) * p.elem)
	return s
}

// put takes back an array a pooled column held. An array that is not cut to
// a class is none that take returned: it was never counted out, and is left to
// whoever owns it.
func (p *park[T]) put(s []T) {
	c := cap(s)
	idx, size := classOf(c)
	if size != c {
		return
	}
	bytesOut.Add(-int64(c) * p.elem)
	if idx < 0 {
		return // above the classes: the collector's
	}
	s = s[:c]
	if p.wipe {
		clear(s)
	}
	p.mu.Lock()
	p.cur[idx] = append(p.cur[idx], s[:0])
	p.mu.Unlock()
	bytesParked.Add(int64(c) * p.elem)
}

// age drops the old generation and makes the current one old.
func (p *park[T]) age() {
	var dropped int64
	p.mu.Lock()
	for i := range p.old {
		for j, s := range p.old[i] {
			dropped += int64(cap(s)) * p.elem
			p.old[i][j] = nil
		}
		p.old[i] = p.old[i][:0]
	}
	p.cur, p.old = p.old, p.cur
	p.mu.Unlock()
	bytesParked.Add(-dropped)
}

// gcTick is unreachable from the moment init returns, so every collection
// cycle queues its finalizer, which ages the parks and re-arms itself.
type gcTick struct{ _ *int }

func init() {
	var onGC func(*gcTick)
	onGC = func(t *gcTick) {
		kindPark.age()
		intPark.age()
		floatPark.age()
		strPark.age()
		runtime.SetFinalizer(t, onGC)
	}
	runtime.SetFinalizer(&gcTick{}, onGC)
}

// extend returns s at length n for a caller about to write s[from:n]; rows
// between the old length and from — the gap a mixed column leaves in a
// payload it has not used for a while — are zeroed. When s is too short, a
// pooled column swaps it for a recycled array big enough for n, for the rows
// reserved in the column's tag array, and for twice what it had (so row-at-a-
// time appends stay amortised); a free-standing column grows on the heap.
func extend[T any](p *park[T], s []T, from, n, rows int, pooled bool) []T {
	if n > cap(s) {
		if pooled {
			ns := p.take(max(n, rows, 2*cap(s)))[:len(s)]
			copy(ns, s)
			p.put(s)
			s = ns
		} else {
			s = slices.Grow(s, max(n, rows)-len(s))
		}
	}
	old := len(s)
	s = s[:n]
	if old < from {
		clear(s[old:from])
	}
	return s
}

// owned returns a copy of s in an array of the column's own.
func owned[T any](p *park[T], s []T, pooled bool) []T {
	var ns []T
	if pooled {
		ns = p.take(len(s))[:len(s)]
	} else {
		ns = make([]T, len(s))
	}
	copy(ns, s)
	return ns
}

// sized returns s at length n with unspecified contents, swapping it for a
// recycled (pooled) or fresh array when it is too short.
func sized[T any](p *park[T], s []T, n int, pooled bool) []T {
	if n > cap(s) {
		if pooled {
			p.put(s)
			s = p.take(n)
		} else {
			s = make([]T, n)
		}
	}
	return s[:n]
}

// PoolSnapshot is what the batch recycler holds at one instant.
type PoolSnapshot struct {
	BatchesOut  int64 `json:"batches_out"`  // batches checked out (LiveBatches)
	BytesOut    int64 `json:"bytes_out"`    // payload capacity held by checked-out batches' columns
	BytesParked int64 `json:"bytes_parked"` // payload capacity parked for reuse
}

// PoolStats snapshots the recycler's gauges.
func PoolStats() PoolSnapshot {
	return PoolSnapshot{
		BatchesOut:  liveBatches.Load(),
		BytesOut:    bytesOut.Load(),
		BytesParked: bytesParked.Load(),
	}
}
