package vec

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// randDatum mixes every kind, NULL included.
func randDatum(r *rand.Rand) types.Datum {
	switch r.Intn(7) {
	case 0:
		return types.NewInt(r.Int63n(100) - 50)
	case 1:
		return types.NewFloat(r.Float64()*100 - 50)
	case 2:
		return types.NewString(string(rune('a' + r.Intn(26))))
	case 3:
		return types.NewDate(r.Int63n(20000))
	case 4:
		return types.NewBool(r.Intn(2) == 0)
	case 5:
		return types.Null
	default:
		return types.NewFloat(float64(r.Int63n(50))) // integral float
	}
}

// TestAppendDatumRoundTrip checks Vec's single storage contract: Datum(i)
// returns exactly what AppendDatum stored, for homogeneous and mixed
// columns alike.
func TestAppendDatumRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var v Vec // the zero value is a valid empty column
		n := 1 + r.Intn(200)
		in := make([]types.Datum, n)
		for i := range in {
			in[i] = randDatum(r)
			v.AppendDatum(in[i])
		}
		for i, want := range in {
			if got := v.Datum(i); !got.Equal(want) || got.K != want.K {
				t.Fatalf("trial %d: Datum(%d) = %v (%v), want %v (%v)", trial, i, got, got.K, want, want.K)
			}
		}
		allInt, allFloat, allStr := true, true, true
		for _, d := range in {
			if d.K != types.KindInt && d.K != types.KindDate && d.K != types.KindBool {
				allInt = false
			}
			if d.K != types.KindFloat {
				allFloat = false
			}
			if d.K != types.KindString {
				allStr = false
			}
		}
		if v.AllInt() != allInt || v.AllFloat() != allFloat || v.AllStr() != allStr {
			t.Fatalf("trial %d: flags (%v,%v,%v), want (%v,%v,%v)",
				trial, v.AllInt(), v.AllFloat(), v.AllStr(), allInt, allFloat, allStr)
		}
	}
}

// TestAppendGatherMatchesAppendFrom checks the bulk gather against the
// per-row form over homogeneous and mixed sources, into fresh and non-empty
// destinations, and that a batch reserved for its final row count is filled
// without regrowing a column.
func TestAppendGatherMatchesAppendFrom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	srcs := map[string]func(i int) types.Datum{
		"int":   func(i int) types.Datum { return types.NewInt(int64(i)) },
		"date":  func(i int) types.Datum { return types.NewDate(int64(i)) },
		"float": func(i int) types.Datum { return types.NewFloat(float64(i) / 2) },
		"str":   func(i int) types.Datum { return types.NewString(string(rune('a' + i%26))) },
		"mixed": func(int) types.Datum { return randDatum(r) },
	}
	for name, gen := range srcs {
		var src Vec
		for i := 0; i < 300; i++ {
			src.AppendDatum(gen(i))
		}
		idxs := make([]int32, 500)
		for i := range idxs {
			idxs[i] = int32(r.Intn(300))
		}
		b := Get(2)
		b.Reserve(len(idxs) + 1)
		got, want := b.Col(0), b.Col(1)
		got.AppendDatum(types.Null) // a non-empty, NULL-bearing destination
		want.AppendDatum(types.Null)
		got.AppendGather(&src, idxs[:100])
		capK, capI, capF, capS := cap(got.Kinds), cap(got.I), cap(got.F), cap(got.S)
		got.AppendGather(&src, idxs[100:])
		if name != "mixed" && (cap(got.Kinds) != capK || cap(got.I) != capI || cap(got.F) != capF || cap(got.S) != capS) {
			t.Errorf("%s: a reserved column regrew during the gather", name)
		}
		for _, i := range idxs {
			want.AppendFrom(&src, int(i))
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: gathered %d rows, want %d", name, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if g, w := got.Datum(i), want.Datum(i); g.K != w.K || !g.Equal(w) {
				t.Fatalf("%s: row %d = %v (%v), want %v (%v)", name, i, g, g.K, w, w.K)
			}
		}
		b.Seal(got.Len())
		b.Release()
	}
}

// TestDiffUnion checks the selection set operations against a map model.
func TestDiffUnion(t *testing.T) {
	sel := []int32{0, 2, 3, 5, 8, 9}
	sub := []int32{2, 5, 9}
	out := make([]int32, len(sel))
	got := Diff(sel, sub, out)
	want := []int32{0, 3, 8}
	if len(got) != len(want) {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Diff = %v, want %v", got, want)
		}
	}
	u := Union(got, sub, make([]int32, len(sel)))
	for i := range sel {
		if u[i] != sel[i] {
			t.Fatalf("Union = %v, want %v", u, sel)
		}
	}
	// In-place: Diff writing over its own sel input.
	selCopy := append([]int32(nil), sel...)
	got2 := Diff(selCopy, sub, selCopy)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("in-place Diff = %v, want %v", got2, want)
		}
	}
}

// TestColBatchRefcountRecycle locks in the refcount contract: a batch keeps
// its data while any holder remains, the last Release recycles it, and one
// Release too many panics.
func TestColBatchRefcountRecycle(t *testing.T) {
	b := Get(2)
	b.Col(0).AppendDatum(types.NewInt(1))
	b.Col(1).AppendDatum(types.NewString("x"))
	b.Seal(1)
	b.Retain()
	b.Release() // frame drops its ref; reader's ref keeps it alive
	if got := b.Col(1).Datum(0); got.S != "x" {
		t.Fatalf("batch reset while still referenced: %v", got)
	}
	b.Release() // last ref: arrays to the recycler, shell to the pool

	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	b2 := Get(1)
	b2.Release()
	b2.Release()
}

// TestColBatchRecycleZeroAlloc locks in the steady-state allocation profile
// of the pooled recycle path: refilling a warm batch with same-shaped data
// costs zero allocations.
func TestColBatchRecycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	fill := func(b *ColBatch) {
		for i := 0; i < 64; i++ {
			b.Col(0).AppendDatum(types.NewInt(int64(i)))
			b.Col(1).AppendDatum(types.NewFloat(float64(i)))
		}
		b.Seal(64)
	}
	// Warm the pool with one release/reacquire cycle.
	b := Get(2)
	fill(b)
	b.Release()

	allocs := testing.AllocsPerRun(100, func() {
		b := Get(2)
		fill(b)
		b.Release()
	})
	if allocs != 0 {
		t.Errorf("pooled ColBatch recycle allocates %v objects per cycle, want 0", allocs)
	}
}

// TestScratchReuse locks in the zero-allocation steady state of the kernel
// scratch stack.
func TestScratchReuse(t *testing.T) {
	var s Scratch
	use := func() {
		a := s.Grab(128)
		b := s.Grab(128)
		_ = a
		_ = b
		s.Drop()
		s.Drop()
		_ = s.Row(8)
	}
	use() // warm-up
	if allocs := testing.AllocsPerRun(100, use); allocs != 0 {
		t.Errorf("warm Scratch allocates %v objects per use, want 0", allocs)
	}
}

// fillShape fills b — a fresh batch — with rows rows of the given column
// kinds the way a page decode (bulk fills, dictionary-coded strings) or a
// join output (Reserve + AppendGather) would, seals it, and returns the
// bytes the fill wrote: what the batch has to hold.
func fillShape(b *ColBatch, rows int, kinds []types.Kind, gather bool, r *rand.Rand) int64 {
	var filled int64
	if gather {
		b.Reserve(rows)
	}
	idxs := make([]int32, rows)
	for c, k := range kinds {
		v := b.Col(c)
		switch {
		case gather:
			var src Vec
			switch k {
			case types.KindString:
				src.AppendDatum(types.NewString("s"))
				filled += int64(rows) * (1 + 16)
			case types.KindFloat:
				src.AppendDatum(types.NewFloat(1.5))
				filled += int64(rows) * (1 + 8)
			default:
				src.AppendDatum(types.NewInt(7))
				filled += int64(rows) * (1 + 8)
			}
			v.AppendGather(&src, idxs)
		case k == types.KindString:
			ndict := 1 + r.Intn(40)
			v.AppendKindRun(k, rows)
			dict, codes, strs := v.BulkDict(ndict), v.BulkI(rows), v.BulkS(rows)
			for i := range dict {
				dict[i] = string(rune('a' + i))
			}
			for i := range strs {
				codes[i] = int64(i % ndict)
				strs[i] = dict[i%ndict]
			}
			filled += int64(rows)*(1+8+16) + int64(ndict)*16
		case k == types.KindFloat:
			v.AppendKindRun(k, rows)
			clear(v.BulkF(rows))
			filled += int64(rows) * (1 + 8)
		default:
			v.AppendKindRun(k, rows)
			clear(v.BulkI(rows))
			filled += int64(rows) * (1 + 8)
		}
	}
	b.Seal(rows)
	return filled
}

// TestColBatchRecycleKeepsShape pins the recycler's contract: a batch holds
// what its current use fills, whatever the pool has seen before. A
// 3 000-row page of four string columns, released, leaves nothing on a
// 1 024-row join output of four int columns; and across 1 000 random shape
// alternations the live batches together never hold more than 1.5 × what
// their uses fill.
func TestColBatchRecycleKeepsShape(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	str4 := []types.Kind{types.KindString, types.KindString, types.KindString, types.KindString}
	int4 := []types.Kind{types.KindInt, types.KindDate, types.KindInt, types.KindInt}

	page := Get(4)
	fillShape(page, 3000, str4, false, r)
	page.Release()
	out := Get(4)
	fillShape(out, 1024, int4, true, r)
	if got, limit := out.Bytes(), int64(1.25*1024*(8+1)*4); got > limit {
		t.Errorf("1 024-row 4-int join output after a 3 000-row string page holds %d bytes, want <= %d", got, limit)
	}
	out.Release()

	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate}
	type live struct {
		b      *ColBatch
		filled int64
	}
	var held []live
	for step := 0; step < 1000; step++ {
		if len(held) == 8 || (len(held) > 0 && r.Intn(3) == 0) {
			i := r.Intn(len(held))
			held[i].b.Release()
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		shape := make([]types.Kind, 1+r.Intn(12))
		for c := range shape {
			shape[c] = kinds[r.Intn(len(kinds))]
		}
		rows := minClassRows + r.Intn(4000)
		if r.Intn(4) == 0 {
			rows = 1024 // the operators' output size
		}
		b := Get(len(shape))
		held = append(held, live{b, fillShape(b, rows, shape, r.Intn(2) == 0, r)})
		var bytes, filled int64
		for _, l := range held {
			bytes += l.b.Bytes()
			filled += l.filled
		}
		if float64(bytes) > 1.5*float64(filled) {
			t.Fatalf("step %d: %d live batches hold %d bytes for %d filled (%.2fx)",
				step, len(held), bytes, filled, float64(bytes)/float64(filled))
		}
	}
	for _, l := range held {
		l.b.Release()
	}
}

// TestPoolStatsBalance checks the recycler's gauges: bytes out is exactly
// the capacity of the arrays checked-out batches hold and returns to its
// baseline when they are released; what they held is parked, and two
// collection cycles without a taker drop it.
func TestPoolStatsBalance(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	base := PoolStats()
	b := Get(3)
	fillShape(b, 2000, []types.Kind{types.KindInt, types.KindString, types.KindFloat}, false, r)
	if got := PoolStats(); got.BytesOut-base.BytesOut != b.Bytes() || got.BatchesOut != base.BatchesOut+1 {
		t.Fatalf("one batch of %d bytes out: stats moved from %+v to %+v", b.Bytes(), base, got)
	}
	b.Release()
	if got := PoolStats(); got.BytesOut != base.BytesOut || got.BatchesOut != base.BatchesOut {
		t.Fatalf("after release: %+v, want the baseline %+v", got, base)
	}
	if PoolStats().BytesParked == 0 {
		t.Fatal("a released batch parked nothing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for PoolStats().BytesParked != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still parked after repeated collections", PoolStats().BytesParked)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestAllSelSharedAndWriteCaught: every batch's identity selection is a
// prefix of one shared slice, capped so an append cannot reach the rest, and
// a kernel that writes through it is caught by CheckIdentity.
func TestAllSelSharedAndWriteCaught(t *testing.T) {
	a, b := Get(1), Get(1)
	defer a.Release()
	defer b.Release()
	for i := 0; i < 100; i++ {
		a.Col(0).AppendDatum(types.NewInt(int64(i)))
		if i < 40 {
			b.Col(0).AppendDatum(types.NewInt(int64(i)))
		}
	}
	a.Seal(100)
	b.Seal(40)
	sa, sb := a.AllSel(), b.AllSel()
	if len(sa) != 100 || cap(sa) != 100 || len(sb) != 40 || &sa[0] != &sb[0] {
		t.Fatalf("AllSel: len/cap %d/%d and %d/%d, shared=%v; want capped prefixes of one slice",
			len(sa), cap(sa), len(sb), cap(sb), &sa[0] == &sb[0])
	}
	for i, r := range sa {
		if r != int32(i) {
			t.Fatalf("AllSel()[%d] = %d", i, r)
		}
	}
	if err := CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	// A kernel compacting survivors into its input selection — legal for a
	// private selection, a bug through AllSel.
	Diff(sa, []int32{0, 1, 2}, sa)
	if CheckIdentity() == nil {
		t.Error("CheckIdentity missed a write through AllSel")
	}
	for i := range sa {
		sa[i] = int32(i) // repair for the rest of the process
	}
	if err := CheckIdentity(); err != nil {
		t.Fatal(err)
	}

	// Above the shared length a batch gets a private selection.
	big := Get(1)
	defer big.Release()
	big.Col(0).AppendKindRun(types.KindInt, maxSharedSel+5)
	big.Col(0).BulkI(maxSharedSel + 5)
	big.Seal(maxSharedSel + 5)
	if s := big.AllSel(); len(s) != maxSharedSel+5 || s[maxSharedSel+4] != maxSharedSel+4 {
		t.Fatalf("private identity selection wrong: len %d", len(s))
	}
}

// countingSource decodes column i as n rows of the int i, counting calls.
type countingSource struct {
	n       int
	decodes [8]atomic.Int32
	closed  atomic.Int32
}

func (s *countingSource) DecodeCol(i int, v *Vec) {
	s.decodes[i].Add(1)
	v.AppendKindRun(types.KindInt, s.n)
	for j, vi := 0, v.BulkI(s.n); j < s.n; j++ {
		vi[j] = int64(i)
	}
}

func (s *countingSource) Close() { s.closed.Add(1) }

// TestFirstTouchDecodesOncePerColumn drives a lazily sealed batch from many
// goroutines: every column is decoded exactly once however many readers race
// for it, untouched columns never are, eager columns are left alone, the
// footprint counts only what was decoded, and the source is closed by the
// last Release.
func TestFirstTouchDecodesOncePerColumn(t *testing.T) {
	const rows, readers = 500, 8
	src := &countingSource{n: rows}
	b := Get(8)
	for _, c := range []int{0, 7} { // eager columns
		b.Col(c).AppendKindRun(types.KindInt, rows)
		clear(b.Col(c).BulkI(rows))
	}
	b.SealSource(rows, src, 0b0111_1110)
	if got := b.Bytes(); got > 2*1.125*rows*9 {
		t.Fatalf("batch with two decoded columns holds %d bytes", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		b.Retain()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer b.Release()
			r := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 200; k++ {
				c := r.Intn(6) // column 6 is never asked for
				v := b.Col(c)
				want := int64(c)
				if c == 0 {
					want = 0
				}
				if v.Len() != rows || v.I[r.Intn(rows)] != want {
					t.Errorf("reader %d: column %d has %d rows, sample != %d", g, c, v.Len(), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for c := 1; c <= 5; c++ {
		if n := src.decodes[c].Load(); n != 1 {
			t.Errorf("column %d decoded %d times, want 1", c, n)
		}
	}
	for _, c := range []int{0, 6, 7} {
		if n := src.decodes[c].Load(); n != 0 {
			t.Errorf("column %d decoded %d times, want 0", c, n)
		}
	}
	if src.closed.Load() != 0 {
		t.Fatal("source closed while the batch is still held")
	}
	// Full-row paths touch everything.
	if row := b.Row(3); row[6].I != 6 {
		t.Fatalf("Row did not decode column 6: %v", row)
	}
	b.Release()
	if src.closed.Load() != 1 {
		t.Fatalf("source closed %d times at the last release, want 1", src.closed.Load())
	}
}

// TestKindRunSharedAndWriteCaught: single-kind columns share one read-only
// run of their kind, cut so that an append cannot reach the rest of it; a
// column that is written copies its tags first; the recycler neither counts
// nor parks the shared run; and a kernel that writes through Kinds of such a
// column is caught by CheckKindRuns.
func TestKindRunSharedAndWriteCaught(t *testing.T) {
	base := PoolStats()
	a, b := Get(1), Get(1)
	a.Col(0).SetKindRun(types.KindDate, 1000)
	b.Col(0).SetKindRun(types.KindDate, 40)
	ka, kb := a.Col(0).Kinds, b.Col(0).Kinds
	if len(ka) != 1000 || cap(ka) != 1000 || len(kb) != 40 || &ka[0] != &kb[0] || ka[999] != types.KindDate {
		t.Fatalf("kind runs: len/cap %d/%d and %d/%d, shared=%v", len(ka), cap(ka), len(kb), cap(kb), &ka[0] == &kb[0])
	}
	if !a.Col(0).AllInt() || a.Col(0).AllFloat() {
		t.Fatal("uniformity flags not set by SetKindRun")
	}
	if got := PoolStats().BytesOut; got != base.BytesOut {
		t.Fatalf("shared runs counted as %d recycler bytes", got-base.BytesOut)
	}
	if got := a.Col(0).bytes(); got != 0 {
		t.Fatalf("a column holding only the shared run reports %d bytes", got)
	}
	for i, vi := 0, a.Col(0).BulkI(1000); i < 1000; i++ {
		vi[i] = int64(i)
	}
	a.Seal(1000)

	// Writers copy first.
	b.Col(0).AppendDatum(types.NewDate(7))
	if k := b.Col(0).Kinds; len(k) != 41 || &k[0] == &kb[0] || k[40] != types.KindDate {
		t.Fatal("append to a shared-run column did not copy its tags")
	}
	c := Get(1)
	c.Col(0).SetKindRun(types.KindInt, 8)
	c.Col(0).SetNull(2)
	if c.Col(0).Kinds[2] != types.KindNull || c.Col(0).Kinds[3] != types.KindInt || c.Col(0).AllInt() {
		t.Fatal("SetNull on a shared-run column")
	}
	if err := CheckKindRuns(); err != nil {
		t.Fatal(err)
	}

	// A kernel writing through the tags of a sealed column is a bug.
	ka[5] = types.KindNull
	if CheckKindRuns() == nil {
		t.Error("CheckKindRuns missed a write through a shared run")
	}
	ka[5] = types.KindDate // repair for the rest of the process
	if err := CheckKindRuns(); err != nil {
		t.Fatal(err)
	}

	a.Release()
	b.Release()
	c.Release()
	if got := PoolStats(); got.BytesOut != base.BytesOut || got.BatchesOut != base.BatchesOut {
		t.Fatalf("after the releases: %+v, baseline %+v", got, base)
	}
	// The run was not parked: the next column of that class gets its own array.
	d := Get(1)
	defer d.Release()
	d.Col(0).AppendKindRun(types.KindDate, 1000)
	if &d.Col(0).Kinds[0] == &ka[0] {
		t.Fatal("the shared run came back out of the recycler")
	}
}

// TestPutIgnoresForeignArrays: an array that is not cut to a class is none
// that take handed out; put neither parks it nor subtracts it from the bytes
// counted out.
func TestPutIgnoresForeignArrays(t *testing.T) {
	base := PoolStats()
	intPark.put(make([]int64, 100))
	kindPark.put(make([]types.Kind, 1000)[:10:999])
	if got := PoolStats(); got.BytesOut != base.BytesOut || got.BytesParked != base.BytesParked {
		t.Fatalf("put of a non-class array moved the gauges: %+v, baseline %+v", got, base)
	}
}
