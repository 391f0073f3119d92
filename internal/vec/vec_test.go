package vec

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// columnKinds are the kinds a column may declare.
var columnKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindBool}

// randKind draws a column's kind.
func randKind(r *rand.Rand) types.Kind { return columnKinds[r.Intn(len(columnKinds))] }

// randDatum draws one row of a column of kind k: a value of k, or NULL.
func randDatum(r *rand.Rand, k types.Kind) types.Datum {
	if r.Intn(6) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		return types.NewInt(r.Int63n(100) - 50)
	case types.KindFloat:
		if r.Intn(2) == 0 {
			return types.NewFloat(float64(r.Int63n(50))) // integral float
		}
		return types.NewFloat(r.Float64()*100 - 50)
	case types.KindString:
		return types.NewString(string(rune('a' + r.Intn(26))))
	case types.KindDate:
		return types.NewDate(r.Int63n(20000))
	default:
		return types.NewBool(r.Intn(2) == 0)
	}
}

// TestAppendDatumRoundTrip checks Vec's single storage contract: Datum(i)
// returns exactly what AppendDatum stored, the column's kind is the one
// non-NULL kind it was given (KindNull until then), and IsNull and
// DropNulls name exactly the NULL rows.
func TestAppendDatumRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var v Vec // the zero value is a valid empty column
		k := randKind(r)
		n := 1 + r.Intn(200)
		in := make([]types.Datum, n)
		kind, nulls := types.KindNull, false
		for i := range in {
			in[i] = randDatum(r, k)
			if trial%5 == 0 && i < n/2 {
				in[i] = types.Null // a run of NULLs before the first value
			}
			v.AppendDatum(in[i])
			if in[i].IsNull() {
				nulls = true
			} else {
				kind = k
			}
			if v.Kind != kind || v.HasNulls() != nulls {
				t.Fatalf("trial %d row %d: kind %v, nulls %v; want %v, %v", trial, i, v.Kind, v.HasNulls(), kind, nulls)
			}
		}
		sel := make([]int32, 0, n)
		for i := 0; i < n; i += 1 + r.Intn(3) {
			sel = append(sel, int32(i))
		}
		var want []int32
		for i, d := range in {
			if got := v.Datum(i); !got.Equal(d) || got.K != d.K || v.IsNull(i) != d.IsNull() {
				t.Fatalf("trial %d: Datum(%d) = %v (%v), want %v (%v)", trial, i, got, got.K, d, d.K)
			}
		}
		for _, i := range sel {
			if !in[i].IsNull() {
				want = append(want, i)
			}
		}
		if nulls {
			got := v.DropNulls(sel, sel) // in place
			if len(got) != len(want) {
				t.Fatalf("trial %d: DropNulls kept %v, want %v", trial, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: DropNulls kept %v, want %v", trial, got, want)
				}
			}
		}
	}
}

// TestSecondKindPanics: a column holds one non-NULL kind. Appending a value
// of another kind panics and names both — date is not int, though they share
// the payload — whether the column took its kind from a value, after NULLs,
// or from a gathered column; FromRows follows the same rule.
func TestSecondKindPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "date") || !strings.Contains(msg, "int") {
				t.Errorf("%s: panic %q, want one naming date and int", name, msg)
			}
		}()
		f()
	}
	var v Vec
	v.AppendDatum(types.Null)
	v.AppendDatum(types.NewInt(1))
	v.AppendDatum(types.Null) // NULL fits any column
	mustPanic("AppendDatum", func() { v.AppendDatum(types.NewDate(1)) })
	var dates Vec
	dates.AppendDatum(types.NewDate(3))
	mustPanic("AppendFrom", func() { v.AppendFrom(&dates, 0) })
	mustPanic("AppendGather", func() { v.AppendGather(&dates, []int32{0}) })
	mustPanic("FromRows", func() {
		FromRows(1, []types.Row{{types.NewInt(1)}, {types.Null}, {types.NewDate(2)}})
	})
}

// TestAppendGatherMatchesAppendFrom checks the bulk gather against the
// per-row form over every kind of source, with and without NULLs and of
// NULLs only, into a destination whose first row is NULL, and that a batch
// reserved for its final row count is filled without regrowing a column.
func TestAppendGatherMatchesAppendFrom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	srcs := map[string]func(i int) types.Datum{
		"int":   func(i int) types.Datum { return types.NewInt(int64(i)) },
		"date":  func(i int) types.Datum { return types.NewDate(int64(i)) },
		"float": func(i int) types.Datum { return types.NewFloat(float64(i) / 2) },
		"str":   func(i int) types.Datum { return types.NewString(string(rune('a' + i%26))) },
		"nulls": func(int) types.Datum { return randDatum(r, types.KindFloat) },
		"null":  func(int) types.Datum { return types.Null },
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
		capI, capF, capS, capN := cap(got.I), cap(got.F), cap(got.S), cap(got.nulls)
		got.AppendGather(&src, idxs[100:])
		if cap(got.I) != capI || cap(got.F) != capF || cap(got.S) != capS || cap(got.nulls) != capN {
			t.Errorf("%s: a reserved column regrew during the gather", name)
		}
		for _, i := range idxs {
			want.AppendFrom(&src, int(i))
		}
		if got.Len() != want.Len() || got.Kind != src.Kind || want.Kind != src.Kind {
			t.Fatalf("%s: gathered %d rows of %v, want %d of %v", name, got.Len(), got.Kind, want.Len(), src.Kind)
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

// TestSetNullsAndOrNulls: SetNulls marks exactly its rows NULL across word
// boundaries and zeroes their payload; OrNulls carries a column's NULL rows
// over to a row-wise result, shorter or longer than it.
func TestSetNullsAndOrNulls(t *testing.T) {
	var v Vec
	v.ResetRun(types.KindInt, 200)
	for i := range v.I {
		v.I[i] = int64(i) + 1
	}
	v.SetNulls(60, 130)
	v.SetNulls(199, 200)
	for i := 0; i < 200; i++ {
		null := (i >= 60 && i < 130) || i == 199
		if v.IsNull(i) != null || (v.I[i] == 0) != null {
			t.Fatalf("row %d: null %v, payload %d", i, v.IsNull(i), v.I[i])
		}
	}
	var w Vec
	w.ResetRun(types.KindFloat, 150)
	w.OrNulls(&v)
	for i := 0; i < 150; i++ {
		if w.IsNull(i) != v.IsNull(i) {
			t.Fatalf("OrNulls: row %d null %v, want %v", i, w.IsNull(i), v.IsNull(i))
		}
	}
	var u Vec
	u.ResetRun(types.KindInt, 300)
	u.OrNulls(&v)
	if !u.IsNull(199) || u.IsNull(200) || u.IsNull(299) {
		t.Fatal("OrNulls from a shorter column")
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
				filled += int64(rows) * 16
			case types.KindFloat:
				src.AppendDatum(types.NewFloat(1.5))
				filled += int64(rows) * 8
			default:
				src.AppendDatum(types.NewInt(7))
				filled += int64(rows) * 8
			}
			v.AppendGather(&src, idxs)
		case k == types.KindString:
			ndict := 1 + r.Intn(40)
			v.SetRows(k, rows)
			dict, codes := v.BulkDict(ndict), v.BulkI(rows)
			for i := range dict {
				dict[i] = string(rune('a' + i))
			}
			for i := range codes {
				codes[i] = int64(i % ndict)
			}
			filled += int64(rows)*8 + int64(ndict)*16
		case k == types.KindFloat:
			v.SetRows(k, rows)
			clear(v.BulkF(rows))
			filled += int64(rows) * 8
		default:
			v.SetRows(k, rows)
			clear(v.BulkI(rows))
			filled += int64(rows) * 8
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
	if got, limit := out.Bytes(), int64(1.25*1024*8*4); got > limit {
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
	big.Col(0).SetRows(types.KindInt, maxSharedSel+5)
	big.Col(0).BulkI(maxSharedSel + 5)
	big.Seal(maxSharedSel + 5)
	if s := big.AllSel(); len(s) != maxSharedSel+5 || s[maxSharedSel+4] != maxSharedSel+4 {
		t.Fatalf("private identity selection wrong: len %d", len(s))
	}
}

// TestSharedSelGrowsOnDemand: the shared identity selection is as long as
// the longest batch sealed, not built at maxSharedSel, and a longer batch
// grows it while the batches sealed before keep a valid selection, also
// when goroutines seal batches of growing lengths at once.
func TestSharedSelGrowsOnDemand(t *testing.T) {
	seal := func(n int) *ColBatch {
		b := Get(1)
		b.Col(0).SetRows(types.KindInt, n)
		b.Col(0).BulkI(n)
		b.Seal(n)
		return b
	}
	identity := func(b *ColBatch) error {
		for i, r := range b.AllSel() {
			if r != int32(i) {
				return fmt.Errorf("%d-row batch: AllSel()[%d] = %d", b.Len(), i, r)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1 + g; n < 600; n += 4 {
				b := seal(n)
				if err := identity(b); err != nil {
					errs <- err
					b.Release()
					return
				}
				b.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	short := seal(3)
	defer short.Release()
	have := len(*sharedSel.Load())
	if have >= maxSharedSel {
		t.Skipf("an earlier test sealed a %d-row batch", have)
	}
	long := seal(have + 1)
	defer long.Release()
	if got := len(*sharedSel.Load()); got != have+1 {
		t.Fatalf("shared selection holds %d rows after a %d-row batch, want %d", got, have+1, have+1)
	}
	if s := long.AllSel(); &s[0] != &(*sharedSel.Load())[0] {
		t.Fatal("the longest batch does not share the shared selection")
	}
	for _, b := range []*ColBatch{short, long} {
		if err := identity(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckIdentity(); err != nil {
		t.Fatal(err)
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
	v.SetRows(types.KindInt, s.n)
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
		b.Col(c).SetRows(types.KindInt, rows)
		clear(b.Col(c).BulkI(rows))
	}
	b.SealSource(rows, src, 0b0111_1110)
	if got := b.Bytes(); got > 2*1.125*rows*8 {
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

// TestPutIgnoresForeignArrays: an array that is not cut to a class is none
// that take handed out; put neither parks it nor subtracts it from the bytes
// counted out.
func TestPutIgnoresForeignArrays(t *testing.T) {
	base := PoolStats()
	intPark.put(make([]int64, 100))
	maskPark.put(make([]uint64, 1000)[:10:999])
	if got := PoolStats(); got.BytesOut != base.BytesOut || got.BytesParked != base.BytesParked {
		t.Fatalf("put of a non-class array moved the gauges: %+v, baseline %+v", got, base)
	}
}

// TestAppendCodedMatchesRows builds one coded column, the way a join index
// keeps a string column, from random sources of every form — a page's
// dictionary-coded column, a plain column, a column of NULLs — each under a
// random selection, and checks the sealed column against the rows it was
// given: every row reads back its string (Str, Datum) or NULL, NULL rows
// hold code 0, and the dictionary is exactly the strings the rows name,
// sorted. A column given only NULLs stays a column of NULLs.
func TestAppendCodedMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	words := []string{"", "ASIA", "EUROPE", "AFRICA", "MIDDLE EAST", "AMERICA", "peru", "PERU"}
	for round := range 200 {
		b := Get(1)
		v, c := b.Col(0), new(Coder)
		var want []types.Datum
		nulls := round%7 == 0 // every source NULL
		for range 1 + r.Intn(5) {
			n := 1 + r.Intn(40)
			var src Vec
			rows := make([]types.Datum, n)
			for i := range rows {
				rows[i] = types.NewString(words[r.Intn(len(words))])
				if nulls || r.Intn(6) == 0 {
					rows[i] = types.Null
				}
			}
			switch form := r.Intn(3); {
			case nulls || form == 0:
				for _, d := range rows {
					src.AppendDatum(d)
				}
			default: // a page's form: sorted dictionary, codes, NULL rows at code 0
				dict := slices.Clone(words)
				slices.Sort(dict)
				dict = slices.Compact(dict)
				src.SetRows(types.KindString, n)
				codes := src.BulkI(n)
				copy(src.BulkDict(len(dict)), dict)
				for i, d := range rows {
					if !d.IsNull() {
						codes[i] = int64(slices.Index(dict, d.S))
					}
				}
				for i, d := range rows {
					if d.IsNull() {
						src.SetNulls(i, i+1)
					}
				}
			}
			var sel []int32
			for i := range n {
				if r.Intn(3) != 0 {
					sel = append(sel, int32(i))
					want = append(want, rows[i])
				}
			}
			v.AppendCoded(&src, sel, c)
		}
		v.SortDict(c)
		b.Seal(len(want))
		if nulls && v.Kind != types.KindNull {
			t.Fatalf("round %d: a column of NULLs coded as %v", round, v.Kind)
		}
		var named []string
		for _, d := range want {
			if !d.IsNull() {
				named = append(named, d.S)
			}
		}
		slices.Sort(named)
		if named = slices.Compact(named); !slices.Equal(v.Dict, named) || len(v.S) != 0 {
			t.Fatalf("round %d: dictionary %q and %d string headers, want %q and none", round, v.Dict, len(v.S), named)
		}
		for i, d := range want {
			got := v.Datum(i)
			if got.K != d.K || !got.Equal(d) {
				t.Fatalf("round %d row %d: %v, want %v", round, i, got, d)
			}
			if d.IsNull() && v.HasDict() && v.I[i] != 0 {
				t.Fatalf("round %d row %d: NULL row holds code %d, want 0", round, i, v.I[i])
			}
			if !d.IsNull() && v.Str(i) != d.S {
				t.Fatalf("round %d row %d: Str %q, want %q", round, i, v.Str(i), d.S)
			}
		}
		b.Release()
	}
}
