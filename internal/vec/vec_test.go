package vec

import (
	"math/rand"
	"testing"

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

// TestColBatchRefcountRecycle locks in the pooled recycle contract: a batch
// released by its last holder is reset (strings dropped) and reusable, and
// re-decoding into a warm recycled batch allocates nothing beyond the
// strings themselves.
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
	b.Release() // last ref: resets and pools

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
