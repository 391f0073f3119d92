package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// model is a reference implementation backed by a map, used to cross-check
// the word-packed bitset in property tests.
type model map[int]bool

func randomBits(r *rand.Rand, n int) (*Bits, model) {
	b := New(n)
	m := model{}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			b.Set(i)
			m[i] = true
		}
	}
	return b, m
}

func TestSetGetClear(t *testing.T) {
	b := New(0)
	for _, i := range []int{0, 1, 63, 64, 65, 200, 1000} {
		if b.Get(i) {
			t.Errorf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Errorf("bit %d set after Clear", i)
		}
	}
}

func TestClearBeyondCapacityIsNoop(t *testing.T) {
	b := New(8)
	b.Clear(1000) // must not grow or panic
	if b.Len() > 64 {
		t.Error("Clear must not grow the bitset")
	}
}

func TestAndMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, ma := randomBits(r, n)
		b, mb := randomBits(r, n+r.Intn(64))
		a.And(b)
		for i := 0; i < n; i++ {
			if a.Get(i) != (ma[i] && mb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAndMaskedMatchesModel(t *testing.T) {
	// AndMasked(b, o, mask): b' = b AND (o OR NOT mask)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		b, mb := randomBits(r, n)
		o, mo := randomBits(r, n)
		mask, mm := randomBits(r, n)
		b.AndMasked(o, mask)
		for i := 0; i < n; i++ {
			want := mb[i] && (mo[i] || !mm[i])
			if b.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAndNotMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, ma := randomBits(r, n)
		b, mb := randomBits(r, n)
		a.AndNot(b)
		for i := 0; i < n; i++ {
			if a.Get(i) != (ma[i] && !mb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrGrows(t *testing.T) {
	a := New(1)
	b := New(0)
	b.Set(200)
	a.Or(b)
	if !a.Get(200) {
		t.Error("Or must grow the receiver to include high bits")
	}
}

func TestCountAndAny(t *testing.T) {
	b := New(128)
	if b.Any() || b.Count() != 0 {
		t.Error("fresh bitset must be empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(127)
	if !b.Any() || b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
}

func TestForEachAscendingAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b, m := randomBits(r, 300)
		prev := -1
		seen := 0
		ok := true
		b.ForEach(func(i int) {
			if i <= prev || !m[i] {
				ok = false
			}
			prev = i
			seen++
		})
		want := 0
		for _, v := range m {
			if v {
				want++
			}
		}
		return ok && seen == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextSet(t *testing.T) {
	b := New(256)
	b.Set(5)
	b.Set(64)
	b.Set(130)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 130}, {131, -1}, {-3, 5},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(0).NextSet(0) != -1 {
		t.Error("NextSet on empty bitset must be -1")
	}
}

func TestCloneAndCopyFromIndependent(t *testing.T) {
	a := New(64)
	a.Set(3)
	c := a.Clone()
	c.Set(9)
	if a.Get(9) {
		t.Error("Clone must be independent")
	}
	var d Bits
	d.CopyFrom(c)
	if !d.Get(3) || !d.Get(9) {
		t.Error("CopyFrom must copy all bits")
	}
	d.Clear(3)
	if !c.Get(3) {
		t.Error("CopyFrom target must be independent")
	}
}

func TestEqualIgnoresCapacity(t *testing.T) {
	a := New(64)
	b := New(1024)
	a.Set(7)
	b.Set(7)
	if !a.Equal(b) {
		t.Error("equal bit content with different capacity must be Equal")
	}
	b.Set(700)
	if a.Equal(b) {
		t.Error("different bit content must not be Equal")
	}
}

func TestResetRetainsCapacity(t *testing.T) {
	b := New(256)
	b.Set(200)
	b.Reset()
	if b.Any() {
		t.Error("Reset must clear all bits")
	}
	if b.Len() != 256 {
		t.Errorf("Reset must retain capacity, got %d", b.Len())
	}
}

func TestString(t *testing.T) {
	b := New(8)
	b.Set(0)
	b.Set(3)
	b.Set(17)
	if got := b.String(); got != "{0,3,17}" {
		t.Errorf("String = %q", got)
	}
	if got := New(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Ablation: bitmap AND cost per CJOIN probe as the admitted-query population
// grows (the GQP bookkeeping curve III measures) — growable Bits against the
// flat word kernels on inline arenas, the CJOIN steady-state representation.
func BenchmarkCJoinBitmapAnd(b *testing.B) {
	for _, queries := range []int{16, 256, 4096} {
		tuple, entry, mask := New(queries), New(queries), New(queries)
		var tupleW, entryW, maskW []uint64
		for i := 0; i < queries; i++ {
			if i%2 == 0 {
				tuple.Set(i)
				tupleW = SetWord(tupleW, i)
			}
			if i%3 == 0 {
				entry.Set(i)
				entryW = SetWord(entryW, i)
			}
			if i%5 != 0 {
				mask.Set(i)
				maskW = SetWord(maskW, i)
			}
		}
		b.Run(fmt.Sprintf("impl=bits/queries=%d", queries), func(b *testing.B) {
			work := tuple.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(tuple)
				work.AndMasked(entry, mask)
				if !work.Any() {
					b.Fatal("bitmap unexpectedly empty")
				}
			}
		})
		b.Run(fmt.Sprintf("impl=words/queries=%d", queries), func(b *testing.B) {
			work := make([]uint64, len(tupleW))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, tupleW)
				AndMaskedWords(work, entryW, maskW)
				if !AnyWords(work) {
					b.Fatal("bitmap unexpectedly empty")
				}
			}
		})
	}
}
