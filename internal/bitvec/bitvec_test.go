package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// model is a reference implementation backed by a map, used to cross-check
// the word kernels in property tests.
type model map[int]bool

// randomWords builds nwords words and their model: all zero, sparse or dense,
// so AnyWords meets empty bitmaps too.
func randomWords(r *rand.Rand, nwords int) ([]uint64, model) {
	w := make([]uint64, nwords)
	m := model{}
	density := r.Intn(3)
	for i := 0; i < nwords*wordBits; i++ {
		if density == 2 && r.Intn(2) == 0 || density == 1 && r.Intn(50) == 0 {
			w[i/wordBits] |= 1 << uint(i%wordBits)
			m[i] = true
		}
	}
	return w, m
}

// matches reports whether w holds exactly the model's bits, reading past its
// end as GetWord does.
func matches(w []uint64, m model) bool {
	for i := 0; i < (len(w)+2)*wordBits; i++ {
		if GetWord(w, i) != m[i] {
			return false
		}
	}
	return true
}

func TestSetGetClear(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, m := randomWords(r, 1+r.Intn(4))
		if !matches(w, m) {
			return false
		}
		for k := 0; k < 20; k++ {
			i := r.Intn((len(w) + 1) * wordBits)
			ClearWord(w, i)
			delete(m, i)
		}
		return matches(w, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClearBeyondCapacityIsNoop(t *testing.T) {
	w := []uint64{^uint64(0)}
	ClearWord(w, 1000) // must not grow or panic
	if len(w) != 1 || w[0] != ^uint64(0) || GetWord(w, 1000) {
		t.Errorf("ClearWord beyond capacity changed %v", w)
	}
}

// TestSetClearGetWord pins the word boundaries.
func TestSetClearGetWord(t *testing.T) {
	w := make([]uint64, 4)
	for _, i := range []int{0, 63, 64, 200} {
		w[i/wordBits] |= 1 << uint(i%wordBits)
	}
	for _, i := range []int{0, 63, 64, 200} {
		if !GetWord(w, i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if GetWord(w, 1) || GetWord(w, 62) || GetWord(w, 65) || GetWord(w, 199) || GetWord(w, 256) {
		t.Error("unexpected bit set")
	}
	ClearWord(w, 63)
	if GetWord(w, 63) || !GetWord(w, 64) {
		t.Error("ClearWord(63) must clear bit 63 and only it")
	}
}

// TestAndMaskedMatchesModel: dst' = dst AND (entry OR NOT mask), with the
// operands' lengths mismatched (missing words read as zero).
func TestAndMaskedMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dst, md := randomWords(r, 1+r.Intn(4))
		entry, me := randomWords(r, r.Intn(5))
		mask, mm := randomWords(r, r.Intn(5))
		want := model{}
		for i := 0; i < len(dst)*wordBits; i++ {
			if md[i] && (me[i] || !mm[i]) {
				want[i] = true
			}
		}
		n := len(dst)
		AndMaskedWords(dst, entry, mask)
		return len(dst) == n && matches(dst, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAndNotMatchesModel: dst' = dst AND NOT mask, lengths mismatched.
func TestAndNotMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dst, md := randomWords(r, 1+r.Intn(4))
		mask, mm := randomWords(r, r.Intn(5))
		want := model{}
		for i := range md {
			if !mm[i] {
				want[i] = true
			}
		}
		n := len(dst)
		AndNotWords(dst, mask)
		return len(dst) == n && matches(dst, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCountAndAny: AnyWords reports whether the model counts any bit.
func TestCountAndAny(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, m := randomWords(r, r.Intn(4))
		return AnyWords(w) == (len(m) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWordKernelsZeroAlloc locks in the allocation-free contract of the
// steady-state kernels.
func TestWordKernelsZeroAlloc(t *testing.T) {
	dst := make([]uint64, 8)
	entry := make([]uint64, 8)
	mask := make([]uint64, 8)
	for i := range dst {
		dst[i] = ^uint64(0)
		entry[i] = uint64(i) * 0x9e3779b97f4a7c15
		mask[i] = ^uint64(0) >> uint(i)
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		AndMaskedWords(dst, entry, mask)
		AndNotWords(dst, mask)
		if AnyWords(dst) && GetWord(dst, 3) {
			sink++
		}
		ClearWord(dst, 3)
	})
	if allocs != 0 {
		t.Errorf("word kernels allocate %v objects per run, want 0", allocs)
	}
	_ = sink
}

// Ablation: bitmap AND cost per CJOIN probe as the admitted-query population
// grows (the GQP bookkeeping curve III measures), on the flat word kernels
// over inline arenas, the CJOIN steady-state representation.
func BenchmarkCJoinBitmapAnd(b *testing.B) {
	for _, queries := range []int{16, 256, 4096} {
		nw := (queries + wordBits - 1) / wordBits
		tupleW, entryW, maskW := make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
		for i := 0; i < queries; i++ {
			bit := uint64(1) << uint(i%wordBits)
			if i%2 == 0 {
				tupleW[i/wordBits] |= bit
			}
			if i%3 == 0 {
				entryW[i/wordBits] |= bit
			}
			if i%5 != 0 {
				maskW[i/wordBits] |= bit
			}
		}
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
