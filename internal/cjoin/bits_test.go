package cjoin

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// model is a reference bitmap backed by a map, used to cross-check the word
// kernels in property tests.
type model map[int]bool

// randomWords builds nwords words and their model: all zero, sparse or dense,
// so anyWords meets empty bitmaps too.
func randomWords(r *rand.Rand, nwords int) ([]uint64, model) {
	w := make([]uint64, nwords)
	m := model{}
	density := r.Intn(3)
	for i := 0; i < nwords*64; i++ {
		if density == 2 && r.Intn(2) == 0 || density == 1 && r.Intn(50) == 0 {
			w[i/64] |= 1 << uint(i%64)
			m[i] = true
		}
	}
	return w, m
}

// matches reports whether w holds exactly the model's bits, reading past its
// end as zero.
func matches(w []uint64, m model) bool {
	for i := 0; i < (len(w)+2)*64; i++ {
		if (i/64 < len(w) && w[i/64]&(1<<uint(i%64)) != 0) != m[i] {
			return false
		}
	}
	return true
}

// slotMajor stores entry as entry 1 of two-entry slot-major columns, the
// layout of dimTable.bits, with entry 0 all ones so a kernel that reads the
// wrong entry shows.
func slotMajor(entry []uint64) [][]atomic.Uint64 {
	cols := make([][]atomic.Uint64, len(entry))
	for i, w := range entry {
		cols[i] = make([]atomic.Uint64, 2)
		cols[i][0].Store(^uint64(0))
		cols[i][1].Store(w)
	}
	return cols
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
		for i := 0; i < len(dst)*64; i++ {
			if md[i] && (me[i] || !mm[i]) {
				want[i] = true
			}
		}
		n := len(dst)
		andMaskedWords(dst, slotMajor(entry), 1, mask)
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
		andNotWords(dst, mask)
		return len(dst) == n && matches(dst, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCountAndAny: anyWords reports whether the model counts any bit.
func TestCountAndAny(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, m := randomWords(r, r.Intn(4))
		return anyWords(w) == (len(m) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFillWordsRepeatsPattern: fillWords leaves every stride-word tuple of
// the arena equal to the pattern, whatever the arena held, for strides of
// one to four words and patterns with and without bits.
func TestFillWordsRepeatsPattern(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		stride, rows := 1+r.Intn(4), r.Intn(200)
		pattern := make([]uint64, stride)
		if r.Intn(3) > 0 {
			for i := range pattern {
				pattern[i] = r.Uint64() & r.Uint64()
			}
		}
		words := make([]uint64, rows*stride)
		for i := range words {
			words[i] = r.Uint64()
		}
		fillWords(words, pattern)
		for i, w := range words {
			if w != pattern[i%stride] {
				return false
			}
		}
		return true
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
	cols := slotMajor(entry)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		andMaskedWords(dst, cols, 1, mask)
		andNotWords(dst, mask)
		if anyWords(dst) {
			sink++
		}
	})
	if allocs != 0 {
		t.Errorf("word kernels allocate %v objects per run, want 0", allocs)
	}
	_ = sink
}

// Ablation: bitmap AND cost per CJOIN probe as the admitted-query population
// grows (the GQP bookkeeping curve III measures), on the word kernels over
// an inline tuple bitmap and slot-major entry columns, the CJOIN
// steady-state representation.
func BenchmarkCJoinBitmapAnd(b *testing.B) {
	for _, queries := range []int{16, 256, 4096} {
		nw := (queries + 63) / 64
		tupleW, entryW, maskW := make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
		for i := 0; i < queries; i++ {
			bit := uint64(1) << uint(i%64)
			if i%2 == 0 {
				tupleW[i/64] |= bit
			}
			if i%3 == 0 {
				entryW[i/64] |= bit
			}
			if i%5 != 0 {
				maskW[i/64] |= bit
			}
		}
		cols := slotMajor(entryW)
		b.Run(fmt.Sprintf("impl=words/queries=%d", queries), func(b *testing.B) {
			work := make([]uint64, len(tupleW))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, tupleW)
				andMaskedWords(work, cols, 1, maskW)
				if !anyWords(work) {
					b.Fatal("bitmap unexpectedly empty")
				}
			}
		})
	}
}
