// Package bitvec implements the query-set bitmaps at the heart of the Global
// Query Plan (Figure 1b of the paper): every tuple flowing through a shared
// operator carries a bitmap whose bit q records whether the tuple is still
// relevant to query q. Shared hash-joins AND the bitmaps of the joined
// tuples; the distributor routes a tuple to every query whose bit survived.
//
// The CJOIN hot path stores tuple bitmaps inline in a per-page []uint64 arena
// (tuple i owns words [i*stride, (i+1)*stride)), so these kernels operate
// directly on word slices and the steady-state probe path performs zero
// allocations. Words missing from the shorter operand are treated as zero.
package bitvec

const wordBits = 64

// ClearWord clears bit i in w (no-op beyond capacity).
func ClearWord(w []uint64, i int) {
	if i/wordBits < len(w) {
		w[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// GetWord reports bit i of w.
func GetWord(w []uint64, i int) bool {
	wi := i / wordBits
	return wi < len(w) && w[wi]&(1<<uint(i%wordBits)) != 0
}

// AnyWords reports whether any bit of w is set — the "is this tuple still
// alive" check after each shared join.
func AnyWords(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// AndMaskedWords computes dst &= entry | ^mask word-wise: bits inside mask
// are filtered through entry, bits outside mask pass through unchanged. This
// is the core shared hash-join step — mask is the set of queries that
// reference this dimension, entry is the dimension entry's bitmap, and
// queries that do not join this dimension must keep their bits.
func AndMaskedWords(dst, entry, mask []uint64) {
	for i := range dst {
		var ew, mw uint64
		if i < len(entry) {
			ew = entry[i]
		}
		if i < len(mask) {
			mw = mask[i]
		}
		dst[i] &= ew | ^mw
	}
}

// AndNotWords computes dst &^= mask word-wise — the shared hash-join miss
// step: every query referencing the dimension loses the tuple.
func AndNotWords(dst, mask []uint64) {
	n := len(dst)
	if len(mask) < n {
		n = len(mask)
	}
	for i := 0; i < n; i++ {
		dst[i] &^= mask[i]
	}
}
