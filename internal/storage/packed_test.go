package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestPackIntsMatchesReference packs random values of every width 0 to 64
// bits a run at a time, NULL runs among them, and must write the bytes the
// bit-at-a-time reference writes.
func TestPackIntsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for width := uint(0); width <= 64; width++ {
		for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 1290} {
			base := r.Uint64()
			vals, deltas := make([]int64, n), make([]uint64, n)
			pk := packer{out: make([]byte, packedLen(n, width)), w: width}
			for lo := 0; lo < n; {
				hi := min(n, lo+1+r.Intn(70))
				if r.Intn(3) == 0 {
					pk.zeros(hi - lo)
				} else {
					for i := lo; i < hi; i++ {
						deltas[i] = r.Uint64() & (^uint64(0) >> (64 - width))
						vals[i] = int64(base + deltas[i])
					}
					packDeltas(&pk, vals[lo:hi], base)
				}
				lo = hi
			}
			pk.flush()
			if want := refPack(nil, deltas, int(width)); !bytes.Equal(pk.out, want) || pk.p != len(want) {
				t.Fatalf("width %d, %d rows: packed %x (%d bytes written), reference %x", width, n, pk.out, pk.p, want)
			}
		}
	}
}

// packWidths are the widths the pack and unpack benchmarks report: every
// group size of the unpacker (8, 4, 3, 2 and 1 values a load), the byte
// widths the format had before it packed bits, and the read a byte at a
// time past 57 bits.
var packWidths = []uint{1, 3, 4, 7, 8, 9, 12, 14, 16, 17, 19, 22, 24, 28, 32, 40, 57, 64}

// packBenchValues are n random values of w bits from base 0.
func packBenchValues(n int, w uint) []int64 {
	r := rand.New(rand.NewSource(int64(w)))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Uint64() & lowMask(w))
	}
	return vals
}

// BenchmarkUnpackInts measures unpackInts in ns per value, by width, over a
// payload of 2 048 values at the end of a page-sized buffer: a fixed-width
// column's decode.
func BenchmarkUnpackInts(b *testing.B) {
	const n = 2048
	for _, w := range packWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			pk := packer{out: make([]byte, packedLen(n, w)), w: w}
			packDeltas(&pk, packBenchValues(n, w), 0)
			pk.flush()
			data := make([]byte, PageSize)[PageSize-len(pk.out):] // the page's last payload
			copy(data, pk.out)
			vi := make([]int64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				unpackInts(vi, data, 7, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}

// BenchmarkPackInts measures the builder's packer in ns per value, by
// width: 2 048 values packed as one run, as encode packs a column without
// NULLs.
func BenchmarkPackInts(b *testing.B) {
	const n = 2048
	for _, w := range packWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			vals := packBenchValues(n, w)
			out := make([]byte, packedLen(n, w))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pk := packer{out: out, w: w}
				packDeltas(&pk, vals, 0)
				pk.flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
		})
	}
}
