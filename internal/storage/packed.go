package storage

import (
	"encoding/binary"
	"unsafe"
)

// Packed payloads. An encInt segment's frame-of-reference deltas and an
// encDict segment's codes are bit-packed at w bits a row (0 ≤ w ≤ 64): value
// i is the w bits at bit offset i×w of the payload, least significant bit
// first, and the payload is packedLen(rows, w) bytes. A NULL row holds 0.
// There are no block headers and no exceptions, so every value sits at a
// fixed bit offset and any one row reads alone (packedAt).

// packedLen is the byte length of a payload of n values of w bits.
func packedLen(n int, w uint) int { return (n*int(w) + 7) >> 3 }

// lowMask is the mask of the low w bits, w ≤ 64.
func lowMask(w uint) uint64 { return ^uint64(0) >> (64 - w) }

// packer writes a packed payload into out, a run of rows at a time. The bits
// not yet written are the low n bits of acc; a full word of them is stored at
// once, so out needs no slack past packedLen.
type packer struct {
	out []byte
	w   uint
	p   int // bytes of out written
	acc uint64
	n   uint
}

// packDeltas packs v - base for each v of vals into k, every one of them in
// [base, base + 2^w): int64 frame-of-reference values or int32 codes. Values
// of at most 16 bits go four at a time, as one 4w-bit value: the loop carried
// through acc and n then runs once per four.
func packDeltas[T int32 | int64](k *packer, vals []T, base uint64) {
	out, w, p, acc, n := k.out, k.w, k.p, k.acc, k.n
	// n < 64 and 0 < cw - n ≤ 64 throughout: the masked shift counts say so
	// to the compiler, which then needs no code for counts of 64 or more.
	i := 0
	if w <= 16 {
		cw := 4 * w
		for ; i+4 <= len(vals); i += 4 {
			v := (*[4]T)(vals[i:])
			c := uint64(v[0]) - base | (uint64(v[1])-base)<<(w&63) |
				(uint64(v[2])-base)<<(2*w&63) | (uint64(v[3])-base)<<(3*w&63)
			acc |= c << (n & 63)
			if n += cw; n >= 64 {
				binary.LittleEndian.PutUint64(out[p:], acc)
				p += 8
				n -= 64
				acc = c >> 1 >> ((cw - n - 1) & 63) // the bits of c the word had no room for
			}
		}
	}
	for _, v := range vals[i:] {
		d := uint64(v) - base
		acc |= d << (n & 63)
		if n += w; n >= 64 {
			binary.LittleEndian.PutUint64(out[p:], acc)
			p += 8
			n -= 64
			acc = d >> 1 >> ((w - n - 1) & 63)
		}
	}
	k.p, k.acc, k.n = p, acc, n
}

// zeros packs rows zero values.
func (k *packer) zeros(rows int) {
	n := k.n + uint(rows)*k.w
	if n < 64 {
		k.n = n
		return
	}
	binary.LittleEndian.PutUint64(k.out[k.p:], k.acc)
	whole := int(n/64) * 8 // the pending word and the zero words after it
	clear(k.out[k.p+8 : k.p+whole])
	k.p += whole
	k.acc, k.n = 0, n%64
}

// flush writes the pending bits: the payload ends with them.
func (k *packer) flush() {
	for acc, n := k.acc, int(k.n); n > 0; acc, n = acc>>8, n-8 {
		k.out[k.p] = byte(acc)
		k.p++
	}
	k.acc, k.n = 0, 0
}

// unpackInts decodes a packed payload of len(vi) values of w bits: vi[i] is
// base plus value i, wrapping as int64 addition does. A value whose window —
// the 8 bytes from its first, 9 past 57 bits — lies inside data takes one
// load; groups of values that fit one window together (8 of w ≤ 7 bits, 4 of
// ≤ 14, 3 of ≤ 19, 2 of ≤ 28) share it. The values at the end of data whose
// window does not fit are read a byte at a time.
func unpackInts(vi []int64, data []byte, base int64, w uint) {
	if w == 0 {
		for i := range vi {
			vi[i] = base
		}
		return
	}
	window := 8
	if w > 57 {
		window = 9
	}
	fast := 0 // values whose window lies inside data
	if len(data) >= window {
		fast = min(len(vi), (8*(len(data)-window)+7)/int(w)+1)
	}
	mask := lowMask(w)
	// Every load below is of a window that starts at or before value
	// fast-1's: inside data, so the unchecked read is in bounds.
	p := unsafe.Pointer(unsafe.SliceData(data))
	load := func(b uint) uint64 { return *(*uint64)(unsafe.Add(p, b>>3)) >> (b & 7) }
	b, i := uint(0), 0
	switch {
	case w <= 7:
		for ; i+8 <= fast; i += 8 {
			x, o := load(b), (*[8]int64)(vi[i:])
			o[0] = base + int64(x&mask)
			x >>= w
			o[1] = base + int64(x&mask)
			x >>= w
			o[2] = base + int64(x&mask)
			x >>= w
			o[3] = base + int64(x&mask)
			x >>= w
			o[4] = base + int64(x&mask)
			x >>= w
			o[5] = base + int64(x&mask)
			x >>= w
			o[6] = base + int64(x&mask)
			x >>= w
			o[7] = base + int64(x&mask)
			b += 8 * w
		}
	case w <= 14:
		for ; i+4 <= fast; i += 4 {
			x, o := load(b), (*[4]int64)(vi[i:])
			o[0] = base + int64(x&mask)
			x >>= w
			o[1] = base + int64(x&mask)
			x >>= w
			o[2] = base + int64(x&mask)
			x >>= w
			o[3] = base + int64(x&mask)
			b += 4 * w
		}
	case w <= 19:
		for ; i+3 <= fast; i += 3 {
			x, o := load(b), (*[3]int64)(vi[i:])
			o[0] = base + int64(x&mask)
			x >>= w
			o[1] = base + int64(x&mask)
			x >>= w
			o[2] = base + int64(x&mask)
			b += 3 * w
		}
	case w <= 28:
		for ; i+2 <= fast; i += 2 {
			x, o := load(b), (*[2]int64)(vi[i:])
			o[0] = base + int64(x&mask)
			x >>= w
			o[1] = base + int64(x&mask)
			b += 2 * w
		}
	case w > 57:
		for ; i < fast; i++ { // the window's ninth byte holds the top bits
			top := uint64(*(*byte)(unsafe.Add(p, b>>3+8))) << 1 << ((63 - b&7) & 63)
			vi[i] = base + int64((load(b)|top)&mask)
			b += w
		}
	}
	for ; i < fast; i++ {
		vi[i] = base + int64(load(b)&mask)
		b += w
	}
	for ; i < len(vi); i++ {
		vi[i] = base + int64(bitsAt(data, b, w))
		b += w
	}
}

// packedAt returns value i of a packed payload of w-bit values.
func packedAt(data []byte, i int, w uint) uint64 {
	b := uint(i) * w
	if j := int(b >> 3); w <= 57 && j+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[j:]) >> (b & 7) & lowMask(w)
	}
	return bitsAt(data, b, w)
}

// bitsAt returns the w bits at bit offset b of data, read a byte at a time.
func bitsAt(data []byte, b, w uint) uint64 {
	var x uint64
	for k := uint(0); k < w; {
		at := b + k
		x |= uint64(data[at>>3]>>(at&7)) << k
		k += 8 - at&7
	}
	return x & lowMask(w)
}
