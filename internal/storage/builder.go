package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/types"
)

// forWidth returns the frame-of-reference delta width in bits for an
// unsigned span: the bits of the largest delta.
func forWidth(span uint64) uint { return uint(bits.Len64(span)) }

// codeWidth returns the code width in bits for a dictionary of n entries:
// the bits of the largest code.
func codeWidth(n int) uint { return uint(bits.Len(uint(max(n, 1) - 1))) }

// uvarUB3 is the upper bound the size accounting charges for any uvarint
// whose value is at most ~2^21 (run counts, dictionary sizes and byte
// lengths all fit a page, so three bytes always cover them).
const uvarUB3 = 3

// colClass is the value class of a column's declared kind, which picks the
// column's segment encoding. A column is in classNull until the page's first
// value and in its kind's class from then on; NULLs never change the class
// (the kind runs carry them).
type colClass uint8

const (
	classNull  colClass = iota // no value yet: encInt over an empty frame
	classInt                   // int, date and bool columns: encInt
	classFloat                 // encFloat
	classStr                   // encDict
)

// classOf is the class of a column of kind k, one of the kinds a schema may
// declare (KindInt through KindBool).
func classOf(k types.Kind) colClass {
	switch k {
	case types.KindFloat:
		return classFloat
	case types.KindString:
		return classStr
	}
	return classInt
}

// colState is what a column's size bound depends on.
type colState struct {
	class      colClass
	minI, maxI int64 // frame of reference over the int-class rows (classInt)
	nruns      int   // kind runs
	ndict      int   // dictionary entries (classStr)
	dictBytes  int   // encoded size of the dictionary region (classStr)
	maxStrLen  int   // longest dictionary entry (classStr; zone-map size bound)
}

// sizeUB bounds the encoded size of the column's segment for n rows under the
// encoding encode will choose for this state. Every uvarint is charged its
// page-bounded maximum, so the exact encoding never exceeds the bound.
func (s *colState) sizeUB(n int) int {
	switch s.class {
	case classFloat:
		return 1 + runsUB(s.nruns) + n*8
	case classStr:
		return 1 + runsUB(s.nruns) + uvarUB3 + uvarUB3 + s.dictBytes + 1 + packedLen(n, codeWidth(s.ndict))
	}
	return intSegUB(n, s.nruns, uint64(s.maxI)-uint64(s.minI)) // classNull, classInt
}

// runsUB bounds a kind-run header of nruns runs.
func runsUB(nruns int) int { return uvarUB3 + nruns*(1+uvarUB3) }

// intSegUB bounds an encInt segment of n rows in nruns kind runs whose frame
// of reference spans span.
func intSegUB(n, nruns int, span uint64) int {
	return 1 + runsUB(nruns) + 8 + 1 + packedLen(n, forWidth(span))
}

// kindRun is a run of rows that are all NULL or all values.
type kindRun struct {
	null bool
	n    int
}

// colBuilder accumulates one column of the page being built: NULLs and
// values of the column's declared kind, in the slice of that kind. A NULL
// row's payload slot holds whatever its chunk held there; the kind runs say
// which rows are NULL. Its colState bounds the column's encoded size.
type colBuilder struct {
	kind types.Kind // the column's declared kind
	ints []int64    // payload by row: int, date and bool columns
	flts []float64  // payload by row: float columns
	ids  []int32    // payload by row: string columns, as the entry's index
	runs []kindRun

	// A string column's dictionary: its distinct strings in the order they
	// came, and each one's index there. Codes, the entries' ranks in string
	// order, are assigned at encode.
	entries []string
	dict    map[string]int32

	colState
	next colState  // the state with the block being admitted
	bids [64]int32 // the block's ids (string columns)
}

func (c *colBuilder) reset() {
	clear(c.entries)
	clear(c.dict)
	*c = colBuilder{kind: c.kind, ints: c.ints[:0], flts: c.flts[:0], ids: c.ids[:0],
		runs: c.runs[:0], entries: c.entries[:0], dict: c.dict}
}

// lastNull reports whether the column's last row is NULL.
func (c *colBuilder) lastNull() bool { return c.runs[len(c.runs)-1].null }

// fold stages in c.next the column's state with rows [s, e) of cc appended,
// a block within one word of cc's NULL mask. A string the dictionary lacks
// is entered at once, past the c.ndict entries of the admitted rows, for
// unstage to take out again if the block is refused; the block's ids go to
// c.bids.
func (c *colBuilder) fold(cc *chunkCol, s, e int) {
	st := c.colState
	k := e - s
	w := cc.nullBits(s, e)
	if st.nruns == 0 || (w&1 != 0) != c.lastNull() {
		st.nruns++
	}
	st.nruns += bits.OnesCount64((w ^ w>>1) & lowBits(k-1)) // kind changes within the block
	if w == lowBits(k) {
		// NULL only: class and frame unchanged
		c.next = st
		return
	}
	if st.class == classNull { // the page's first value
		st.class = classOf(c.kind)
		if st.class == classInt {
			v := cc.ints[s+firstNonNull(w, k)]
			st.minI, st.maxI = v, v
		}
	}
	switch st.class {
	case classInt:
		lo, hi := st.minI, st.maxI
		if w == 0 {
			for _, v := range cc.ints[s:e] {
				lo, hi = min(lo, v), max(hi, v)
			}
		} else {
			for j, v := range cc.ints[s:e] {
				if w>>j&1 == 0 {
					lo, hi = min(lo, v), max(hi, v)
				}
			}
		}
		st.minI, st.maxI = lo, hi
	case classStr:
		if c.dict == nil {
			c.dict = make(map[string]int32)
		}
		last, id := "", int32(-1) // the last value looked up and its id
		for j, v := range cc.strs[s:e] {
			if w>>j&1 != 0 { // a NULL row's id is never read
				continue
			}
			if id >= 0 && v == last {
				c.bids[j] = id
				continue
			}
			var ok bool
			if id, ok = c.dict[v]; !ok {
				id = int32(len(c.entries))
				c.dict[v] = id
				c.entries = append(c.entries, v)
				st.ndict++
				st.dictBytes += uvarintSize(uint64(len(v))) + len(v)
				st.maxStrLen = max(st.maxStrLen, len(v))
			}
			last, c.bids[j] = v, id
		}
	}
	c.next = st
}

// unstage takes out the dictionary entries fold entered for a refused block.
func (c *colBuilder) unstage() {
	if c.kind != types.KindString {
		return
	}
	for _, v := range c.entries[c.ndict:] {
		delete(c.dict, v)
	}
	clear(c.entries[c.ndict:])
	c.entries = c.entries[:c.ndict]
}

// commit applies the state fold staged and copies rows [s, e) of cc in.
func (c *colBuilder) commit(cc *chunkCol, s, e int) {
	c.colState = c.next
	switch c.kind {
	case types.KindFloat:
		c.flts = append(c.flts, cc.flts[s:e]...)
	case types.KindString:
		c.ids = append(c.ids, c.bids[:e-s]...)
	default:
		c.ints = append(c.ints, cc.ints[s:e]...)
	}
	k := e - s
	w := cc.nullBits(s, e)
	for j := 0; j < k; {
		x := w >> j
		null := x&1 != 0
		if null {
			x = ^x
		}
		n := min(bits.TrailingZeros64(x), k-j) // rows of j's kind from j on
		if len(c.runs) > 0 && c.lastNull() == null {
			c.runs[len(c.runs)-1].n += n
		} else {
			c.runs = append(c.runs, kindRun{null: null, n: n})
		}
		j += n
	}
}

// appendKindRuns encodes the column's kind/null run header.
func (c *colBuilder) appendKindRuns(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(c.runs)))
	for _, r := range c.runs {
		k := c.kind
		if r.null {
			k = types.KindNull
		}
		buf = append(buf, byte(k))
		buf = binary.AppendUvarint(buf, uint64(r.n))
	}
	return buf
}

// packRows appends the rows rows of column c packed at w bits a row:
// vals[i] - base for a value row i, 0 for a NULL one. A run is packed at a
// time.
func packRows[T int32 | int64](c *colBuilder, buf []byte, rows int, w uint, vals []T, base uint64) []byte {
	if w == 0 {
		return buf
	}
	start, n := len(buf), packedLen(rows, w)
	buf = slices.Grow(buf, n)[:start+n]
	pk := packer{out: buf[start:], w: w}
	row := 0
	for _, r := range c.runs {
		if r.null {
			pk.zeros(r.n)
		} else {
			packDeltas(&pk, vals[row:row+r.n], base)
		}
		row += r.n
	}
	pk.flush()
	return buf
}

// encode appends the column's chosen segment encoding for its rows rows.
func (c *colBuilder) encode(buf []byte, rows int) []byte {
	switch c.class {
	case classNull, classInt:
		buf = append(buf, encInt)
		buf = c.appendKindRuns(buf)
		w := forWidth(uint64(c.maxI) - uint64(c.minI))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.minI))
		buf = append(buf, byte(w))
		return packRows(c, buf, rows, w, c.ints, uint64(c.minI))
	case classFloat:
		buf = append(buf, encFloat)
		buf = c.appendKindRuns(buf)
		start := len(buf)
		buf = slices.Grow(buf, 8*rows)[:start+8*rows]
		out, row := buf[start:], 0
		for _, r := range c.runs {
			if r.null {
				clear(out[8*row : 8*(row+r.n)])
			} else {
				for i, v := range c.flts[row : row+r.n] {
					binary.LittleEndian.PutUint64(out[8*(row+i):], math.Float64bits(v))
				}
			}
			row += r.n
		}
		return buf
	default: // classStr
		buf = append(buf, encDict)
		buf = c.appendKindRuns(buf)
		// order lists the entry ids in string order, so code[id] is the rank.
		order := make([]int32, len(c.entries))
		for id := range order {
			order[id] = int32(id)
		}
		slices.SortFunc(order, func(a, b int32) int { return strings.Compare(c.entries[a], c.entries[b]) })
		code := make([]uint16, len(order))
		buf = binary.AppendUvarint(buf, uint64(c.dictBytes))
		buf = binary.AppendUvarint(buf, uint64(len(order)))
		for rank, id := range order {
			code[id] = uint16(rank)
			buf = binary.AppendUvarint(buf, uint64(len(c.entries[id])))
			buf = append(buf, c.entries[id]...)
		}
		w := codeWidth(len(order))
		buf = append(buf, byte(w))
		// Each row's id becomes its code, in place: the page is done with
		// the ids. A NULL row's id is never read.
		row := 0
		for _, r := range c.runs {
			if !r.null {
				for i, id := range c.ids[row : row+r.n] {
					c.ids[row+i] = int32(code[id])
				}
			}
			row += r.n
		}
		return packRows(c, buf, rows, w, c.ids, 0)
	}
}

// pageBuilder accumulates rows column-wise and packs them into a
// column-major page. A row is admitted while the sum of the columns' size
// bounds with it staged fits PageSize, so finish() always fits.
type pageBuilder struct {
	cols []colBuilder
	rows int
}

// newPageBuilder returns a builder of pages whose columns are of the given
// kinds, each one a schema may declare.
func newPageBuilder(kinds []types.Kind) *pageBuilder {
	b := &pageBuilder{cols: make([]colBuilder, len(kinds))}
	for i, k := range kinds {
		b.cols[i].kind = k
	}
	return b
}

// admitChunk admits rows [s, e) of ch, a chunk of the builder's columns, in
// order while they fit, and returns the end of the rows admitted: e, or the
// first row the page has no room for. Its cut is the greedy one — a row is
// admitted while the sum of the columns' bounds with it staged fits PageSize
// and the page holds fewer than maxPageRows rows — but it is found a block
// of up to 64 rows (one word of the NULL masks) at a time: each column folds
// the block into its state, the bounds are summed once, and the block's
// payload is copied in. The bound grows with every row except at a column's
// first value on the page, where classNull gives way to the kind's class and
// the bound may shrink. So a block is cut before any row holding a first
// value, which is admitted alone; then a block that fits has every row
// fitting, and only a block that overflows is walked row by row for the cut.
func (b *pageBuilder) admitChunk(ch *chunk, s, e int) int {
	for s < e {
		end := min(e, (s|63)+1, s+maxPageRows-b.rows)
		if end <= s {
			return s // the page holds maxPageRows rows
		}
		if t := b.firstValue(ch, s, end); t == s {
			end = s + 1
		} else {
			end = t
		}
		if !b.try(ch, s, end) {
			// The walk: the block's last row needs no try, since the block
			// with every row before it fitting does not fit with it.
			for end-s > 1 && b.try(ch, s, s+1) {
				s++
			}
			return s
		}
		s = end
	}
	return s
}

// firstValue returns the first row of [s, e), a block within one word of
// the NULL masks, that holds a column's first value on the page, or e.
func (b *pageBuilder) firstValue(ch *chunk, s, e int) int {
	for i := range b.cols {
		if b.cols[i].class == classNull {
			e = s + firstNonNull(ch.cols[i].nullBits(s, e), e-s)
		}
	}
	return e
}

// try admits rows [s, e) of ch if the page's bound with all of them staged
// fits PageSize, and reports whether it did; a refused block leaves the page
// as it was.
func (b *pageBuilder) try(ch *chunk, s, e int) bool {
	n := b.rows + e - s
	total := pageFixedHeader + 4*len(b.cols)
	for i := range b.cols {
		c := &b.cols[i]
		c.fold(&ch.cols[i], s, e)
		total += c.next.sizeUB(n) + c.next.zoneUB()
		if total > PageSize {
			for j := range b.cols[:i+1] {
				b.cols[j].unstage()
			}
			return false
		}
	}
	for i := range b.cols {
		b.cols[i].commit(&ch.cols[i], s, e)
	}
	b.rows = n
	return true
}

// finish encodes the staged columns into page, PageSize bytes of which it
// writes every one, resets the builder and returns the encoded length: the
// rest of the page is zeros.
func (b *pageBuilder) finish(page []byte) int {
	ncols := len(b.cols)
	buf := page[:0:PageSize]
	buf = binary.LittleEndian.AppendUint16(buf, pageMagic)
	buf = append(buf, pageFormat)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(b.rows))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(ncols))
	dirOff := len(buf)
	for i := 0; i < ncols; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, 0)
	}
	for i := range b.cols {
		buf = appendZone(buf, b.cols[i].zone())
	}
	for i := range b.cols {
		binary.LittleEndian.PutUint32(buf[dirOff+4*i:], uint32(len(buf)))
		buf = b.cols[i].encode(buf, b.rows)
	}
	if len(buf) > PageSize {
		panic(fmt.Sprintf("storage: page overflow (%d bytes, %d rows) — size accounting bug", len(buf), b.rows))
	}
	clear(page[len(buf):PageSize])
	for i := range b.cols {
		b.cols[i].reset()
	}
	b.rows = 0
	return len(buf)
}

func (b *pageBuilder) empty() bool { return b.rows == 0 }

// zone derives the column's zone map from the builder's incremental state:
// the string bounds from a linear scan over the distinct entries.
func (c *colBuilder) zone() ZoneMap {
	var z ZoneMap
	switch c.class {
	case classInt:
		z.Flags = ZoneInt
		z.MinI, z.MaxI = c.minI, c.maxI
	case classStr:
		z.MinS, z.MaxS = c.entries[0], c.entries[0]
		for _, s := range c.entries[1:] {
			z.MinS, z.MaxS = min(z.MinS, s), max(z.MaxS, s)
		}
		z.Flags = ZoneStr
	case classNull:
		if len(c.runs) > 0 {
			z.Flags = ZoneNullOnly
		}
	}
	return z
}

// appendZone appends the on-page encoding of one zone entry.
func appendZone(buf []byte, z ZoneMap) []byte {
	buf = append(buf, z.Flags)
	if z.Flags&ZoneInt != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MinI))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MaxI))
	}
	if z.Flags&ZoneStr != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(z.MinS)))
		buf = append(buf, z.MinS...)
		buf = binary.AppendUvarint(buf, uint64(len(z.MaxS)))
		buf = append(buf, z.MaxS...)
	}
	return buf
}

// intZoneUB is the size of an int-class zone entry: flags, min and max.
const intZoneUB = 1 + 16

// zoneUB bounds the on-page size of the column's zone entry for the size
// accounting: the flags byte, the int bounds while the column may take them,
// and two length-prefixed strings no longer than the longest dictionary entry
// while it may take those.
func (s *colState) zoneUB() int {
	switch s.class {
	case classNull:
		return intZoneUB + 2*uvarUB3
	case classInt:
		return intZoneUB
	case classStr:
		return 1 + 2*(uvarUB3+s.maxStrLen)
	}
	return 1
}
