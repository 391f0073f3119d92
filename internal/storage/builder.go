package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/types"
)

// forWidth returns the frame-of-reference delta width for an unsigned span.
func forWidth(span uint64) int {
	switch {
	case span == 0:
		return 0
	case span <= 0xFF:
		return 1
	case span <= 0xFFFF:
		return 2
	case span <= 0xFFFFFFFF:
		return 4
	default:
		return 8
	}
}

// dictCodeWidth returns the per-row code width for a dictionary of n entries.
func dictCodeWidth(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 1<<8:
		return 1
	default:
		return 2
	}
}

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
		return 1 + runsUB(s.nruns) + uvarUB3 + uvarUB3 + s.dictBytes + 1 + n*dictCodeWidth(s.ndict)
	}
	return intSegUB(n, s.nruns, uint64(s.maxI)-uint64(s.minI)) // classNull, classInt
}

// runsUB bounds a kind-run header of nruns runs.
func runsUB(nruns int) int { return uvarUB3 + nruns*(1+uvarUB3) }

// intSegUB bounds an encInt segment of n rows in nruns kind runs whose frame
// of reference spans span.
func intSegUB(n, nruns int, span uint64) int {
	return 1 + runsUB(nruns) + 8 + 1 + n*forWidth(span)
}

// colBuilder accumulates one column of the page being built: NULLs and
// values of the column's declared kind, nothing else. Its colState bounds the
// column's encoded size after every row; admitting a row stages the state
// with the row in next and commit applies it, so a row that does not fit is
// refused with nothing to roll back. The settled int datum (settledInt) skips
// both: tryAppend stages its frame and stores it.
type colBuilder struct {
	kind  types.Kind // the column's declared kind
	kinds []types.Kind
	vals  []uint64         // int payload or float bits by row, up to the last such row
	strs  []string         // string by row, up to the last string row (nil until one)
	dict  map[string]int32 // distinct strings (codes assigned at encode)

	colState
	lastKind types.Kind // kind of the last staged row

	next    colState // the state with the row being admitted
	general bool     // next differs from colState beyond the frame and the runs
}

func (c *colBuilder) reset() {
	clear(c.strs)
	clear(c.dict)
	*c = colBuilder{kind: c.kind, kinds: c.kinds[:0], vals: c.vals[:0], strs: c.strs[:0], dict: c.dict}
}

// stage returns the column's bound — segment and zone entry — with d, a NULL
// or a value of the column's kind, staged as row n, and stages the state
// commit applies. The common datum, a NULL or a value that adds no dictionary
// entry, reads and stages only the frame of reference and the run count; the
// page's first value and dictionary growth take stageGeneral. The settled int
// datum never gets here (tryAppend admits it inline), so a refused row may
// leave general set past admitted ones: the next stage resets next from
// colState before staging into it.
func (c *colBuilder) stage(d *types.Datum, n int) int {
	nruns := c.nruns
	if nruns == 0 || d.K != c.lastKind {
		nruns++
	}
	lo, hi := c.minI, c.maxI
	if d.K != types.KindNull {
		switch c.class {
		case classNull:
			return c.stageGeneral(d, n, nruns)
		case classInt:
			lo, hi = min(lo, d.I), max(hi, d.I)
		case classStr:
			if _, ok := c.dict[d.S]; !ok {
				return c.stageGeneral(d, n, nruns)
			}
		}
	}
	if c.general { // a refused row staged more than the frame and the runs
		c.next, c.general = c.colState, false
	}
	c.next.minI, c.next.maxI, c.next.nruns = lo, hi, nruns
	return c.next.sizeUB(n) + c.next.zoneUB()
}

// stageGeneral is stage for the value that changes more than the frame and
// the run count: the page's first value, or a string the dictionary lacks
// (every string is, on a page without one yet).
func (c *colBuilder) stageGeneral(d *types.Datum, n, nruns int) int {
	s := c.colState
	s.nruns = nruns
	if s.class == classNull {
		s.class = classOf(c.kind)
	}
	switch s.class {
	case classInt: // the first value: a frame of one
		s.minI, s.maxI = d.I, d.I
	case classStr:
		s.ndict++
		s.dictBytes += uvarintSize(uint64(len(d.S))) + len(d.S)
		s.maxStrLen = max(s.maxStrLen, len(d.S))
	}
	c.next, c.general = s, true
	return s.sizeUB(n) + s.zoneUB()
}

// commit applies the state stage staged for d and stores d.
func (c *colBuilder) commit(d *types.Datum) {
	if c.general {
		if c.next.ndict != c.ndict {
			if c.dict == nil {
				c.dict = make(map[string]int32)
			}
			c.dict[d.S] = 0
		}
		c.colState, c.general = c.next, false
	} else {
		c.minI, c.maxI, c.nruns = c.next.minI, c.next.maxI, c.next.nruns
	}
	row := len(c.kinds)
	c.kinds = append(c.kinds, d.K)
	c.lastKind = d.K
	switch d.K {
	case types.KindInt, types.KindDate, types.KindBool:
		c.vals = appendAt(c.vals, row, uint64(d.I))
	case types.KindFloat:
		c.vals = appendAt(c.vals, row, math.Float64bits(d.F))
	case types.KindString:
		c.strs = appendAt(c.strs, row, d.S)
	}
}

// appendAt appends v to s as element i, zero-filling the elements before it
// that s does not cover yet.
func appendAt[T any](s []T, i int, v T) []T {
	if len(s) < i {
		s = append(s, make([]T, i-len(s))...)
	}
	return append(s, v)
}

// appendKindRuns encodes the column's kind/null run header.
func (c *colBuilder) appendKindRuns(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.nruns))
	if c.nruns == 1 { // a homogeneous column
		buf = append(buf, byte(c.lastKind))
		return binary.AppendUvarint(buf, uint64(len(c.kinds)))
	}
	kinds := c.kinds
	for i := 0; i < len(kinds); {
		j := i + 1
		for j < len(kinds) && kinds[j] == kinds[i] {
			j++
		}
		buf = append(buf, byte(kinds[i]))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		i = j
	}
	return buf
}

// appendWords appends one little-endian word of width bytes per row: the
// row's payload minus base, or 0 for a row whose kind is not in the set.
func (c *colBuilder) appendWords(buf []byte, set uint8, base uint64, width int) []byte {
	if width == 0 {
		return buf
	}
	start := len(buf)
	buf = slices.Grow(buf, len(c.kinds)*width)[:start+len(c.kinds)*width]
	out := buf[start:]
	if c.nruns == 1 && set&(1<<c.lastKind) != 0 { // every row has a payload
		vals := c.vals[:len(c.kinds)]
		switch width {
		case 1:
			for i, v := range vals {
				out[i] = byte(v - base)
			}
		case 2:
			for i, v := range vals {
				binary.LittleEndian.PutUint16(out[2*i:], uint16(v-base))
			}
		case 4:
			for i, v := range vals {
				binary.LittleEndian.PutUint32(out[4*i:], uint32(v-base))
			}
		default:
			for i, v := range vals {
				binary.LittleEndian.PutUint64(out[8*i:], v-base)
			}
		}
		return buf
	}
	for i, k := range c.kinds {
		var w uint64
		if set&(1<<k) != 0 {
			w = c.vals[i] - base
		}
		switch width {
		case 1:
			out[i] = byte(w)
		case 2:
			binary.LittleEndian.PutUint16(out[2*i:], uint16(w))
		case 4:
			binary.LittleEndian.PutUint32(out[4*i:], uint32(w))
		default:
			binary.LittleEndian.PutUint64(out[8*i:], w)
		}
	}
	return buf
}

// encode appends the column's chosen segment encoding.
func (c *colBuilder) encode(buf []byte) []byte {
	switch c.class {
	case classNull, classInt:
		buf = append(buf, encInt)
		buf = c.appendKindRuns(buf)
		width := forWidth(uint64(c.maxI) - uint64(c.minI))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.minI))
		buf = append(buf, byte(width))
		return c.appendWords(buf, kindsInt&^(1<<types.KindNull), uint64(c.minI), width)
	case classFloat:
		buf = append(buf, encFloat)
		buf = c.appendKindRuns(buf)
		return c.appendWords(buf, 1<<types.KindFloat, 0, 8)
	default: // classStr
		buf = append(buf, encDict)
		buf = c.appendKindRuns(buf)
		entries := make([]string, 0, len(c.dict))
		for s := range c.dict {
			entries = append(entries, s)
		}
		sort.Strings(entries)
		for code, s := range entries {
			c.dict[s] = int32(code)
		}
		buf = binary.AppendUvarint(buf, uint64(c.dictBytes))
		buf = binary.AppendUvarint(buf, uint64(len(entries)))
		for _, s := range entries {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		width := dictCodeWidth(len(entries))
		buf = append(buf, byte(width))
		for i, k := range c.kinds {
			var code int32
			if k == types.KindString {
				code = c.dict[c.strs[i]]
			}
			switch width {
			case 0:
			case 1:
				buf = append(buf, byte(code))
			default:
				buf = binary.LittleEndian.AppendUint16(buf, uint16(code))
			}
		}
		return buf
	}
}

// settledInt reports whether d is the builder's most common datum: a value of
// the kind of the last row of a settled int-class column. It adds no kind run
// and moves only the frame of reference, so tryAppend admits it inline.
func (c *colBuilder) settledInt(d *types.Datum) bool {
	return c.class == classInt && d.K == c.lastKind && d.K != types.KindNull
}

// pageBuilder accumulates rows column-wise and packs them into a
// column-major page. A row is admitted while the sum of the columns' size
// bounds with it staged fits PageSize, so finish() always fits.
type pageBuilder struct {
	cols   []colBuilder
	frames []frame // the row being admitted: each settled int column's frame
	rows   int
	buf    []byte // encode scratch, reused across pages
}

// frame is a column's frame of reference with one datum staged.
type frame struct{ lo, hi int64 }

// newPageBuilder returns a builder of pages whose columns are of the given
// kinds, each one a schema may declare.
func newPageBuilder(kinds []types.Kind) *pageBuilder {
	b := &pageBuilder{
		cols:   make([]colBuilder, len(kinds)),
		frames: make([]frame, len(kinds)),
		buf:    make([]byte, 0, PageSize),
	}
	for i, k := range kinds {
		b.cols[i].kind = k
	}
	return b
}

// tryAppend stages r, a row of the builder's width, into the page and
// reports whether it did. It refuses r, leaving the page unchanged, when the
// encoded page would overflow PageSize (bad is -1) or when r[bad] is neither
// NULL nor of its column's kind. A settled int datum stages only its frame,
// in b.frames, and is stored here when the row fits; every other datum goes
// through stage and commit.
func (b *pageBuilder) tryAppend(r types.Row) (ok bool, bad int) {
	if b.rows >= maxPageRows {
		return false, -1
	}
	cols, frames := b.cols[:len(r)], b.frames[:len(r)]
	total := pageFixedHeader + 4*len(r)
	n := b.rows + 1
	for i := range r {
		c, d := &cols[i], &r[i]
		switch {
		case c.settledInt(d): // of the last row's kind, so of the column's
			lo, hi := min(c.minI, d.I), max(c.maxI, d.I)
			frames[i] = frame{lo, hi}
			total += intSegUB(n, c.nruns, uint64(hi)-uint64(lo)) + intZoneUB
		case d.K != c.kind && d.K != types.KindNull:
			return false, i
		default:
			total += c.stage(d, n)
		}
		if total > PageSize {
			return false, -1
		}
	}
	for i := range r {
		c, d := &cols[i], &r[i]
		if c.settledInt(d) {
			c.minI, c.maxI = frames[i].lo, frames[i].hi
			c.kinds = append(c.kinds, d.K)
			c.vals = append(c.vals, uint64(d.I)) // the last row had a payload too
		} else {
			c.commit(d)
		}
	}
	b.rows++
	return true, -1
}

// finish encodes the staged columns into a PageSize page and resets the
// builder. The page is the builder's scratch: it is the caller's until the
// next finish (every Disk.WritePage copies what it is given).
func (b *pageBuilder) finish() []byte {
	ncols := len(b.cols)
	buf := b.buf[:0]
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
		buf = b.cols[i].encode(buf)
	}
	if len(buf) > PageSize {
		panic(fmt.Sprintf("storage: page overflow (%d bytes, %d rows) — size accounting bug", len(buf), b.rows))
	}
	page := buf[:PageSize]
	clear(page[len(buf):]) // what a longer page left behind
	b.buf = buf
	for i := range b.cols {
		b.cols[i].reset()
	}
	b.rows = 0
	return page
}

func (b *pageBuilder) empty() bool { return b.rows == 0 }

// zone derives the column's zone map from the builder's incremental state.
// Called before encode(), so the dictionary codes are not assigned yet; the
// string bounds come from a linear scan over the distinct entries.
func (c *colBuilder) zone() ZoneMap {
	var z ZoneMap
	switch c.class {
	case classInt:
		z.Flags = ZoneInt
		z.MinI, z.MaxI = c.minI, c.maxI
	case classStr:
		first := true
		for s := range c.dict {
			if first {
				z.MinS, z.MaxS = s, s
				first = false
				continue
			}
			if s < z.MinS {
				z.MinS = s
			}
			if s > z.MaxS {
				z.MaxS = s
			}
		}
		z.Flags = ZoneStr
	case classNull:
		if len(c.kinds) > 0 {
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
