// Package storage is the Shore-MT substitute: a page-based storage manager
// with heap files, a pinning buffer pool with clock eviction, pluggable disks
// (an in-memory disk with a latency/bandwidth model for repeatable
// experiments, and a real-file disk), and circular shared scans — the
// storage-layer sharing primitive both QPipe and CJOIN rely on.
//
// Buffer memory — the in-memory disk's pages, the pool's frame buffers and
// the fixed-width columns decoded from them — is pages of internal/arena, each
// with one owner that takes it and frees it: MemDisk (WritePage, Close), a
// Frame (first load, BufferPool.Close) and the pageSource of an opened page
// (decode, the batch's last Release). A frame buffer changes owner, without a
// copy, when its frame is evicted or its pool closed while readers still hold
// the page's batch with columns undecoded; that is what lets a batch outlive
// both.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/types"
	"repro/internal/vec"
)

// PageSize is the size of every on-disk page in bytes: one page of the arena
// that the device, the pool's frames and the decoded columns take theirs from.
const PageSize = arena.PageSize

// Pages are column-major. Every page starts with the page magic and a format
// byte; a page whose header does not carry exactly these is corrupt and never
// decodes:
//
//	[0:2]  0xFFFF page magic
//	[2]    format byte (3)
//	[3:5]  uint16 row count
//	[5:7]  uint16 column count
//	[7:..] column count × uint32 segment offsets (from the page start)
//	then one zone-map entry per column (see zonemap.go), then one
//	self-contained segment per column, zero-padded to PageSize.
//
// Each segment starts with an encoding tag:
//
//	encRaw:   the raw datum stream — per-datum kind tag + payload — the
//	          fallback for columns mixing value classes.
//	encInt:   kind runs, int64 min, delta width ∈ {0,1,2,4,8}, then one
//	          little-endian unsigned delta of that width per row
//	          (frame-of-reference; NULL rows store delta 0). Covers int,
//	          date and bool rows — anything carried in the int64 payload.
//	encFloat: kind runs, then one 8-byte little-endian float word per row.
//	encDict:  kind runs, dictionary byte length, entry count, the sorted
//	          duplicate-free dictionary (uvarint length + bytes per entry),
//	          code width ∈ {0,1,2}, then one little-endian code per row.
//	          Codes index the sorted dictionary, so code order is string
//	          order and predicates can compare codes instead of strings.
//
// Kind runs are the per-column null/kind header: a uvarint run count
// followed by (kind byte, uvarint length) pairs covering every row. A
// homogeneous column — the overwhelmingly common case — is one run.
const (
	pageMagic  = 0xFFFF
	pageFormat = 3

	// pageFixedHeader is magic (2) + format (1) + nrows (2) + ncols (2).
	pageFixedHeader = 7

	// maxPageRows is the largest row count a page may carry.
	maxPageRows = 0xFFFE
)

// Column segment encodings.
const (
	encRaw byte = iota
	encInt
	encFloat
	encDict
)

// appendDatum appends the raw encoding of one datum: a kind tag byte, then a
// kind-specific payload (varint for int/date, 8-byte LE for float, 1 byte
// for bool, uvarint length + bytes for string, nothing for NULL).
func appendDatum(buf []byte, d types.Datum) []byte {
	buf = append(buf, byte(d.K))
	switch d.K {
	case types.KindNull:
	case types.KindInt, types.KindDate:
		buf = binary.AppendVarint(buf, d.I)
	case types.KindBool:
		if d.I != 0 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case types.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.F))
	case types.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(d.S)))
		buf = append(buf, d.S...)
	default:
		panic(fmt.Sprintf("storage: cannot encode kind %v", d.K))
	}
	return buf
}

// datumEncSize returns len(appendDatum(nil, d)) without encoding.
func datumEncSize(d types.Datum) int {
	switch d.K {
	case types.KindNull:
		return 1
	case types.KindInt, types.KindDate:
		return 1 + varintSize(d.I)
	case types.KindBool:
		return 2
	case types.KindFloat:
		return 9
	case types.KindString:
		return 1 + uvarintSize(uint64(len(d.S))) + len(d.S)
	default:
		panic(fmt.Sprintf("storage: cannot encode kind %v", d.K))
	}
}

// uvarintSize is the encoded length of v as a uvarint.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintSize is the encoded length of v as a zigzag varint.
func varintSize(v int64) int {
	return uvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}

// decodeDatum decodes one datum from data, returning it and the remaining
// bytes.
func decodeDatum(data []byte) (types.Datum, []byte, error) {
	if len(data) == 0 {
		return types.Null, nil, fmt.Errorf("truncated datum")
	}
	k := types.Kind(data[0])
	data = data[1:]
	switch k {
	case types.KindNull:
		return types.Null, data, nil
	case types.KindInt, types.KindDate:
		v, n := binary.Varint(data)
		if n <= 0 {
			return types.Null, nil, fmt.Errorf("bad varint")
		}
		return types.Datum{K: k, I: v}, data[n:], nil
	case types.KindBool:
		if len(data) < 1 {
			return types.Null, nil, fmt.Errorf("truncated bool")
		}
		return types.NewBool(data[0] != 0), data[1:], nil
	case types.KindFloat:
		if len(data) < 8 {
			return types.Null, nil, fmt.Errorf("truncated float")
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data))), data[8:], nil
	case types.KindString:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return types.Null, nil, fmt.Errorf("truncated string")
		}
		return types.NewString(string(data[n : n+int(l)])), data[n+int(l):], nil
	default:
		return types.Null, nil, fmt.Errorf("unknown kind tag %d", k)
	}
}

// ---------------------------------------------------------------------------
// Page builder

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

// colClass is the value class every non-NULL row of a column belongs to,
// which picks the column's segment encoding. A column starts in classNull and
// takes the class of its first value; a value of any other class makes it
// classRaw for the rest of the page. NULLs never change the class (the kind
// runs carry them).
type colClass uint8

const (
	classNull  colClass = iota // no value yet: encInt over an empty frame
	classInt                   // int, date and bool rows: encInt
	classFloat                 // encFloat
	classStr                   // encDict
	classRaw                   // mixed value classes: encRaw
)

// classOf is the class of a datum of kind k (classNull for NULL).
func classOf(k types.Kind) colClass {
	switch k {
	case types.KindNull:
		return classNull
	case types.KindInt, types.KindDate, types.KindBool:
		return classInt
	case types.KindFloat:
		return classFloat
	case types.KindString:
		return classStr
	}
	panic(fmt.Sprintf("storage: cannot encode kind %v", k))
}

// colState is what a column's size bound depends on.
type colState struct {
	class      colClass
	minI, maxI int64 // frame of reference over the int-class rows (classInt)
	nruns      int   // kind runs
	ndict      int   // dictionary entries (classStr)
	dictBytes  int   // encoded size of the dictionary region (classStr)
	maxStrLen  int   // longest dictionary entry (classStr; zone-map size bound)
	rawBytes   int   // raw datum-stream size of every row (classRaw)
}

// sizeUB bounds the encoded size of the column's segment for n rows under the
// encoding encode will choose for this state. Every uvarint is charged its
// page-bounded maximum, so the exact encoding never exceeds the bound.
func (s *colState) sizeUB(n int) int {
	switch s.class {
	case classNull, classInt:
		return intSegUB(n, s.nruns, uint64(s.maxI)-uint64(s.minI))
	case classFloat:
		return 1 + runsUB(s.nruns) + n*8
	case classStr:
		return 1 + runsUB(s.nruns) + uvarUB3 + uvarUB3 + s.dictBytes + 1 + n*dictCodeWidth(s.ndict)
	}
	return 1 + s.rawBytes
}

// runsUB bounds a kind-run header of nruns runs.
func runsUB(nruns int) int { return uvarUB3 + nruns*(1+uvarUB3) }

// intSegUB bounds an encInt segment of n rows in nruns kind runs whose frame
// of reference spans span.
func intSegUB(n, nruns int, span uint64) int {
	return 1 + runsUB(nruns) + 8 + 1 + n*forWidth(span)
}

// colBuilder accumulates one column of the page being built. Its colState
// bounds the column's encoded size after every row; admitting a row stages
// the state with the row in next and commit applies it, so a row that does
// not fit is refused with nothing to roll back. The settled int datum
// (settledInt) skips both: tryAppend stages its frame and stores it.
type colBuilder struct {
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
	*c = colBuilder{kinds: c.kinds[:0], vals: c.vals[:0], strs: c.strs[:0], dict: c.dict}
}

// stage returns the column's bound — segment and zone entry — with d staged
// as row n, and stages the state commit applies. The common datum, a value of
// the column's settled class or a NULL that adds no dictionary entry, reads
// and stages only the frame of reference and the run count; the first value,
// a class change, dictionary growth and a raw column take stageGeneral. The
// settled int datum never gets here (tryAppend admits it inline), so a
// refused row may leave general set past admitted ones: the next stage
// resets next from colState before staging into it.
func (c *colBuilder) stage(d *types.Datum, n int) int {
	nruns := c.nruns
	if nruns == 0 || d.K != c.lastKind {
		nruns++
	}
	lo, hi := c.minI, c.maxI
	switch c.class {
	case classInt:
		if kindsInt&(1<<d.K) == 0 {
			return c.stageGeneral(d, n, nruns)
		}
		if d.K != types.KindNull {
			lo, hi = min(lo, d.I), max(hi, d.I)
		}
	case classFloat:
		if kindsFloat&(1<<d.K) == 0 {
			return c.stageGeneral(d, n, nruns)
		}
	case classStr:
		if d.K == types.KindString {
			if _, ok := c.dict[d.S]; !ok {
				return c.stageGeneral(d, n, nruns)
			}
		} else if d.K != types.KindNull {
			return c.stageGeneral(d, n, nruns)
		}
	default:
		return c.stageGeneral(d, n, nruns)
	}
	if c.general { // a refused row staged more than the frame and the runs
		c.next, c.general = c.colState, false
	}
	c.next.minI, c.next.maxI, c.next.nruns = lo, hi, nruns
	return c.next.sizeUB(n) + c.next.zoneUB()
}

// stageGeneral is stage for the datum that changes more than the frame and
// the run count.
func (c *colBuilder) stageGeneral(d *types.Datum, n, nruns int) int {
	s := c.colState
	s.nruns = nruns
	switch dc := classOf(d.K); {
	case dc == classNull:
	case s.class == classNull || s.class == dc: // a first value or a new string
		switch dc {
		case classInt:
			s.minI, s.maxI = d.I, d.I
		case classStr:
			if _, ok := c.dict[d.S]; !ok {
				s.ndict++
				s.dictBytes += uvarintSize(uint64(len(d.S))) + len(d.S)
				s.maxStrLen = max(s.maxStrLen, len(d.S))
			}
		}
		s.class = dc
	default:
		s.class = classRaw
	}
	if s.class == classRaw {
		if c.class != classRaw {
			s.rawBytes = c.rawSize() // the fallback: size what is staged
		}
		s.rawBytes += datumEncSize(*d)
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

// datum rebuilds staged row i.
func (c *colBuilder) datum(i int) types.Datum {
	switch k := c.kinds[i]; k {
	case types.KindInt, types.KindDate, types.KindBool:
		return types.Datum{K: k, I: int64(c.vals[i])}
	case types.KindFloat:
		return types.Datum{K: k, F: math.Float64frombits(c.vals[i])}
	case types.KindString:
		return types.Datum{K: k, S: c.strs[i]}
	}
	return types.Null
}

// rawSize is the raw datum-stream size of the staged rows.
func (c *colBuilder) rawSize() int {
	n := 0
	for i := range c.kinds {
		n += datumEncSize(c.datum(i))
	}
	return n
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
	case classStr:
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
	default:
		buf = append(buf, encRaw)
		for i := range c.kinds {
			buf = appendDatum(buf, c.datum(i))
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

func newPageBuilder() *pageBuilder {
	return &pageBuilder{buf: make([]byte, 0, PageSize)}
}

// tryAppend stages r into the page; it returns false (leaving the page
// unchanged) if the encoded page would overflow PageSize. A settled int datum
// stages only its frame, in b.frames, and is stored here when the row fits;
// every other datum goes through stage and commit.
func (b *pageBuilder) tryAppend(r types.Row) bool {
	if b.rows >= maxPageRows {
		return false
	}
	if len(b.cols) < len(r) {
		// First row of a page fixes the width (heap files are
		// schema-checked, so every row of a file has the same width).
		b.cols = append(b.cols, make([]colBuilder, len(r)-len(b.cols))...)
		b.frames = make([]frame, len(b.cols))
	}
	cols, frames := b.cols[:len(r)], b.frames[:len(r)]
	total := pageFixedHeader + 4*len(r)
	n := b.rows + 1
	for i := range r {
		c, d := &cols[i], &r[i]
		if c.settledInt(d) {
			lo, hi := min(c.minI, d.I), max(c.maxI, d.I)
			frames[i] = frame{lo, hi}
			total += intSegUB(n, c.nruns, uint64(hi)-uint64(lo)) + intZoneUB
		} else {
			total += c.stage(d, n)
		}
		if total > PageSize {
			return false
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
	return true
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

// ---------------------------------------------------------------------------
// Page decoding

// checkPageHeader validates the fixed header: anything but the page magic
// followed by the one format byte the builder writes is a corrupt page.
func checkPageHeader(page []byte) error {
	if len(page) < pageFixedHeader {
		return fmt.Errorf("storage: short page (%d bytes)", len(page))
	}
	if m := binary.LittleEndian.Uint16(page[0:2]); m != pageMagic {
		return fmt.Errorf("storage: bad page magic %#04x", m)
	}
	if f := page[2]; f != pageFormat {
		return fmt.Errorf("storage: unknown page format %d", f)
	}
	return nil
}

// DecodePageCols decodes every row of a page column-wise into a pooled
// ColBatch of ncols columns, with one reference held by the caller: the
// eager form of openPage, every column touched before it returns (so the
// caller may reuse page). Pages decode segment-at-a-time — near-memcpy bulk
// reads per column, with string columns copied once into a shared per-page
// buffer whose dictionary entries back the string headers (no per-string
// allocation).
func DecodePageCols(page []byte, ncols int) (*vec.ColBatch, error) {
	b, _, err := openPage(page, ncols, &uncounted)
	if err != nil {
		return nil, err
	}
	for c := 0; c < ncols; c++ {
		b.Col(c)
	}
	return b, nil
}

// pageSource is the column source of an opened page: the validated segments
// the batch has not decoded yet, the page bytes they read, and the memory of
// the fixed-width columns decoded so far. It owns arena pages and frees them in
// Close, at the batch's last Release:
//
//   - pages hold the decoded encInt and encFloat columns — payload, and tags
//     when the column has NULLs or several kinds — bump-allocated one after
//     another; the batch's columns borrow them (vec.Vec) and never outlive them;
//   - held is the page buffer itself, once the frame that read it has been
//     evicted, or its pool closed, while readers of the batch could still ask
//     for an undecoded column (dropDecoded). Until then the buffer is the
//     frame's, and the source must not outlive a rewrite of it.
//
// A source the collector finds before its batch was released gives the pages
// back from its finalizer.
type pageSource struct {
	nrows   int
	segs    []segment
	decoded *atomic.Int64 // the pool's ColsDecoded counter

	held  []byte
	pages [][]byte
	used  int // bytes taken of the last of pages
}

var sourcePool = sync.Pool{New: func() any {
	s := new(pageSource)
	runtime.SetFinalizer(s, (*pageSource).reclaim)
	return s
}}

// uncounted takes the column counts of pages decoded outside a pool.
var uncounted atomic.Int64

// DecodeCol implements vec.ColSource.
func (s *pageSource) DecodeCol(i int, v *vec.Vec) {
	if err := s.segs[i].decode(s.nrows, v, s); err != nil {
		panic(fmt.Sprintf("storage: validated segment of column %d failed to decode: %v", i, err))
	}
	s.decoded.Add(1)
}

// alloc returns n bytes, at most a page and rounded up to a multiple of 8, of
// the source's decoded pages.
func (s *pageSource) alloc(n int) []byte {
	n = (n + 7) &^ 7
	if len(s.pages) == 0 || s.used+n > PageSize {
		s.pages = append(s.pages, arena.Take(arena.Decoded))
		s.used = 0
	}
	b := s.pages[len(s.pages)-1][s.used : s.used+n]
	s.used += n
	return b
}

// ints gives v, an empty column, its int payload of n rows: a range of the
// source's pages that v borrows or, on a nil source, an array of the batch
// recycler's.
func (s *pageSource) ints(v *vec.Vec, n int) []int64 {
	if s == nil {
		return v.BulkI(n)
	}
	return v.BorrowI(arena.As[int64](s.alloc(8 * n)))
}

// floats is ints for the float payload.
func (s *pageSource) floats(v *vec.Vec, n int) []float64 {
	if s == nil {
		return v.BulkF(n)
	}
	return v.BorrowF(arena.As[float64](s.alloc(8 * n)))
}

// Close implements vec.ColSource: the batch is being recycled and its columns
// are cleared, so nothing reads the source's pages any more.
func (s *pageSource) Close() {
	s.free(arena.Free)
	sourcePool.Put(s)
}

// reclaim is the finalizer: nobody released the batch.
func (s *pageSource) reclaim() { s.free(arena.Reclaim) }

func (s *pageSource) free(free func([]byte)) {
	if s.held != nil {
		free(s.held)
	}
	for _, pg := range s.pages {
		free(pg)
	}
	clear(s.segs) // drop the page bytes
	clear(s.pages)
	*s = pageSource{segs: s.segs[:0], pages: s.pages[:0]}
}

// openPage validates a whole page — header, directory and, per segment, the
// encoding tag, kind runs, fixed header and payload length — and returns a
// pooled batch of its rows with one reference held by the caller. Segments
// whose decode checks every row (encDict, encRaw) are decoded here, so a
// corrupt page fails now; encInt and encFloat segments cannot fail once
// their length is known and are decoded by the first ColBatch.Col that asks
// (counted in decoded). The batch reads page until its last Release; the
// source is returned for the frame that may have to leave page to it.
func openPage(page []byte, ncols int, decoded *atomic.Int64) (*vec.ColBatch, *pageSource, error) {
	if err := checkPageHeader(page); err != nil {
		return nil, nil, err
	}
	nrows := int(binary.LittleEndian.Uint16(page[3:5]))
	if nrows == 0 {
		// An empty page carries no column segments (and no fixed width).
		b := vec.Get(ncols)
		b.Seal(0)
		return b, nil, nil
	}
	if pn := int(binary.LittleEndian.Uint16(page[5:7])); pn != ncols {
		return nil, nil, fmt.Errorf("storage: page has %d columns, schema has %d", pn, ncols)
	}
	dirEnd := pageFixedHeader + 4*ncols
	if len(page) < dirEnd {
		return nil, nil, fmt.Errorf("storage: page directory truncated")
	}
	b := vec.Get(ncols)
	src := sourcePool.Get().(*pageSource)
	src.nrows, src.decoded = nrows, decoded
	src.segs = slices.Grow(src.segs[:0], ncols)[:ncols]
	fail := func(c int, err error) (*vec.ColBatch, *pageSource, error) {
		b.Release()
		src.Close()
		return nil, nil, fmt.Errorf("storage: page column %d: %w", c, err)
	}
	var lazy uint64
	for c := 0; c < ncols; c++ {
		off := int(binary.LittleEndian.Uint32(page[pageFixedHeader+4*c:]))
		if off < dirEnd || off >= len(page) {
			return fail(c, fmt.Errorf("segment offset %d out of range", off))
		}
		seg, err := checkSegment(page[off:], nrows)
		if err != nil {
			return fail(c, err)
		}
		src.segs[c] = seg
		if seg.fixedWidth() && c < vec.MaxLazyCols {
			lazy |= 1 << uint(c)
			continue
		}
		if err := seg.decode(nrows, b.Col(c), src); err != nil {
			return fail(c, err)
		}
		decoded.Add(1)
	}
	b.SealSource(nrows, src, lazy)
	return b, src, nil
}

// decodeKindRuns checks a column's kind/null run header and, when v is not
// nil, applies it to v, an empty column; it returns the remaining bytes. Runs
// must cover exactly nrows rows, and every run's kind must be in the allowed
// set (a bit per Kind value) — the typed segment payloads only cover their own
// value class, so a foreign kind in the header would break the Vec payload
// invariant. A header of one run — the common case — gives v no tag array of
// its own (vec.SetKindRun); several runs are written into tags borrowed from
// src when it is not nil, else into an array of the recycler's.
func decodeKindRuns(data []byte, nrows int, v *vec.Vec, allowed uint8, src *pageSource) ([]byte, error) {
	nruns, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("bad kind-run count")
	}
	data = data[n:]
	var tags []types.Kind
	if v != nil && nruns > 1 && src != nil {
		tags = arena.As[types.Kind](src.alloc(nrows))
	}
	total := 0
	for i := uint64(0); i < nruns; i++ {
		if len(data) < 1 {
			return nil, fmt.Errorf("truncated kind run")
		}
		k := types.Kind(data[0])
		if k > types.KindBool || allowed&(1<<k) == 0 {
			return nil, fmt.Errorf("kind %d not valid for this segment encoding", k)
		}
		data = data[1:]
		cnt, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad kind-run length")
		}
		data = data[n:]
		if cnt > uint64(nrows) {
			return nil, fmt.Errorf("kind run of %d rows, page has %d", cnt, nrows)
		}
		if total += int(cnt); total > nrows {
			return nil, fmt.Errorf("kind runs cover %d rows, page has %d", total, nrows)
		}
		switch {
		case v == nil:
		case nruns == 1:
			v.SetKindRun(k, int(cnt))
		case tags != nil:
			for i := total - int(cnt); i < total; i++ {
				tags[i] = k
			}
		default:
			v.AppendKindRun(k, int(cnt))
		}
	}
	if total != nrows {
		return nil, fmt.Errorf("kind runs cover %d rows, page has %d", total, nrows)
	}
	if tags != nil {
		v.BorrowKinds(tags[:nrows])
	}
	return data, nil
}

// Allowed kind sets per segment encoding: the int64-payload kinds for
// frame-of-reference segments, float for float words, string for
// dictionary codes; NULL rides in any of them.
const (
	kindsInt   = 1<<types.KindNull | 1<<types.KindInt | 1<<types.KindDate | 1<<types.KindBool
	kindsFloat = 1<<types.KindNull | 1<<types.KindFloat
	kindsStr   = 1<<types.KindNull | 1<<types.KindString
)

// segment is one column segment of a page whose encoding tag checkSegment
// has accepted: data is the bytes after the tag, to the end of the page.
type segment struct {
	enc  byte
	data []byte
}

// fixedWidth reports whether every row of the segment has the same payload
// width, so that a length check is all its decode can fail on.
func (s segment) fixedWidth() bool { return s.enc == encInt || s.enc == encFloat }

// allowed is the segment's kind set (zero for encRaw, which has no runs).
func (s segment) allowed() uint8 {
	switch s.enc {
	case encInt:
		return kindsInt
	case encFloat:
		return kindsFloat
	case encDict:
		return kindsStr
	}
	return 0
}

// checkSegment validates what can be validated of a segment without
// decoding it: the encoding tag, for the typed encodings the kind runs, and
// for the fixed-width ones the header and the payload length — after which
// decode cannot fail on them.
func checkSegment(data []byte, nrows int) (segment, error) {
	if len(data) < 1 {
		return segment{}, fmt.Errorf("truncated segment")
	}
	s := segment{enc: data[0], data: data[1:]}
	if s.enc == encRaw {
		return s, nil
	}
	if s.enc > encDict {
		return s, fmt.Errorf("unknown segment encoding %d", s.enc)
	}
	body, err := decodeKindRuns(s.data, nrows, nil, s.allowed(), nil)
	if err != nil {
		return s, err
	}
	switch s.enc {
	case encInt:
		if len(body) < 9 {
			return s, fmt.Errorf("truncated int segment header")
		}
		switch width := int(body[8]); width {
		case 0, 1, 2, 4, 8:
			if len(body)-9 < nrows*width {
				return s, fmt.Errorf("truncated int segment payload")
			}
		default:
			return s, fmt.Errorf("bad frame-of-reference width %d", width)
		}
	case encFloat:
		if len(body) < nrows*8 {
			return s, fmt.Errorf("truncated float segment payload")
		}
	}
	return s, nil
}

// decode decodes the segment into v, an empty column of a batch whose source
// is src: the one decoder behind the open-time and the first-touch path. A
// fixed-width segment decodes into pages of src that v borrows, the others
// into arrays of the batch recycler. On a fixed-width segment that passed
// checkSegment it does not fail.
func (s segment) decode(nrows int, v *vec.Vec, src *pageSource) error {
	data := s.data
	if s.enc == encRaw {
		for i := 0; i < nrows; i++ {
			d, rest, err := decodeDatum(data)
			if err != nil {
				return err
			}
			v.AppendDatum(d)
			data = rest
		}
		return nil
	}
	if !s.fixedWidth() || 8*nrows > PageSize {
		src = nil // the column's arrays are the recycler's: only what fits a page borrows
	}
	data, err := decodeKindRuns(data, nrows, v, s.allowed(), src)
	if err != nil {
		return err
	}
	switch s.enc {
	case encInt:
		min := int64(binary.LittleEndian.Uint64(data))
		width := int(data[8])
		data = data[9:]
		vi := src.ints(v, nrows)
		switch width {
		case 0:
			for i := range vi {
				vi[i] = min
			}
		case 1:
			for i := range vi {
				vi[i] = min + int64(data[i])
			}
		case 2:
			for i := range vi {
				vi[i] = min + int64(binary.LittleEndian.Uint16(data[2*i:]))
			}
		case 4:
			for i := range vi {
				vi[i] = min + int64(binary.LittleEndian.Uint32(data[4*i:]))
			}
		case 8:
			for i := range vi {
				vi[i] = min + int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		return nil
	case encFloat:
		vf := src.floats(v, nrows)
		for i := range vf {
			vf[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return nil
	default: // encDict
		dictLen, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad dictionary byte length")
		}
		data = data[n:]
		ndict, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad dictionary entry count")
		}
		data = data[n:]
		if ndict > uint64(maxPageRows) {
			return fmt.Errorf("dictionary entry count %d out of range", ndict)
		}
		if uint64(len(data)) < dictLen {
			return fmt.Errorf("truncated dictionary region")
		}
		raw := data[:dictLen] // page bytes, only read during this decode
		// One copy of the whole dictionary region: entries become substrings
		// sharing this immutable buffer, so a page's strings cost one
		// allocation plus the (recycled) dictionary slice — not one per row,
		// and nothing references the recyclable frame bytes afterwards.
		region := string(raw)
		data = data[dictLen:]
		dict := v.BulkDict(int(ndict))
		pos := 0
		for i := range dict {
			l, n := binary.Uvarint(raw[pos:])
			if n <= 0 || uint64(len(raw)-pos-n) < l {
				return fmt.Errorf("truncated dictionary entry %d", i)
			}
			pos += n
			dict[i] = region[pos : pos+int(l)]
			pos += int(l)
		}
		if pos != len(region) {
			return fmt.Errorf("dictionary region has %d trailing bytes", len(region)-pos)
		}
		if len(data) < 1 {
			return fmt.Errorf("truncated code width")
		}
		width := int(data[0])
		data = data[1:]
		if len(data) < nrows*width {
			return fmt.Errorf("truncated code payload")
		}
		vi := v.BulkI(nrows)
		switch width {
		case 0:
			clear(vi)
		case 1:
			for i := range vi {
				vi[i] = int64(data[i])
			}
		case 2:
			for i := range vi {
				vi[i] = int64(binary.LittleEndian.Uint16(data[2*i:]))
			}
		default:
			return fmt.Errorf("bad dictionary code width %d", width)
		}
		vs := v.BulkS(nrows)
		for i, kd := range v.Kinds {
			if kd != types.KindString {
				vs[i] = ""
				continue
			}
			code := vi[i]
			if code < 0 || code >= int64(len(dict)) {
				return fmt.Errorf("dictionary code %d out of range (%d entries)", code, len(dict))
			}
			vs[i] = dict[code]
		}
		return nil
	}
}
