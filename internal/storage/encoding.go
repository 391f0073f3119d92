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

// colBuilder accumulates one column of the page being built, tracking enough
// incremental state to bound the column's encoded size after every row.
type colBuilder struct {
	kinds  []types.Kind
	ints   []int64
	floats []float64
	strs   []string

	// Candidate validity: a typed encoding applies while every non-NULL row
	// belongs to its value class. NULLs never invalidate a candidate (the
	// kind runs carry them).
	intOK   bool
	floatOK bool
	strOK   bool

	haveInt    bool  // at least one int-class row seen
	minI, maxI int64 // frame of reference over int-class rows

	dict      map[string]int32 // distinct strings (codes assigned at finish)
	dictBytes int              // encoded size of the dictionary region
	maxStrLen int              // longest dictionary entry (zone-map size bound)

	nruns    int // kind runs so far
	lastKind types.Kind

	rawBytes int // exact raw datum-stream size of every row so far
}

func (c *colBuilder) reset() {
	c.kinds = c.kinds[:0]
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	clear(c.strs)
	c.strs = c.strs[:0]
	c.intOK, c.floatOK, c.strOK = true, true, true
	c.haveInt = false
	c.minI, c.maxI = 0, 0
	clear(c.dict)
	c.dictBytes = 0
	c.maxStrLen = 0
	c.nruns = 0
	c.rawBytes = 0
}

// colProspect is the would-be state of a column after appending one more
// datum, computed without mutating the builder so a row that does not fit
// is rejected with no rollback.
type colProspect struct {
	intOK, floatOK, strOK bool
	haveInt               bool
	minI, maxI            int64
	ndict                 int
	dictBytes             int
	maxStrLen             int
	nruns                 int
	rawBytes              int
	dictAdd               bool // d.S joins the dictionary on commit
}

// prospect computes the column state after appending d.
func (c *colBuilder) prospect(d types.Datum) colProspect {
	p := colProspect{
		intOK: c.intOK, floatOK: c.floatOK, strOK: c.strOK,
		haveInt: c.haveInt, minI: c.minI, maxI: c.maxI,
		ndict: len(c.dict), dictBytes: c.dictBytes, maxStrLen: c.maxStrLen,
		nruns: c.nruns, rawBytes: c.rawBytes + datumEncSize(d),
	}
	if c.nruns == 0 || d.K != c.lastKind {
		p.nruns++
	}
	switch d.K {
	case types.KindInt, types.KindDate, types.KindBool:
		p.floatOK, p.strOK = false, false
		if !p.haveInt {
			p.haveInt, p.minI, p.maxI = true, d.I, d.I
		} else {
			if d.I < p.minI {
				p.minI = d.I
			}
			if d.I > p.maxI {
				p.maxI = d.I
			}
		}
	case types.KindFloat:
		p.intOK, p.strOK = false, false
	case types.KindString:
		p.intOK, p.floatOK = false, false
		if _, ok := c.dict[d.S]; !ok {
			p.dictAdd = true
			p.ndict++
			p.dictBytes += uvarintSize(uint64(len(d.S))) + len(d.S)
			if len(d.S) > p.maxStrLen {
				p.maxStrLen = len(d.S)
			}
		}
	case types.KindNull:
		// NULLs ride in the kind runs of any encoding.
	}
	return p
}

// sizeUB bounds the encoded size of the column for n rows under the
// encoding finish() will choose for this state. Every uvarint is charged
// its page-bounded maximum, so the exact encoding never exceeds the bound.
func (p colProspect) sizeUB(n int) int {
	runs := uvarUB3 + p.nruns*(1+uvarUB3)
	switch {
	case p.intOK:
		span := uint64(p.maxI) - uint64(p.minI)
		return 1 + runs + 8 + 1 + n*forWidth(span)
	case p.floatOK:
		return 1 + runs + n*8
	case p.strOK:
		return 1 + runs + uvarUB3 + uvarUB3 + p.dictBytes + 1 + n*dictCodeWidth(p.ndict)
	default:
		return 1 + p.rawBytes
	}
}

// commit applies a prospect and stores the datum's payload.
func (c *colBuilder) commit(d types.Datum, p colProspect) {
	c.intOK, c.floatOK, c.strOK = p.intOK, p.floatOK, p.strOK
	c.haveInt, c.minI, c.maxI = p.haveInt, p.minI, p.maxI
	c.nruns, c.lastKind = p.nruns, d.K
	c.rawBytes = p.rawBytes
	c.dictBytes = p.dictBytes
	c.maxStrLen = p.maxStrLen
	if p.dictAdd {
		if c.dict == nil {
			c.dict = make(map[string]int32)
		}
		c.dict[d.S] = 0
	}
	c.kinds = append(c.kinds, d.K)
	var i int64
	var f float64
	var s string
	switch d.K {
	case types.KindInt, types.KindDate, types.KindBool:
		i = d.I
	case types.KindFloat:
		f = d.F
	case types.KindString:
		s = d.S
	}
	c.ints = append(c.ints, i)
	c.floats = append(c.floats, f)
	c.strs = append(c.strs, s)
}

// appendKindRuns encodes the column's kind/null run header.
func appendKindRuns(buf []byte, kinds []types.Kind) []byte {
	nruns := 0
	for i := 0; i < len(kinds); {
		j := i + 1
		for j < len(kinds) && kinds[j] == kinds[i] {
			j++
		}
		nruns++
		i = j
	}
	buf = binary.AppendUvarint(buf, uint64(nruns))
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

// encode appends the column's chosen segment encoding.
func (c *colBuilder) encode(buf []byte) []byte {
	switch {
	case c.intOK:
		buf = append(buf, encInt)
		buf = appendKindRuns(buf, c.kinds)
		min := c.minI
		if !c.haveInt {
			min = 0
		}
		width := forWidth(uint64(c.maxI) - uint64(c.minI))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(min))
		buf = append(buf, byte(width))
		for i, k := range c.kinds {
			var delta uint64
			switch k {
			case types.KindInt, types.KindDate, types.KindBool:
				delta = uint64(c.ints[i]) - uint64(min)
			}
			switch width {
			case 0:
			case 1:
				buf = append(buf, byte(delta))
			case 2:
				buf = binary.LittleEndian.AppendUint16(buf, uint16(delta))
			case 4:
				buf = binary.LittleEndian.AppendUint32(buf, uint32(delta))
			default:
				buf = binary.LittleEndian.AppendUint64(buf, delta)
			}
		}
		return buf
	case c.floatOK:
		buf = append(buf, encFloat)
		buf = appendKindRuns(buf, c.kinds)
		for i, k := range c.kinds {
			var bits uint64
			if k == types.KindFloat {
				bits = math.Float64bits(c.floats[i])
			}
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		}
		return buf
	case c.strOK:
		buf = append(buf, encDict)
		buf = appendKindRuns(buf, c.kinds)
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
		for i, k := range c.kinds {
			var d types.Datum
			switch k {
			case types.KindInt, types.KindDate, types.KindBool:
				d = types.Datum{K: k, I: c.ints[i]}
			case types.KindFloat:
				d = types.Datum{K: k, F: c.floats[i]}
			case types.KindString:
				d = types.Datum{K: k, S: c.strs[i]}
			default:
				d = types.Null
			}
			buf = appendDatum(buf, d)
		}
		return buf
	}
}

// pageBuilder accumulates rows column-wise and packs them into a
// column-major page. Row admission is governed by an incremental size upper
// bound, so finish() always fits in PageSize.
type pageBuilder struct {
	cols      []colBuilder
	rows      int
	buf       []byte        // encode scratch, reused across pages
	prospects []colProspect // tryAppend scratch, reused across rows
}

func newPageBuilder() *pageBuilder {
	return &pageBuilder{buf: make([]byte, 0, PageSize)}
}

// tryAppend stages r into the page; it returns false (leaving the page
// unchanged) if the encoded page would overflow PageSize.
func (b *pageBuilder) tryAppend(r types.Row) bool {
	if b.rows >= maxPageRows {
		return false
	}
	if len(b.cols) < len(r) {
		// First row of a page fixes the width (heap files are
		// schema-checked, so every row of a file has the same width).
		b.cols = append(b.cols, make([]colBuilder, len(r)-len(b.cols))...)
		for i := range b.cols {
			if b.cols[i].kinds == nil {
				b.cols[i].reset()
			}
		}
	}
	if cap(b.prospects) < len(r) {
		b.prospects = make([]colProspect, len(r))
	}
	prospects := b.prospects[:len(r)]
	total := pageFixedHeader + 4*len(r)
	n := b.rows + 1
	for i, d := range r {
		prospects[i] = b.cols[i].prospect(d)
		total += prospects[i].sizeUB(n) + prospects[i].zoneUB()
		if total > PageSize {
			return false
		}
	}
	for i, d := range r {
		b.cols[i].commit(d, prospects[i])
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
