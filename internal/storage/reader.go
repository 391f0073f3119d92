package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/types"
	"repro/internal/vec"
)

// pageDir parses a page's fixed header and segment directory: the one reader
// of both, behind openPage and ReadPageZones. It returns the row and column
// counts and where the zone entries end (the lowest segment offset; the page
// end when there are no columns), and an error unless the header is the page
// magic followed by the one format byte the builder writes and every segment
// offset lies after the directory and inside the page.
func pageDir(page []byte) (nrows, ncols, zonesEnd int, err error) {
	if len(page) < pageFixedHeader {
		return 0, 0, 0, fmt.Errorf("storage: short page (%d bytes)", len(page))
	}
	if m := binary.LittleEndian.Uint16(page[0:2]); m != pageMagic {
		return 0, 0, 0, fmt.Errorf("storage: bad page magic %#04x", m)
	}
	if f := page[2]; f != pageFormat {
		return 0, 0, 0, fmt.Errorf("storage: unknown page format %d", f)
	}
	nrows = int(binary.LittleEndian.Uint16(page[3:5]))
	ncols = int(binary.LittleEndian.Uint16(page[5:7]))
	dirEnd := pageFixedHeader + 4*ncols
	if len(page) < dirEnd {
		return 0, 0, 0, fmt.Errorf("storage: page directory truncated")
	}
	zonesEnd = len(page)
	for c := 0; c < ncols; c++ {
		off := segOffset(page, c)
		if off < dirEnd || off >= len(page) {
			return 0, 0, 0, fmt.Errorf("storage: page column %d: segment offset %d out of range", c, off)
		}
		zonesEnd = min(zonesEnd, off)
	}
	return nrows, ncols, zonesEnd, nil
}

// segOffset is column c's entry in a page's segment directory.
func segOffset(page []byte, c int) int {
	return int(binary.LittleEndian.Uint32(page[pageFixedHeader+4*c:]))
}

// DecodePageCols decodes every row of a page column-wise into a pooled
// ColBatch of ncols columns, with one reference held by the caller: the
// eager form of openPage, every column touched before it returns (so the
// caller may reuse page). Pages decode segment-at-a-time — a word-at-a-time
// unpack per fixed-width column, with string columns copied once into a
// shared per-page buffer whose dictionary entries back the string headers,
// and the rows keep their codes (no per-string allocation, no per-row
// string header).
func DecodePageCols(page []byte, ncols int) (*vec.ColBatch, error) {
	b, err := openPage(Lease{Page: page}, ncols, &uncounted)
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
// the fixed-width columns decoded so far. What it owns it gives back in Close,
// at the batch's last Release:
//
//   - pages are arena pages holding the decoded encInt and encFloat
//     columns' payloads, bump-allocated one after another; the batch's columns borrow them
//     (vec.Vec) and never outlive them;
//   - lease is the source's own lease on the page bytes the segments read,
//     taken at open while the frame was pinned: the batch outlives the
//     frame's eviction, the pool's Close and the disk's. Lent bytes never
//     change (a write to a lent page installs a fresh one).
//
// A source the collector finds before its batch was released gives both back
// from its finalizer.
type pageSource struct {
	nrows   int
	segs    []segment
	decoded *atomic.Int64 // the pool's ColsDecoded counter

	lease Lease
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
	s.lease.release(free)
	for _, pg := range s.pages {
		free(pg)
	}
	clear(s.segs) // drop the page bytes
	clear(s.pages)
	*s = pageSource{segs: s.segs[:0], pages: s.pages[:0]}
}

// openPage validates a whole page — header, directory and every segment in
// full (checkSegment), so a corrupt page fails now, whichever column is
// corrupt — and returns a pooled batch of its rows with one reference held by
// the caller. It decodes nothing but the columns past vec.MaxLazyCols: a
// column is decoded by the first ColBatch.Col that asks for it (counted in
// decoded). The batch reads the page until its last Release, under a lease of
// its own that it takes of page, which the caller holds.
func openPage(page Lease, ncols int, decoded *atomic.Int64) (*vec.ColBatch, error) {
	nrows, pn, _, err := pageDir(page.Page)
	if err != nil {
		return nil, err
	}
	if nrows == 0 {
		// An empty page carries no column segments (and no fixed width).
		b := vec.Get(ncols)
		b.Seal(0)
		return b, nil
	}
	if pn != ncols {
		return nil, fmt.Errorf("storage: page has %d columns, schema has %d", pn, ncols)
	}
	src := sourcePool.Get().(*pageSource)
	src.nrows, src.decoded = nrows, decoded
	src.segs = slices.Grow(src.segs[:0], ncols)[:ncols]
	for c := range src.segs {
		seg, err := checkSegment(page.Page[segOffset(page.Page, c):], nrows)
		if err != nil {
			src.Close()
			return nil, fmt.Errorf("storage: page column %d: %w", c, err)
		}
		src.segs[c] = seg
	}
	b := vec.Get(ncols)
	for c := vec.MaxLazyCols; c < ncols; c++ {
		src.DecodeCol(c, b.Col(c))
	}
	src.lease = page.dup()
	b.SealSource(nrows, src, uint64(1)<<min(ncols, vec.MaxLazyCols)-1)
	return b, nil
}

// decodeKindRuns checks a column's kind/null run header and returns the
// column's kind, whether some run is NULL, and the bytes after the header.
// Runs must cover exactly nrows rows, every run's kind must be in the allowed
// set (a bit per Kind value) — the typed segment payloads only cover their own
// value class — and the runs may name one non-NULL kind only: a column holds
// one kind, so a header naming two is a corrupt page. The kind is KindNull
// when every run is NULL. When null is not nil it is called with the rows
// [lo, hi) of every NULL run.
func decodeKindRuns(data []byte, nrows int, allowed uint8, null func(lo, hi int)) (types.Kind, bool, []byte, error) {
	kind, nulls := types.KindNull, false
	nruns, n := binary.Uvarint(data)
	if n <= 0 {
		return kind, false, nil, fmt.Errorf("bad kind-run count")
	}
	data = data[n:]
	total := 0
	for i := uint64(0); i < nruns; i++ {
		if len(data) < 1 {
			return kind, false, nil, fmt.Errorf("truncated kind run")
		}
		k := types.Kind(data[0])
		if k > types.KindBool || allowed&(1<<k) == 0 {
			return kind, false, nil, fmt.Errorf("kind %d not valid for this segment encoding", k)
		}
		data = data[1:]
		cnt, n := binary.Uvarint(data)
		if n <= 0 {
			return kind, false, nil, fmt.Errorf("bad kind-run length")
		}
		data = data[n:]
		if cnt > uint64(nrows) {
			return kind, false, nil, fmt.Errorf("kind run of %d rows, page has %d", cnt, nrows)
		}
		if total += int(cnt); total > nrows {
			return kind, false, nil, fmt.Errorf("kind runs cover %d rows, page has %d", total, nrows)
		}
		switch {
		case k == types.KindNull:
			nulls = true
			if null != nil {
				null(total-int(cnt), total)
			}
		case cnt == 0:
		case kind == types.KindNull:
			kind = k
		case k != kind:
			return kind, false, nil, fmt.Errorf("kind runs name %v and %v in one column", kind, k)
		}
	}
	if total != nrows {
		return kind, false, nil, fmt.Errorf("kind runs cover %d rows, page has %d", total, nrows)
	}
	return kind, nulls, data, nil
}

// segment is one column segment of a page whose encoding tag checkSegment
// has accepted: data is the bytes after the tag, to the end of the page.
type segment struct {
	enc  byte
	data []byte
}

// fixedWidth reports whether every row of the segment has the same payload
// width: only such a column decodes into pages of its source.
func (s segment) fixedWidth() bool { return s.enc == encInt || s.enc == encFloat }

// allowed is the segment's kind set.
func (s segment) allowed() uint8 {
	switch s.enc {
	case encInt:
		return kindsInt
	case encFloat:
		return kindsFloat
	}
	return kindsStr // encDict
}

// checkSegment validates a segment in full without decoding it: the encoding
// tag, the kind runs, the header and the payload length, and for a
// dictionary its entries and every string row's code — after which decode
// cannot fail on it.
func checkSegment(data []byte, nrows int) (segment, error) {
	if len(data) < 1 {
		return segment{}, fmt.Errorf("truncated segment")
	}
	s := segment{enc: data[0], data: data[1:]}
	if s.enc < encInt || s.enc > encDict {
		return s, fmt.Errorf("unknown segment encoding %d", s.enc)
	}
	_, _, body, err := decodeKindRuns(s.data, nrows, s.allowed(), nil)
	if err != nil {
		return s, err
	}
	switch s.enc {
	case encInt:
		if len(body) < 9 {
			return s, fmt.Errorf("truncated int segment header")
		}
		w := uint(body[8])
		if w > 64 {
			return s, fmt.Errorf("bad frame-of-reference width %d", w)
		}
		if len(body)-9 < packedLen(nrows, w) {
			return s, fmt.Errorf("truncated int segment payload")
		}
	case encFloat:
		if len(body) < nrows*8 {
			return s, fmt.Errorf("truncated float segment payload")
		}
	case encDict:
		d, err := parseDict(body, nrows)
		if err == nil {
			err = d.check(s.data)
		}
		return s, err
	}
	return s, nil
}

// decode decodes the segment into v, an empty column of a batch whose source
// is src: the one decoder behind the first-touch and the open-time path. A
// fixed-width segment decodes into pages of src that v borrows, the others
// into arrays of the batch recycler; a column of NULLs decodes no payload,
// and the NULL runs are marked last, zeroing the payload under them. It must
// only be given a segment checkSegment accepted, and then does not fail.
func (s segment) decode(nrows int, v *vec.Vec, src *pageSource) error {
	if !s.fixedWidth() || 8*nrows > PageSize {
		src = nil // the column's arrays are the recycler's: only what fits a page borrows
	}
	kind, nulls, data, err := decodeKindRuns(s.data, nrows, s.allowed(), nil)
	if err != nil {
		return err
	}
	v.SetRows(kind, nrows)
	switch {
	case kind == types.KindNull:
	case s.enc == encInt:
		min := int64(binary.LittleEndian.Uint64(data))
		unpackInts(src.ints(v, nrows), data[9:], min, uint(data[8]))
	case s.enc == encFloat:
		vf := src.floats(v, nrows)
		for i := range vf {
			vf[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	default: // encDict
		d, _ := parseDict(data, nrows) // checkSegment accepted it
		// One copy of the whole dictionary region: entries become substrings
		// sharing this immutable buffer, so a page's strings cost one
		// allocation plus the (recycled) dictionary slice — not one per row,
		// and nothing references the lent page bytes afterwards.
		region := string(d.region)
		dict := v.BulkDict(d.ndict)
		pos := 0
		for i := range dict {
			l, n := binary.Uvarint(d.region[pos:])
			pos += n
			dict[i] = region[pos : pos+int(l)]
			pos += int(l)
		}
		vi := v.BulkI(nrows)
		unpackInts(vi, d.codes, 0, d.width)
		// The column is its codes: rows read their string through the
		// dictionary (Vec.Str). A NULL row's code need not name an entry;
		// SetNulls below makes it 0, which does.
	}
	if nulls {
		decodeKindRuns(s.data, nrows, s.allowed(), v.SetNulls)
	}
	return nil
}

// dictSeg is the body of a dictionary segment, after its kind runs.
type dictSeg struct {
	region []byte // the entries: a uvarint length and the bytes, ndict times
	ndict  int
	width  uint   // code width in bits, at most 16
	codes  []byte // the packed codes, a code of width bits per row
}

// parseDict splits a dictionary segment's body and checks its lengths: the
// region's and the entry count's headers, the code width and the code
// payload. It neither walks the entries nor reads the codes.
func parseDict(body []byte, nrows int) (dictSeg, error) {
	var d dictSeg
	dictLen, n := binary.Uvarint(body)
	if n <= 0 {
		return d, fmt.Errorf("bad dictionary byte length")
	}
	body = body[n:]
	ndict, n := binary.Uvarint(body)
	if n <= 0 {
		return d, fmt.Errorf("bad dictionary entry count")
	}
	body = body[n:]
	if ndict > uint64(maxPageRows) {
		return d, fmt.Errorf("dictionary entry count %d out of range", ndict)
	}
	if uint64(len(body)) < dictLen {
		return d, fmt.Errorf("truncated dictionary region")
	}
	d.region, d.ndict, body = body[:dictLen], int(ndict), body[dictLen:]
	if len(body) < 1 {
		return d, fmt.Errorf("truncated code width")
	}
	d.width, body = uint(body[0]), body[1:]
	if d.width > 16 { // an entry count fits 16 bits
		return d, fmt.Errorf("bad dictionary code width %d", d.width)
	}
	if len(body) < packedLen(nrows, d.width) {
		return d, fmt.Errorf("truncated code payload")
	}
	d.codes = body
	return d, nil
}

// check walks a parsed dictionary: its entries must fill the region exactly,
// and every string row's code, by the segment's validated kind runs, must
// name an entry.
func (d dictSeg) check(runs []byte) error {
	pos := 0
	for i := 0; i < d.ndict; i++ {
		l, n := binary.Uvarint(d.region[pos:])
		if n <= 0 || uint64(len(d.region)-pos-n) < l {
			return fmt.Errorf("truncated dictionary entry %d", i)
		}
		pos += n + int(l)
	}
	if pos != len(d.region) {
		return fmt.Errorf("dictionary region has %d trailing bytes", len(d.region)-pos)
	}
	nruns, n := binary.Uvarint(runs)
	runs = runs[n:]
	row := 0
	for ; nruns > 0; nruns-- {
		k := types.Kind(runs[0])
		cnt, n := binary.Uvarint(runs[1:])
		runs = runs[1+n:]
		if k == types.KindString {
			for i := row; i < row+int(cnt); i++ {
				if code := int(packedAt(d.codes, i, d.width)); code >= d.ndict {
					return fmt.Errorf("dictionary code %d out of range (%d entries)", code, d.ndict)
				}
			}
		}
		row += int(cnt)
	}
	return nil
}

// readZone parses one zone entry, returning the entry and remaining bytes.
// Strings are copied out of the page so the zone map outlives the frame.
func readZone(data []byte) (ZoneMap, []byte, bool) {
	var z ZoneMap
	if len(data) < 1 {
		return z, nil, false
	}
	z.Flags = data[0]
	data = data[1:]
	if z.Flags&^(ZoneInt|ZoneStr|ZoneNullOnly) != 0 {
		return z, nil, false
	}
	if z.Flags&ZoneInt != 0 {
		if len(data) < 16 {
			return z, nil, false
		}
		z.MinI = int64(binary.LittleEndian.Uint64(data))
		z.MaxI = int64(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
	}
	if z.Flags&ZoneStr != 0 {
		var ok bool
		if z.MinS, data, ok = readZoneStr(data); !ok {
			return z, nil, false
		}
		if z.MaxS, data, ok = readZoneStr(data); !ok {
			return z, nil, false
		}
	}
	return z, data, true
}

func readZoneStr(data []byte) (string, []byte, bool) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", nil, false
	}
	return string(data[n : n+int(l)]), data[n+int(l):], true
}

// ReadPageZones extracts the per-column zone maps persisted in a page. It
// returns nil — "unknown, never prune" — for empty pages and anything
// malformed; a nil result is always a safe answer.
func ReadPageZones(page []byte) []ZoneMap {
	nrows, ncols, zonesEnd, err := pageDir(page)
	if err != nil || nrows == 0 || ncols == 0 {
		return nil
	}
	zones := make([]ZoneMap, ncols)
	data := page[pageFixedHeader+4*ncols : zonesEnd] // the entries end where the first segment starts
	for c := range zones {
		var ok bool
		if zones[c], data, ok = readZone(data); !ok {
			return nil
		}
	}
	return zones
}
