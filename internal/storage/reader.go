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
// the fixed-width columns decoded so far. What it owns it gives back in Close,
// at the batch's last Release:
//
//   - pages are arena pages holding the decoded encInt and encFloat columns —
//     payload, and tags when the column has NULLs or several kinds —
//     bump-allocated one after another; the batch's columns borrow them
//     (vec.Vec) and never outlive them;
//   - lease is the disk's lease on the page bytes, once the frame that held
//     it has been evicted, or its pool closed, while readers of the batch
//     could still ask for an undecoded column (dropDecoded). Until then the
//     lease is the frame's. Lent bytes never change (a write to a lent page
//     installs a fresh one), so the segments read the same page either way.
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

// openPage validates a whole page — header, directory and, per segment, the
// encoding tag, kind runs, fixed header and payload length — and returns a
// pooled batch of its rows with one reference held by the caller. Segments
// whose decode checks every row (encDict) are decoded here, so a corrupt
// page fails now; encInt and encFloat segments cannot fail once
// their length is known and are decoded by the first ColBatch.Col that asks
// (counted in decoded). The batch reads page until its last Release; the
// source is returned for the frame that may have to leave page to it.
func openPage(page []byte, ncols int, decoded *atomic.Int64) (*vec.ColBatch, *pageSource, error) {
	nrows, pn, _, err := pageDir(page)
	if err != nil {
		return nil, nil, err
	}
	if nrows == 0 {
		// An empty page carries no column segments (and no fixed width).
		b := vec.Get(ncols)
		b.Seal(0)
		return b, nil, nil
	}
	if pn != ncols {
		return nil, nil, fmt.Errorf("storage: page has %d columns, schema has %d", pn, ncols)
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
		seg, err := checkSegment(page[segOffset(page, c):], nrows)
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

// segment is one column segment of a page whose encoding tag checkSegment
// has accepted: data is the bytes after the tag, to the end of the page.
type segment struct {
	enc  byte
	data []byte
}

// fixedWidth reports whether every row of the segment has the same payload
// width, so that a length check is all its decode can fail on.
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

// checkSegment validates what can be validated of a segment without
// decoding it: the encoding tag, the kind runs, and for the fixed-width
// encodings the header and the payload length — after which decode cannot
// fail on them.
func checkSegment(data []byte, nrows int) (segment, error) {
	if len(data) < 1 {
		return segment{}, fmt.Errorf("truncated segment")
	}
	s := segment{enc: data[0], data: data[1:]}
	if s.enc < encInt || s.enc > encDict {
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
	if !s.fixedWidth() || 8*nrows > PageSize {
		src = nil // the column's arrays are the recycler's: only what fits a page borrows
	}
	data, err := decodeKindRuns(s.data, nrows, v, s.allowed(), src)
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
