package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/types"
	"repro/internal/vec"
)

// seedRows draws the fuzz seeds' column kinds and rows: randSchemaRows
// tables cut to at most 16 rows, so an input the fuzzer finds interesting is
// small enough to minimise in seconds.
func seedRows(r *rand.Rand) ([]types.Kind, []types.Row) {
	schema, rows := randSchemaRows(r)
	for len(rows) == 0 {
		schema, rows = randSchemaRows(r)
	}
	return schemaKinds(schema), rows[:min(len(rows), 16)]
}

// widthTable is a one-column table: its kind and its rows.
type widthTable struct {
	kind types.Kind
	rows []types.Row
}

// widthTables are the fuzz seeds' one-page tables of every packed width: an
// int column whose frame takes each delta width 0 to 64 bits, and a string
// column whose dictionary takes each code width 0 to 13, the widest whose
// entries a page holds. Each has a NULL row and its frame's or dictionary's
// both ends.
func widthTables() []widthTable {
	r := rand.New(rand.NewSource(71))
	var tables []widthTable
	for w := 0; w <= 64; w++ {
		top := ^uint64(0) >> (64 - w)
		lo := int64(-5)
		if w == 64 {
			lo = math.MinInt64
		}
		rows := []types.Row{{types.NewInt(lo)}, {types.Null}, {types.NewInt(int64(uint64(lo) + top))}}
		for i := 0; i < 6; i++ {
			rows = append(rows, types.Row{types.NewInt(int64(uint64(lo) + r.Uint64()&top))})
		}
		tables = append(tables, widthTable{types.KindInt, rows})
	}
	for w := 0; w <= 13; w++ {
		n := 1
		if w > 0 {
			n = 1<<(w-1) + 1 // the fewest entries whose codes take w bits
		}
		rows := []types.Row{{types.Null}}
		for i := 0; i < n; i++ {
			rows = append(rows, types.Row{types.NewString(fmt.Sprint(i))})
		}
		tables = append(tables, widthTable{types.KindString, rows})
	}
	return tables
}

// FuzzOpenPage holds openPage to its promise to validate every byte a column
// decode reads: any bytes and column count either fail to open, or open into
// a batch whose every column decodes and whose rows materialise without a
// panic. The page's capacity is its length, so a read past the end panics
// too. Releasing the batch gives back every arena page and pooled batch the
// open took.
func FuzzOpenPage(f *testing.F) {
	r := rand.New(rand.NewSource(61))
	var built []byte
	for i := 0; i < 8; i++ {
		kinds, rows := seedRows(r)
		b := newPageBuilder(kinds)
		for _, row := range rows {
			b.admit(row)
		}
		page := make([]byte, PageSize)
		built = page[:b.finish(page)] // without the zero padding
		f.Add(built, uint8(len(kinds)))
	}
	for _, tbl := range widthTables() {
		b := newPageBuilder([]types.Kind{tbl.kind})
		for _, row := range tbl.rows {
			b.admit(row)
		}
		page := make([]byte, PageSize)
		f.Add(page[:b.finish(page)], uint8(1))
	}
	f.Add(newPageBuilder(nil).page()[:pageFixedHeader], uint8(3)) // the empty page
	// A first segment of tag 0, the encoding of no column: a corrupt page.
	ncols := binary.LittleEndian.Uint16(built[5:7])
	tag0 := append([]byte(nil), built...) // built stays a seed as it is
	tag0[segOffset(tag0, 0)] = 0
	if b, err := openPage(Lease{Page: tag0}, int(ncols), &uncounted); err == nil {
		b.Release()
		f.Fatal("a page whose first segment has tag 0 opened")
	}
	f.Add(tag0, uint8(ncols))
	f.Add(twoKindPage(), uint8(1)) // a column of ints and dates: corrupt
	// Give back what earlier tests left to finalizers, so that no finalizer
	// moves the arena between an input's two snapshots.
	arena.Settle()
	f.Fuzz(func(t *testing.T, page []byte, ncols uint8) {
		pages, batches := arena.Snapshot().PagesInUse, vec.LiveBatches()
		var decoded atomic.Int64
		b, err := openPage(Lease{Page: page[:len(page):len(page)]}, int(ncols), &decoded)
		if err == nil {
			for c := 0; c < int(ncols); c++ {
				b.Col(c)
			}
			_ = b.Rows()
			b.Release()
		}
		if p, l := arena.Snapshot().PagesInUse, vec.LiveBatches(); p != pages || l != batches {
			t.Fatalf("after Release: %d arena pages and %d batches out, want %d and %d (open err %v)",
				p, l, pages, batches, err)
		}
	})
}

// FuzzPageRoundTrip puts rows through the page builder, as one chunk
// admitted a block at a time, and openPage: every datum comes back with its
// kind and its exact payload, and every zone map the page carries bounds its
// column. The input is a width and a stream that fuzzRows decodes into column
// kinds and rows of that width; the rows fill as many pages as they need, and
// a row larger than a page is dropped, as a heap file refuses it.
func FuzzPageRoundTrip(f *testing.F) {
	r := rand.New(rand.NewSource(67))
	for i := 0; i < 8; i++ {
		kinds, rows := seedRows(r)
		var stream []byte
		for _, k := range kinds {
			stream = append(stream, byte(k-types.KindInt))
		}
		for _, row := range rows {
			for _, d := range row {
				stream = appendFuzzDatum(stream, d)
			}
		}
		f.Add(uint8(len(kinds)-1), stream)
	}
	for _, tbl := range widthTables() {
		stream := []byte{byte(tbl.kind - types.KindInt)}
		for _, row := range tbl.rows {
			stream = appendFuzzDatum(stream, row[0])
		}
		f.Add(uint8(0), stream)
	}
	f.Fuzz(func(t *testing.T, width uint8, stream []byte) {
		kinds, rows := fuzzRows(1+int(width)%8, stream)
		if len(rows) == 0 {
			return
		}
		b := newPageBuilder(kinds) // one schema, as a heap file's
		ch := newChunk(kinds, len(rows))
		w := ch.writer()
		for ; w.row < len(rows); w.row++ {
			setRow(&w, rows[w.row])
		}
		for s := 0; s < len(rows); {
			n := b.admitChunk(ch, s, len(rows))
			if n == s {
				s++
				continue
			}
			checkRoundTrip(t, b.page(), rows[s:n])
			s = n
		}
	})
}

// fuzzRows decodes FuzzPageRoundTrip's stream: ncols column kinds, a byte
// each (storedKinds[b%5]), then datums cut into rows of ncols. A datum is its
// kind byte and a payload: a varint for int and date, 8 bytes LE for float, a
// byte for bool, a uvarint length and the bytes for string, nothing for NULL.
// A datum of another kind than its column's becomes NULL; decoding stops at
// the first byte that does not start a whole datum.
func fuzzRows(ncols int, stream []byte) ([]types.Kind, []types.Row) {
	if len(stream) < ncols {
		return nil, nil
	}
	kinds := make([]types.Kind, ncols)
	for i, b := range stream[:ncols] {
		kinds[i] = storedKinds[int(b)%len(storedKinds)]
	}
	data := stream[ncols:]
	var rows []types.Row
	row := make(types.Row, 0, ncols)
	for len(data) > 0 {
		d := types.Datum{K: types.Kind(data[0])}
		data = data[1:]
		switch d.K {
		case types.KindNull:
		case types.KindInt, types.KindDate:
			v, n := binary.Varint(data)
			if n <= 0 {
				return kinds, rows
			}
			d.I, data = v, data[n:]
		case types.KindBool:
			if len(data) < 1 {
				return kinds, rows
			}
			d, data = types.NewBool(data[0] != 0), data[1:]
		case types.KindFloat:
			if len(data) < 8 {
				return kinds, rows
			}
			d.F, data = math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:]
		case types.KindString:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return kinds, rows
			}
			d.S, data = string(data[n:n+int(l)]), data[n+int(l):]
		default:
			return kinds, rows
		}
		if d.K != kinds[len(row)] {
			d = types.Null
		}
		if row = append(row, d); len(row) == ncols {
			rows = append(rows, row)
			row = make(types.Row, 0, ncols)
		}
	}
	return kinds, rows
}

// appendFuzzDatum appends d as fuzzRows reads it.
func appendFuzzDatum(buf []byte, d types.Datum) []byte {
	buf = append(buf, byte(d.K))
	switch d.K {
	case types.KindInt, types.KindDate:
		buf = binary.AppendVarint(buf, d.I)
	case types.KindBool:
		buf = append(buf, byte(d.I))
	case types.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.F))
	case types.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(d.S)))
		buf = append(buf, d.S...)
	}
	return buf
}

// checkRoundTrip opens a built page and checks it against the rows it holds.
func checkRoundTrip(t *testing.T, page []byte, rows []types.Row) {
	t.Helper()
	ncols := len(rows[0])
	var decoded atomic.Int64
	b, err := openPage(Lease{Page: page}, ncols, &decoded)
	if err != nil {
		t.Fatalf("a built page of %d rows failed to open: %v", len(rows), err)
	}
	defer b.Release()
	if b.Len() != len(rows) {
		t.Fatalf("page opened with %d rows, built with %d", b.Len(), len(rows))
	}
	zones := ReadPageZones(page)
	if len(zones) != ncols {
		t.Fatalf("page carries %d zone maps for %d columns", len(zones), ncols)
	}
	for c := 0; c < ncols; c++ {
		v := b.Col(c)
		for i, row := range rows {
			got, want := v.Datum(i), row[c]
			if !sameDatum(got, want) {
				t.Fatalf("row %d col %d: got %v (%v), want %v (%v)", i, c, got, got.K, want, want.K)
			}
			if !zoneCovers(zones[c], want) {
				t.Fatalf("row %d col %d: zone map %+v excludes %v (%v)", i, c, zones[c], want, want.K)
			}
		}
	}
}

// sameDatum is exact equality: the kind, and the payload bit for bit, so a
// NaN equals itself and -0 differs from 0.
func sameDatum(a, b types.Datum) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case types.KindNull:
		return true
	case types.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case types.KindString:
		return a.S == b.S
	}
	return a.I == b.I
}

// zoneCovers reports whether a zone map admits d: bounds cover every non-NULL
// value of their class, and a column without bounds never prunes.
func zoneCovers(z ZoneMap, d types.Datum) bool {
	switch {
	case d.K == types.KindNull:
		return true
	case z.Flags&ZoneInt != 0:
		return kindsInt&(1<<d.K) != 0 && z.MinI <= d.I && d.I <= z.MaxI
	case z.Flags&ZoneStr != 0:
		return d.K == types.KindString && z.MinS <= d.S && d.S <= z.MaxS
	}
	return true
}
