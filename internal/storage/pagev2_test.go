package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/types"
	"repro/internal/vec"
)

// buildV2Page packs rows through the production builder, failing if any row
// is rejected. Each column is of the kind of its first non-NULL value.
func buildV2Page(t testing.TB, rows []types.Row) []byte {
	t.Helper()
	b := newPageBuilder(rowKinds(rows))
	for i, r := range rows {
		if !b.admit(r) {
			t.Fatalf("row %d rejected by page builder", i)
		}
	}
	return b.page()
}

// rowKinds is the kind of each column's first non-NULL value in rows
// (KindInt for a column of NULLs only).
func rowKinds(rows []types.Row) []types.Kind {
	kinds := make([]types.Kind, len(rows[0]))
	for c := range kinds {
		kinds[c] = types.KindInt
		for _, r := range rows {
			if !r[c].IsNull() {
				kinds[c] = r[c].K
				break
			}
		}
	}
	return kinds
}

// offer admits r alone, through a one-row chunk as Append writes one: it
// reports whether r fit, or the first column holding a datum of another kind
// than the column's (bad is -1 otherwise). A refused row leaves the page as
// it was.
func (b *pageBuilder) offer(r types.Row) (ok bool, bad int) {
	kinds := make([]types.Kind, len(b.cols))
	for i := range b.cols {
		kinds[i] = b.cols[i].kind
	}
	ch := newChunk(kinds, 1)
	w := ch.writer()
	for c := range r {
		w.Set(c, &r[c])
	}
	if ch.bad.row >= 0 {
		return false, ch.bad.col
	}
	return b.admitChunk(ch, 0, 1) == 1, -1
}

// admit is offer for rows of the builder's kinds: it reports whether r
// fit, and panics on a datum of another kind, which a test never means to
// offer through it.
func (b *pageBuilder) admit(r types.Row) bool {
	ok, bad := b.offer(r)
	if bad >= 0 {
		panic(fmt.Sprintf("column %d: a %v datum in a %v column", bad, r[bad].K, b.cols[bad].kind))
	}
	return ok
}

// page finishes the builder into a page of its own.
func (b *pageBuilder) page() []byte {
	page := make([]byte, PageSize)
	b.finish(page)
	return page
}

// decodeCheck decodes a page and checks it against want, kind and payload.
func decodeCheck(t *testing.T, page []byte, want []types.Row, ncols int) {
	t.Helper()
	cb, err := DecodePageCols(page, ncols)
	if err != nil {
		t.Fatalf("DecodePageCols: %v", err)
	}
	defer cb.Release()
	if cb.Len() != len(want) {
		t.Fatalf("row count %d, want %d", cb.Len(), len(want))
	}
	for i := range want {
		for c := 0; c < ncols; c++ {
			if got := cb.Col(c).Datum(i); got.K != want[i][c].K || !got.Equal(want[i][c]) {
				t.Fatalf("row %d col %d: DecodePageCols %v (%v), want %v (%v)",
					i, c, got, got.K, want[i][c], want[i][c].K)
			}
		}
	}
}

// sameVec reports whether two decoded columns are the same vector: kind,
// rows, NULL rows, dictionary, and every row's payload (a dictionary
// column's codes too).
func sameVec(a, b *vec.Vec) bool {
	if a.Kind != b.Kind || a.Len() != b.Len() || a.HasNulls() != b.HasNulls() || !slices.Equal(a.Dict, b.Dict) {
		return false
	}
	for i := range a.Len() {
		if da, db := a.Datum(i), b.Datum(i); da.K != db.K || !da.Equal(db) {
			return false
		}
		if a.HasDict() && a.I[i] != b.I[i] {
			return false
		}
	}
	return true
}

// lazyMatchesEager opens page the way a frame does — fixed-width columns
// left to their first reader — and lets several goroutines touch random
// column subsets in random order through Col: each must see exactly the
// vector the eager DecodePageCols built. Both batches give every arena page
// and recycler byte back.
func lazyMatchesEager(t *testing.T, page []byte, ncols int, seed int64) {
	t.Helper()
	a0, p0 := arena.Snapshot(), vec.PoolStats()
	defer func() {
		if a, p := arena.Snapshot(), vec.PoolStats(); a.PagesInUse != a0.PagesInUse || p.BytesOut != p0.BytesOut {
			t.Errorf("page not given back: %d arena pages and %d recycler bytes still out",
				a.PagesInUse-a0.PagesInUse, p.BytesOut-p0.BytesOut)
		}
	}()
	eager, err := DecodePageCols(page, ncols)
	if err != nil {
		t.Fatalf("DecodePageCols: %v", err)
	}
	defer eager.Release()
	var touched atomic.Int64
	lazy, err := openPage(Lease{Page: page}, ncols, &touched)
	if err != nil {
		t.Fatalf("openPage: %v", err)
	}
	defer lazy.Release()
	if lazy.Len() != eager.Len() {
		t.Fatalf("lazy batch has %d rows, eager %d", lazy.Len(), eager.Len())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*31 + int64(g)))
			for _, c := range r.Perm(ncols)[:1+r.Intn(ncols)] {
				if !sameVec(lazy.Col(c), eager.Col(c)) {
					t.Errorf("reader %d: first-touch column %d differs from the eager decode", g, c)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := touched.Load(); n > int64(ncols) {
		t.Errorf("%d columns materialised for a %d-column page", n, ncols)
	}
	rows := lazy.Rows() // the full-row path touches the rest
	if lazy.Len() > 0 && touched.Load() != int64(ncols) {
		t.Errorf("Rows left %d of %d columns undecoded", int64(ncols)-touched.Load(), ncols)
	}
	for i, want := range eager.Rows() {
		for c := range want {
			if rows[i][c].K != want[c].K || !rows[i][c].Equal(want[c]) {
				t.Fatalf("row %d col %d: lazy %v, eager %v", i, c, rows[i][c], want[c])
			}
		}
	}
}

// TestPageV2RoundTripProperty is the v2 encode→decode round trip over random
// schemas and pages: mixed kinds, NULLs, and string columns from single-value
// to fully unique all decode back exactly — eagerly, and column by column on
// first touch under contention at GOMAXPROCS 1, 2 and 4 (run with -race).
func TestPageV2RoundTripProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Earlier tests' unclosed disks and pools give their pages back now, not
	// from a finalizer between a trial's two arena snapshots.
	arena.Settle()
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		runtime.GOMAXPROCS(1 << (trial % 3))
		schema, rows := randSchemaRows(r)
		b := newPageBuilder(schemaKinds(schema))
		var inPage []types.Row
		for _, row := range rows {
			if !b.admit(row) {
				break
			}
			inPage = append(inPage, row)
		}
		page := b.page()
		if _, _, _, err := pageDir(page); err != nil {
			t.Fatalf("trial %d: builder wrote a bad header: %v", trial, err)
		}
		decodeCheck(t, page, inPage, schema.Len())
		lazyMatchesEager(t, page, schema.Len(), int64(trial))
	}
}

// TestPageV2TargetedShapes pins the encoding corners: frame-of-reference
// widths from constant to full 64-bit spans, negative ranges, single-value
// and fully-unique dictionaries, all-NULL columns, and mixed-kind columns,
// whose first datum of another kind than the column's the builder refuses.
func TestPageV2TargetedShapes(t *testing.T) {
	arena.Settle() // as in TestPageV2RoundTripProperty
	mk := func(n int, f func(i int) types.Row) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = f(i)
		}
		return rows
	}
	cases := map[string][]types.Row{
		"constant-int": mk(100, func(i int) types.Row {
			return types.Row{types.NewInt(42)}
		}),
		"byte-span": mk(100, func(i int) types.Row {
			return types.Row{types.NewInt(int64(1000 + i%200))}
		}),
		"negative-span": mk(100, func(i int) types.Row {
			return types.Row{types.NewInt(int64(-50 + i))}
		}),
		"full-span": mk(50, func(i int) types.Row {
			if i%2 == 0 {
				return types.Row{types.NewInt(-(1 << 62))}
			}
			return types.Row{types.NewInt(1 << 62)}
		}),
		"dates-and-bools": mk(100, func(i int) types.Row {
			return types.Row{types.NewDate(int64(18000 + i)), types.NewBool(i%3 == 0)}
		}),
		"mixed-int-date": mk(100, func(i int) types.Row {
			if i%2 == 0 {
				return types.Row{types.NewInt(int64(i))}
			}
			return types.Row{types.NewDate(int64(i))}
		}),
		"single-value-string": mk(100, func(i int) types.Row {
			return types.Row{types.NewString("only")}
		}),
		"unique-strings": mk(100, func(i int) types.Row {
			return types.Row{types.NewString(fmt.Sprintf("key-%04d", i*7919%1000))}
		}),
		"empty-strings": mk(20, func(i int) types.Row {
			if i%2 == 0 {
				return types.Row{types.NewString("")}
			}
			return types.Row{types.NewString("x")}
		}),
		"nulls-in-ints": mk(100, func(i int) types.Row {
			if i%5 == 0 {
				return types.Row{types.Null}
			}
			return types.Row{types.NewInt(int64(i))}
		}),
		"nulls-in-strings": mk(100, func(i int) types.Row {
			if i%4 == 0 {
				return types.Row{types.Null}
			}
			return types.Row{types.NewString(fmt.Sprintf("s%d", i%7))}
		}),
		"all-null": mk(60, func(i int) types.Row {
			return types.Row{types.Null, types.Null}
		}),
		"mixed-classes-raw": mk(60, func(i int) types.Row {
			switch i % 3 {
			case 0:
				return types.Row{types.NewInt(int64(i))}
			case 1:
				return types.Row{types.NewFloat(float64(i))}
			default:
				return types.Row{types.NewString("s")}
			}
		}),
		"floats-with-nulls": mk(100, func(i int) types.Row {
			if i%6 == 0 {
				return types.Row{types.Null}
			}
			return types.Row{types.NewFloat(float64(i) * 1.5)}
		}),
	}
	mixed := map[string]bool{"mixed-int-date": true, "mixed-classes-raw": true}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) {
			if mixed[name] {
				kinds := rowKinds(rows)
				b := newPageBuilder(kinds)
				var kept []types.Row
				for i, r := range rows {
					ok, bad := b.offer(r)
					if want := r[0].K == kinds[0]; ok != want || !ok && bad != 0 {
						t.Fatalf("row %d, a %v datum in a %v column: offer = %v, %d", i, r[0].K, kinds[0], ok, bad)
					}
					if ok {
						kept = append(kept, r)
					}
				}
				decodeCheck(t, b.page(), kept, 1)
				return
			}
			page := buildV2Page(t, rows)
			decodeCheck(t, page, rows, len(rows[0]))
			lazyMatchesEager(t, page, len(rows[0]), 1)
		})
	}
}

// TestIntUnpackWidths pins the bit-packed frame of reference at every
// width: a one-column page of each width 0 to 64 bits at 1, 7, 8, 9, 63, 64
// and 65 rows (whole groups of every size, tails, both) and at a full page,
// with the minimum at 0 and at either int64 extreme, with and without NULL
// runs, takes that width and decodes to the rows it was built from, eagerly
// and on first touch. A single row spans nothing: width 0. unpackInts and
// packedAt themselves must equal a bit-at-a-time read of arbitrary payload
// bytes, cut to the payload's length, where min + offset wraps.
func TestIntUnpackWidths(t *testing.T) {
	arena.Settle() // as in TestPageV2RoundTripProperty
	r := rand.New(rand.NewSource(35))
	const fullPage = -1
	counts := []int{1, 7, 8, 9, 63, 64, 65, fullPage}
	for width := 0; width <= 64; width++ {
		top := ^uint64(0) >> (64 - width) // the widest offset
		minima := []int64{math.MinInt64, 0, math.MaxInt64 - int64(top)}
		if width == 64 {
			minima = minima[:1] // the full span: MinInt64 to MaxInt64
		}
		for _, n := range counts {
			for _, lo := range minima {
				for _, nulls := range []bool{false, true} {
					row := func(i int) types.Row {
						off := r.Uint64() & top
						switch {
						case i == 0:
							off = 0
						case i == 1:
							off = top
						case nulls && i%5 < 2:
							return types.Row{types.Null}
						}
						return types.Row{types.NewInt(lo + int64(off))}
					}
					var rows []types.Row
					if n == fullPage {
						b := newPageBuilder([]types.Kind{types.KindInt})
						for next := row(0); b.admit(next); next = row(len(rows)) {
							rows = append(rows, next)
						}
					} else {
						for i := 0; i < n; i++ {
							rows = append(rows, row(i))
						}
					}
					name := fmt.Sprintf("width=%d/rows=%d/min=%d/nulls=%v", width, len(rows), lo, nulls)
					page := buildV2Page(t, rows)
					want := width
					if len(rows) == 1 {
						want = 0
					}
					if got := intWidth(t, page, len(rows)); got != want {
						t.Fatalf("%s: page took width %d", name, got)
					}
					decodeCheck(t, page, rows, 1)
					lazyMatchesEager(t, page, 1, int64(len(rows)))
				}
			}
		}
	}

	for width := uint(0); width <= 64; width++ {
		for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 1290} {
			data := make([]byte, packedLen(n, width))
			r.Read(data)
			for _, lo := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
				got := make([]int64, n)
				unpackInts(got, data, lo, width)
				for i, v := range got {
					var off uint64
					for k := uint(0); k < width; k++ {
						at := uint(i)*width + k
						off |= uint64(data[at/8]>>(at%8)&1) << k
					}
					if want := lo + int64(off); v != want {
						t.Fatalf("width %d, %d rows, min %d: value %d = %d, want %d", width, n, lo, i, v, want)
					}
					if at := packedAt(data, i, width); at != off {
						t.Fatalf("width %d, %d rows: packedAt(%d) = %d, want %d", width, n, i, at, off)
					}
				}
			}
		}
	}
}

// intWidth is the frame-of-reference width of a one-column int page of nrows
// rows.
func intWidth(t *testing.T, page []byte, nrows int) int {
	t.Helper()
	seg, err := checkSegment(page[segOffset(page, 0):], nrows)
	if err != nil || seg.enc != encInt {
		t.Fatalf("not an int segment: %v", err)
	}
	_, _, body, err := decodeKindRuns(seg.data, nrows, seg.allowed(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return int(body[8])
}

// setSecondValueRun rewrites the kind of the first value run that follows a
// value run and a NULL run in the kind-run header at the start of seg: a
// column of two kinds, the first value run's and k.
func setSecondValueRun(seg []byte, k types.Kind) {
	nruns, pos := binary.Uvarint(seg)
	value, null := false, false
	for ; nruns > 0; nruns-- {
		switch types.Kind(seg[pos]) {
		case types.KindNull:
			null = value
		default:
			if null {
				seg[pos] = byte(k)
				return
			}
			value = true
		}
		_, n := binary.Uvarint(seg[pos+1:])
		pos += 1 + n
	}
	panic("no value run after a value run and a NULL run")
}

// twoKindPage is a one-column page of ints with a NULL run between two runs
// of values, the second rewritten to dates, cut to the bytes the builder
// wrote: a column of two kinds, which no builder writes.
func twoKindPage() []byte {
	b := newPageBuilder([]types.Kind{types.KindInt})
	for i := 0; i < 30; i++ {
		d := types.NewInt(int64(i))
		if i >= 10 && i < 15 {
			d = types.Null
		}
		b.admit(types.Row{d})
	}
	page := make([]byte, PageSize)
	page = page[:b.finish(page)]
	setSecondValueRun(page[segOffset(page, 0)+1:], types.KindDate)
	return page
}

// TestTwoKindsInOneColumnRefused: a segment whose kind runs name two
// non-NULL kinds — int and date share the int encoding — is a corrupt page:
// a column holds one kind.
func TestTwoKindsInOneColumnRefused(t *testing.T) {
	b, err := DecodePageCols(twoKindPage(), 1)
	if err == nil {
		b.Release()
		t.Fatal("a column of ints and dates decoded")
	}
	if !strings.Contains(err.Error(), "kind runs name int and date") {
		t.Fatalf("err = %v, want the two kinds named", err)
	}
}

// TestPageV2DictionaryInvariants checks the decoded shape the predicate
// kernels rely on: string columns come back dictionary-coded with a sorted,
// duplicate-free dictionary, codes in the int payload, Dict[I[i]] equal to
// row i's string, and no string headers.
func TestPageV2DictionaryInvariants(t *testing.T) {
	vals := []string{"EUROPE", "ASIA", "EUROPE", "AFRICA", "ASIA", "AMERICA"}
	rows := make([]types.Row, 120)
	for i := range rows {
		rows[i] = types.Row{types.NewString(vals[i%len(vals)]), types.NewInt(int64(i))}
	}
	cb, err := DecodePageCols(buildV2Page(t, rows), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	v := cb.Col(0)
	if !v.HasDict() || v.Kind != types.KindString {
		t.Fatalf("string column not dictionary-coded: dict=%d kind=%v", len(v.Dict), v.Kind)
	}
	if len(v.Dict) != 4 {
		t.Fatalf("dictionary has %d entries, want 4 distinct", len(v.Dict))
	}
	if !sort.StringsAreSorted(v.Dict) {
		t.Fatalf("dictionary not sorted: %v", v.Dict)
	}
	if len(v.S) != 0 {
		t.Fatalf("dictionary column holds %d string headers, want none", len(v.S))
	}
	for i := range rows {
		if want := rows[i][0].S; v.Dict[v.I[i]] != want || v.Str(i) != want {
			t.Fatalf("row %d: Dict[code %d]=%q, Str=%q, want %q", i, v.I[i], v.Dict[v.I[i]], v.Str(i), want)
		}
	}
	if cb.Col(1).HasDict() {
		t.Fatal("int column claims a dictionary")
	}
}

// TestDictColumnHoldsCodesOnly checks that a decoded string column is its
// codes alone, with no string headers, and that every reader of its rows
// gets the page's strings back: Str and Datum row by row, and AppendFrom
// and AppendGather, which write them into a plain column (NULL rows as
// NULLs holding the zero value).
func TestDictColumnHoldsCodesOnly(t *testing.T) {
	vals := []string{"MOROCCO", "BRAZIL", "PERU", "MOROCCO", "CHINA", "PERU", "JAPAN"}
	rows := make([]types.Row, 300)
	for i := range rows {
		s := types.NewString(vals[i%len(vals)])
		if i%11 == 3 {
			s = types.Null
		}
		rows[i] = types.Row{s, types.NewInt(int64(i))}
	}
	cb, err := DecodePageCols(buildV2Page(t, rows), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	v := cb.Col(0)
	if !v.HasDict() || len(v.S) != 0 {
		t.Fatalf("decoded string column: dictionary of %d entries, %d string headers; want a dictionary and none", len(v.Dict), len(v.S))
	}
	all := cb.AllSel()
	from, gathered := vec.Get(1), vec.Get(1)
	defer from.Release()
	defer gathered.Release()
	for i := range rows {
		from.Col(0).AppendFrom(v, i)
	}
	gathered.Col(0).AppendGather(v, all[:100])
	gathered.Col(0).AppendGather(v, all[100:])
	for _, out := range []*vec.Vec{from.Col(0), gathered.Col(0)} {
		if out.HasDict() || len(out.S) != len(rows) {
			t.Fatalf("appended column: dictionary of %d entries, %d string headers; want a plain column of %d", len(out.Dict), len(out.S), len(rows))
		}
	}
	for i, r := range rows {
		want := r[0]
		if got := v.Datum(i); got.K != want.K || !got.Equal(want) {
			t.Fatalf("row %d: Datum %v, want %v", i, got, want)
		}
		for name, out := range map[string]*vec.Vec{"AppendFrom": from.Col(0), "AppendGather": gathered.Col(0)} {
			if got := out.Datum(i); got.K != want.K || !got.Equal(want) {
				t.Fatalf("row %d: %s %v, want %v", i, name, got, want)
			}
			if want.IsNull() && out.S[i] != "" {
				t.Fatalf("row %d: %s wrote %q under a NULL row, want the zero value", i, name, out.S[i])
			}
		}
		if !want.IsNull() && v.Str(i) != want.S {
			t.Fatalf("row %d: Str %q, want %q", i, v.Str(i), want.S)
		}
	}
}

// TestPageV2CorruptionNoPanic flips bytes across valid v2 pages and checks
// the decoder either errors or returns — never panics or breaks the Vec
// payload invariants (materializing every decoded datum would panic if it
// did).
func TestPageV2CorruptionNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	schema, rows := randSchemaRows(r)
	b := newPageBuilder(schemaKinds(schema))
	for _, row := range rows {
		if !b.admit(row) {
			break
		}
	}
	page := b.page()
	ncols := schema.Len()
	for trial := 0; trial < 5000; trial++ {
		corrupt := make([]byte, len(page))
		copy(corrupt, page)
		for k := 0; k < 1+r.Intn(3); k++ {
			corrupt[r.Intn(len(corrupt))] ^= byte(1 + r.Intn(255))
		}
		cb, err := DecodePageCols(corrupt, ncols)
		if err != nil {
			continue
		}
		_ = cb.Rows() // must not panic on any surviving decode
		cb.Release()
	}
}

var sinkCB *vec.ColBatch

// BenchmarkDecodePageColsV2Ints measures the bulk decode of fixed-width
// pages in ns per decoded value. shape=mixed is an int/date/float page of
// frame-of-reference widths 12, 3 and 9 bits and a float column;
// shape=lineorder is the SSB fact table's twelve int columns at sf 0.1, of 3
// to 8 bits (5 columns), 15 or 16 (4) and 17 to 24 (3): byte widths 1, 2 and
// 4 before pages packed bits. Steady state must be allocation-free beyond the
// pooled batch.
func BenchmarkDecodePageColsV2Ints(b *testing.B) {
	b.Run("shape=mixed", func(b *testing.B) {
		benchDecodePage(b, []types.Kind{types.KindInt, types.KindInt, types.KindDate, types.KindFloat}, func(i int) types.Row {
			return types.Row{
				types.NewInt(int64(i)),
				types.NewInt(int64(i % 7)),
				types.NewDate(int64(18000 + i%365)),
				types.NewFloat(float64(i) * 0.25),
			}
		})
	})
	b.Run("shape=lineorder", func(b *testing.B) {
		spans := []struct{ lo, span int64 }{
			{1, 7}, {1, 50}, {0, 11}, {0, 9}, {1, 200}, // 3 to 8 bits
			{1, 30000}, {1, 20000}, {19920101, 61130}, {1, 60000}, // 15 or 16 bits
			{90000, 10_000_000}, {100000, 5_000_000}, {1, 120000}, // 17 to 24 bits
		}
		kinds := make([]types.Kind, len(spans))
		for c := range kinds {
			kinds[c] = types.KindInt
		}
		r := rand.New(rand.NewSource(1))
		benchDecodePage(b, kinds, func(int) types.Row {
			row := make(types.Row, len(spans))
			for c, s := range spans {
				row[c] = types.NewInt(s.lo + r.Int63n(s.span))
			}
			return row
		})
	})
}

// benchDecodePage fills one page with rows row(0), row(1), … and decodes
// every column of it per op.
func benchDecodePage(b *testing.B, kinds []types.Kind, row func(i int) types.Row) {
	pb := newPageBuilder(kinds)
	n := 0
	for pb.admit(row(n)) {
		n++
	}
	page := pb.page()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, err := DecodePageCols(page, len(kinds))
		if err != nil {
			b.Fatal(err)
		}
		sinkCB = cb
		cb.Release()
	}
	b.ReportMetric(float64(n), "tuples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*len(kinds)), "ns/value")
}

// BenchmarkDecodePageColsV2Strings measures the dictionary decode: one
// region copy plus a header gather per page, O(1) allocations per page
// rather than one per string.
func BenchmarkDecodePageColsV2Strings(b *testing.B) {
	cities := make([]string, 40)
	for i := range cities {
		cities[i] = fmt.Sprintf("CITY-%02d-%s", i, strings.Repeat("x", 10))
	}
	var rows []types.Row
	pb := newPageBuilder([]types.Kind{types.KindInt, types.KindString, types.KindString})
	n := 0
	for i := 0; ; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewString(cities[i%len(cities)]),
			types.NewString(cities[(i*13)%len(cities)]),
		}
		rows = append(rows, r)
		if !pb.admit(r) {
			break
		}
		n++
	}
	_ = rows
	page := pb.page()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, err := DecodePageCols(page, 3)
		if err != nil {
			b.Fatal(err)
		}
		sinkCB = cb
		cb.Release()
	}
	b.ReportMetric(float64(n), "tuples/op")
}
