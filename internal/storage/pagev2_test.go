package storage

import (
	"fmt"
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
// is rejected.
func buildV2Page(t testing.TB, rows []types.Row) []byte {
	t.Helper()
	b := newPageBuilder()
	for i, r := range rows {
		if !b.tryAppend(r) {
			t.Fatalf("row %d rejected by page builder", i)
		}
	}
	return b.finish()
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

// sameVec reports whether two decoded columns are the same vector: tags,
// uniformity, dictionary, and the payload of every row's own kind.
func sameVec(a, b *vec.Vec) bool {
	if !slices.Equal(a.Kinds, b.Kinds) || !slices.Equal(a.Dict, b.Dict) ||
		a.AllInt() != b.AllInt() || a.AllFloat() != b.AllFloat() || a.AllStr() != b.AllStr() {
		return false
	}
	for i := range a.Kinds {
		if da, db := a.Datum(i), b.Datum(i); da.K != db.K || !da.Equal(db) {
			return false
		}
		if a.HasDict() && a.Kinds[i] == types.KindString && a.I[i] != b.I[i] {
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
	lazy, _, err := openPage(page, ncols, &touched)
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
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		runtime.GOMAXPROCS(1 << (trial % 3))
		schema, rows := randSchemaRows(r)
		b := newPageBuilder()
		var inPage []types.Row
		for _, row := range rows {
			if !b.tryAppend(row) {
				break
			}
			inPage = append(inPage, row)
		}
		page := b.finish()
		if err := checkPageHeader(page); err != nil {
			t.Fatalf("trial %d: builder wrote a bad header: %v", trial, err)
		}
		decodeCheck(t, page, inPage, schema.Len())
		lazyMatchesEager(t, page, schema.Len(), int64(trial))
	}
}

// TestPageV2TargetedShapes pins the encoding corners: frame-of-reference
// widths from constant to full 64-bit spans, negative ranges, single-value
// and fully-unique dictionaries, all-NULL columns, and mixed-kind columns
// that must fall back to the raw encoding.
func TestPageV2TargetedShapes(t *testing.T) {
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
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) {
			page := buildV2Page(t, rows)
			decodeCheck(t, page, rows, len(rows[0]))
			lazyMatchesEager(t, page, len(rows[0]), 1)
		})
	}
}

// TestPageV2DictionaryInvariants checks the decoded shape the predicate
// kernels rely on: string columns come back dictionary-coded with a sorted,
// duplicate-free dictionary, codes in the int payload, and S[i] equal to
// Dict[I[i]].
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
	if !v.HasDict() || !v.AllStr() {
		t.Fatalf("string column not dictionary-coded: dict=%d allStr=%v", len(v.Dict), v.AllStr())
	}
	if len(v.Dict) != 4 {
		t.Fatalf("dictionary has %d entries, want 4 distinct", len(v.Dict))
	}
	if !sort.StringsAreSorted(v.Dict) {
		t.Fatalf("dictionary not sorted: %v", v.Dict)
	}
	for i := range rows {
		if v.S[i] != v.Dict[v.I[i]] {
			t.Fatalf("row %d: S=%q, Dict[code %d]=%q", i, v.S[i], v.I[i], v.Dict[v.I[i]])
		}
	}
	if cb.Col(1).HasDict() {
		t.Fatal("int column claims a dictionary")
	}
}

// TestPageV2CorruptionNoPanic flips bytes across valid v2 pages and checks
// the decoder either errors or returns — never panics or breaks the Vec
// payload invariants (materializing every decoded datum would panic if it
// did).
func TestPageV2CorruptionNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	schema, rows := randSchemaRows(r)
	b := newPageBuilder()
	for _, row := range rows {
		if !b.tryAppend(row) {
			break
		}
	}
	page := b.finish()
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

// BenchmarkDecodePageColsV2Ints measures the bulk decode of a fully
// int/date/float page (the SSB fact-table shape) — the near-memcpy path.
// Steady state must be allocation-free beyond the pooled batch.
func BenchmarkDecodePageColsV2Ints(b *testing.B) {
	rows := make([]types.Row, 0, 4096)
	for i := 0; ; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 7)),
			types.NewDate(int64(18000 + i%365)),
			types.NewFloat(float64(i) * 0.25),
		}
		rows = append(rows, r)
		if len(rows) == cap(rows) {
			break
		}
	}
	pb := newPageBuilder()
	n := 0
	for _, r := range rows {
		if !pb.tryAppend(r) {
			break
		}
		n++
	}
	page := pb.finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, err := DecodePageCols(page, 4)
		if err != nil {
			b.Fatal(err)
		}
		sinkCB = cb
		cb.Release()
	}
	b.ReportMetric(float64(n), "tuples/op")
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
	pb := newPageBuilder()
	n := 0
	for i := 0; ; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewString(cities[i%len(cities)]),
			types.NewString(cities[(i*13)%len(cities)]),
		}
		rows = append(rows, r)
		if !pb.tryAppend(r) {
			break
		}
		n++
	}
	_ = rows
	page := pb.finish()
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
