package dimtab_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dimtab"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// indexBytesBound is how far a shared index may sit above what its entries
// fill: the recycler's size classes overshoot a request by at most an
// eighth.
const indexBytesBound = 1.13

// ssbIndexBytes bounds what the four SSB sf 0.1 dimension indexes hold
// together: 8 bytes a row a column, their small dictionaries and the size
// classes' overshoot come to 1.28 MB (string headers and page-by-page
// regrowth made it 3.39 MB).
const ssbIndexBytes = 1_400_000

// probeBytesPerEntry bounds an index's probe structures (direct array, rank
// words and first entries, hashed slots, chain) per entry: each form is
// built only up to the key density at which it stays within it.
const probeBytesPerEntry = 16

// dateProbeBytes bounds the SSB date index's probe structures: 2 557
// yyyymmdd keys spanning 61 131 values take the rank form (a direct array
// over the span held 245 KB).
const dateProbeBytes = 32 << 10

// filledBytes is what an index's entry batch fills: 8 bytes a row a column
// (an int, a float or a string's code) and 16 bytes a dictionary entry.
func filledBytes(b *vec.ColBatch) int64 {
	n := int64(8 * b.Len() * b.NumCols())
	for c := range b.NumCols() {
		n += 16 * int64(len(b.Col(c).Dict))
	}
	return n
}

// TestIndexHeldAtItsSize checks that a shared index holds its entries at
// their size: reserved to the source's row count before the first page, so
// no column is regrown across a multi-page build, and every string column
// kept as its codes over one sorted dictionary of the index's own, with no
// string headers. It logs the four SSB sf 0.1 dimension indexes and bounds
// their total, and each one's probe structures at the density of its keys.
func TestIndexHeldAtItsSize(t *testing.T) {
	const rows = 20000
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "qty", Kind: types.KindInt},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	)
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64)
	tbl, err := cat.CreateTable("dim", schema)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	regions := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	want := make([]types.Row, rows)
	for i := range want {
		want[i] = types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(r.Intn(50))),
			types.NewString(fmt.Sprintf("CITY %03d", r.Intn(250))), types.NewString(regions[r.Intn(5)]),
		}
	}
	if err := tbl.File.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if np := tbl.File.NumPages(); np < 2 {
		t.Fatalf("source has %d pages, want several", np)
	}
	ix, err := tbl.Indexes.Acquire(context.Background(), tbl.File, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Release()
	b := ix.Table().Batch()
	if b.Len() != rows {
		t.Fatalf("index holds %d entries, want %d", b.Len(), rows)
	}
	for _, c := range []int{2, 3} {
		v := b.Col(c)
		if !v.HasDict() || len(v.S) != 0 || !slices.IsSorted(v.Dict) {
			t.Fatalf("column %d: dictionary of %d entries (sorted %v), %d string headers; want a sorted dictionary and none",
				c, len(v.Dict), slices.IsSorted(v.Dict), len(v.S))
		}
		for e := range rows {
			if got := v.Str(e); got != want[e][c].S {
				t.Fatalf("column %d entry %d: %q, want %q", c, e, got, want[e][c].S)
			}
		}
	}
	got, filled := b.Bytes(), filledBytes(b)
	t.Logf("%d entries over %d pages: %d B held, %d B filled (%.3f×)",
		rows, tbl.File.NumPages(), got, filled, float64(got)/float64(filled))
	if float64(got) > indexBytesBound*float64(filled) {
		t.Errorf("index holds %d B for %d B of entries, want at most %.2f×", got, filled, indexBytesBound)
	}

	if testing.Short() {
		return
	}
	ssbCat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 4096)
	db, err := ssb.Generate(ssbCat, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, d := range []*storage.Table{db.Date, db.Customer, db.Supplier, db.Part} {
		ix, err := d.Indexes.Acquire(context.Background(), d.File, 0)
		if err != nil {
			t.Fatal(err)
		}
		tab := ix.Table()
		b := tab.Batch()
		got, filled, probe := b.Bytes(), filledBytes(b), dimtab.ProbeBytes(tab)
		t.Logf("ssb sf 0.1 %-8s index: %6d entries, %8d B held, %8d B filled (%.3f×); %s form, %6d B of probe structures",
			d.Name, b.Len(), got, filled, float64(got)/float64(filled), dimtab.FormOf(tab), probe)
		total += got
		if probe > probeBytesPerEntry*int64(b.Len()) {
			t.Errorf("%s index: %d B of probe structures for %d entries, want at most %d B an entry",
				d.Name, probe, b.Len(), probeBytesPerEntry)
		}
		if d == db.Date && probe > dateProbeBytes {
			t.Errorf("date index: %d B of probe structures, want at most %d", probe, dateProbeBytes)
		}
		ix.Release()
	}
	t.Logf("ssb sf 0.1 four dimension indexes: %d B", total)
	if total > ssbIndexBytes {
		t.Errorf("the four SSB sf 0.1 dimension indexes hold %d B, want at most %d", total, ssbIndexBytes)
	}
}
