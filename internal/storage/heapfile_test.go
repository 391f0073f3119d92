package storage

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/types"
)

func newTestCatalog(t *testing.T, poolPages int) *Catalog {
	t.Helper()
	return NewCatalog(NewMemDisk(DiskProfile{}), poolPages)
}

var kvSchema = types.NewSchema(
	types.Column{Name: "k", Kind: types.KindInt},
	types.Column{Name: "v", Kind: types.KindString},
)

func TestHeapFileRoundTrip(t *testing.T) {
	c := newTestCatalog(t, 16)
	tbl, err := c.CreateTable("t", kvSchema)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	var want []types.Row
	for i := 0; i < 5000; i++ {
		// Unique strings so the page dictionary cannot collapse the column —
		// the round trip must cross several pages.
		row := types.Row{types.NewInt(int64(i)), types.NewString(strings.Repeat("x", r.Intn(30)) + strconv.Itoa(i))}
		want = append(want, row)
	}
	if err := tbl.File.Append(want...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if tbl.File.NumRows() != len(want) {
		t.Fatalf("NumRows = %d, want %d", tbl.File.NumRows(), len(want))
	}
	if tbl.File.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", tbl.File.NumPages())
	}
	got, err := tbl.File.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row mismatch: got %d rows want %d", len(got), len(want))
	}
}

func TestHeapFileAppendAfterSealFails(t *testing.T) {
	c := newTestCatalog(t, 4)
	tbl, _ := c.CreateTable("t", kvSchema)
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Append(types.Row{types.NewInt(1), types.NewString("a")}); err == nil {
		t.Error("append after seal must fail")
	}
}

func TestHeapFileRejectsWrongWidth(t *testing.T) {
	c := newTestCatalog(t, 4)
	tbl, _ := c.CreateTable("t", kvSchema)
	if err := tbl.File.Append(types.Row{types.NewInt(1)}); err == nil {
		t.Error("row narrower than schema must fail")
	}
}

func TestHeapFileRejectsOversizeRow(t *testing.T) {
	c := newTestCatalog(t, 4)
	tbl, _ := c.CreateTable("t", kvSchema)
	huge := types.Row{types.NewInt(1), types.NewString(strings.Repeat("z", PageSize))}
	if err := tbl.File.Append(huge); err == nil {
		t.Error("row larger than a page must fail")
	}
}

func TestHeapFileSealIdempotent(t *testing.T) {
	c := newTestCatalog(t, 4)
	tbl, _ := c.CreateTable("t", kvSchema)
	if err := tbl.File.Append(types.Row{types.NewInt(1), types.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if tbl.File.NumPages() != 1 {
		t.Errorf("NumPages = %d, want 1", tbl.File.NumPages())
	}
}

func TestCatalogDuplicateTable(t *testing.T) {
	c := newTestCatalog(t, 4)
	if _, err := c.CreateTable("t", kvSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", kvSchema); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, ok := c.Table("t"); !ok {
		t.Error("lookup of existing table failed")
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("lookup of missing table succeeded")
	}
	if got := c.Tables(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Tables = %v", got)
	}
}

func TestCatalogMustTablePanics(t *testing.T) {
	c := newTestCatalog(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("MustTable of unknown table must panic")
		}
	}()
	c.MustTable("missing")
}

// BenchmarkHeapFileAppend times bulk load: one op is one Append of a
// 4096-row chunk, the chunk the generators hand over, into a heap file on a
// zero-latency MemDisk, so the cost is row admission, staging and page
// encoding. shape=lineorder is the SSB fact table's twelve int columns;
// shape=mixed is an int key, a float and a 25-value string column.
func BenchmarkHeapFileAppend(b *testing.B) {
	const chunk = 4096
	nations := make([]string, 25)
	for i := range nations {
		nations[i] = "NATION#" + strconv.Itoa(i)
	}
	shapes := []struct {
		name   string
		schema *types.Schema
		row    func(r *rand.Rand, i int) types.Row
	}{
		{"lineorder", types.NewSchema(func() []types.Column {
			cols := make([]types.Column, 12)
			for i := range cols {
				cols[i] = types.Column{Name: "c" + strconv.Itoa(i), Kind: types.KindInt}
			}
			return cols
		}()...), func(r *rand.Rand, i int) types.Row {
			qty := int64(1 + r.Intn(50))
			price := int64(90000+r.Intn(1000000)) * qty / 25
			disc := int64(r.Intn(11))
			return types.Row{
				types.NewInt(int64(i / 4)), types.NewInt(int64(1 + i%4)),
				types.NewInt(1 + r.Int63n(3000)), types.NewInt(1 + r.Int63n(20000)), types.NewInt(1 + r.Int63n(200)),
				types.NewInt(int64(19920101 + r.Intn(7)*10000 + r.Intn(12)*100 + r.Intn(28))),
				types.NewInt(qty), types.NewInt(price), types.NewInt(disc), types.NewInt(price * (100 - disc) / 100),
				types.NewInt(price * int64(40+r.Intn(30)) / 100 / 4), types.NewInt(int64(r.Intn(9))),
			}
		}},
		{"mixed", types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt},
			types.Column{Name: "f", Kind: types.KindFloat},
			types.Column{Name: "s", Kind: types.KindString},
		), func(r *rand.Rand, i int) types.Row {
			return types.Row{types.NewInt(int64(i)), types.NewFloat(r.NormFloat64() * 1e3), types.NewString(nations[r.Intn(len(nations))])}
		}},
	}
	for _, sh := range shapes {
		b.Run("shape="+sh.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			rows := make([]types.Row, chunk)
			for i := range rows {
				rows[i] = sh.row(r, i)
			}
			var disk *MemDisk
			var file *HeapFile
			fresh := func() { // keep what the disk holds bounded
				if disk != nil {
					disk.Close()
				}
				disk = NewMemDisk(DiskProfile{})
				tbl, err := NewCatalog(disk, 4).CreateTable("t", sh.schema)
				if err != nil {
					b.Fatal(err)
				}
				file = tbl.File
			}
			fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if file.NumPages() >= 256 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				if err := file.Append(rows...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			disk.Close()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk*sh.schema.Len()), "ns/datum")
		})
	}
}
