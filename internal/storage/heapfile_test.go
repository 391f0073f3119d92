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
