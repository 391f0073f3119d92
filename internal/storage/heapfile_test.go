package storage

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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

// loadRow is row i of the Load tests: unique strings, so the rows cross
// pages every ~1 500 rows.
func loadRow(i int) types.Row {
	return types.Row{types.NewInt(int64(i)), types.NewString(strings.Repeat("x", i%30) + strconv.Itoa(i))}
}

// setRow writes r through w, datum by datum.
func setRow(w *RowWriter, r types.Row) {
	for c := range r {
		w.Set(c, &r[c])
	}
}

// filePages reads every page of f from the disk.
func filePages(t *testing.T, d Disk, f *HeapFile) [][]byte {
	t.Helper()
	pages := make([][]byte, f.NumPages())
	for i := range pages {
		pages[i] = make([]byte, PageSize)
		if err := readInto(d, f.ID(), i, pages[i]); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// Load writes the pages one Append of the same rows writes, calls fill once
// per row in row order, and seals the file, at row counts around the chunk.
func TestHeapFileLoadMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, loadChunkRows - 1, loadChunkRows, 3*loadChunkRows + 17, 10 * loadChunkRows} {
		c := newTestCatalog(t, 4)
		serial, _ := c.CreateTable("serial", kvSchema)
		loaded, _ := c.CreateTable("loaded", kvSchema)
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = loadRow(i)
		}
		if err := serial.File.Append(rows...); err != nil {
			t.Fatal(err)
		}
		if err := serial.File.Seal(); err != nil {
			t.Fatal(err)
		}
		next := 0
		err := loaded.File.Load(n, func(i int, row *RowWriter) {
			if i != next {
				t.Fatalf("n=%d: fill(%d), want fill(%d)", n, i, next)
			}
			next++
			setRow(row, loadRow(i))
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if next != n || loaded.File.NumRows() != n {
			t.Fatalf("n=%d: fill called %d times, %d rows loaded", n, next, loaded.File.NumRows())
		}
		want, got := filePages(t, c.Disk(), serial.File), filePages(t, c.Disk(), loaded.File)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Load wrote %d pages, Append %d, or their bytes differ", n, len(got), len(want))
		}
		if err := loaded.File.Append(loadRow(0)); err == nil {
			t.Fatalf("n=%d: Load left the file unsealed", n)
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// goroutine that signalled its exit may still be counted for a moment.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before the load", n, base)
	}
}

// A write fault in the middle of a Load is returned, stops fill and leaves no
// goroutine behind; the file keeps the pages written before the fault.
func TestHeapFileLoadFaultStopsFill(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 4)
	tbl, _ := c.CreateTable("t", kvSchema)
	base := runtime.NumGoroutine()
	const n = 100 * loadChunkRows
	fd.FailWritesAfter(2)
	filled := 0
	err := tbl.File.Load(n, func(i int, row *RowWriter) {
		filled++
		setRow(row, loadRow(i))
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Load = %v, want the injected write error", err)
	}
	if got := tbl.File.NumPages(); got != 2 {
		t.Errorf("NumPages = %d, want the 2 pages written before the fault", got)
	}
	if filled >= n {
		t.Errorf("fill ran for all %d rows after the fault", n)
	}
	waitGoroutines(t, base)
}

// Append moves the version when it admitted a row, even if a later flush of
// the same call fails: the page it flushed first is visible to scans.
func TestHeapFileAppendFaultStillBumpsVersion(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 4)
	tbl, _ := c.CreateTable("t", kvSchema)
	rows := make([]types.Row, 10*loadChunkRows)
	for i := range rows {
		rows[i] = loadRow(i)
	}
	before := tbl.File.Version()
	fd.FailWritesAfter(1)
	if err := tbl.File.Append(rows...); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append = %v, want the injected write error on the second flush", err)
	}
	if tbl.File.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", tbl.File.NumPages())
	}
	if tbl.File.Version() == before {
		t.Error("Version did not move, yet a page of the failed Append was flushed")
	}
}

// A schema a page cannot store is refused before any file is created: a
// column of KindNull, or of a kind past KindBool.
func TestCreateTableRefusesUnstorableKinds(t *testing.T) {
	for _, k := range []types.Kind{types.KindNull, types.KindBool + 1, 0xFF} {
		t.Run(k.String(), func(t *testing.T) {
			c := newTestCatalog(t, 4)
			schema := types.NewSchema(
				types.Column{Name: "k", Kind: types.KindInt},
				types.Column{Name: "x", Kind: k},
			)
			if _, err := c.CreateTable("t", schema); err == nil || !strings.Contains(err.Error(), `"x"`) {
				t.Fatalf("CreateTable with a %v column = %v, want an error naming the column", k, err)
			}
			if _, ok := c.Table("t"); ok {
				t.Error("the refused table is in the catalog")
			}
			if _, err := NewHeapFile(c.Disk(), c.Pool(), "h", schema); err == nil {
				t.Errorf("NewHeapFile with a %v column succeeded", k)
			}
			if _, err := c.CreateTable("t", kvSchema); err != nil {
				t.Errorf("the refused table left its name taken: %v", err)
			}
		})
	}
}

// Append refuses a datum of another kind than its column's with a
// *KindError naming the table, the column and both kinds. The rows before it
// in the same call are stored and move the version; nothing of the refused
// row is, so the next Append and Seal give pages that read back exactly the
// rows admitted. NULL is accepted in every column. A date in an int column,
// both carried in the int64 payload, is refused too.
func TestHeapFileAppendRefusesWrongKind(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "d", Kind: types.KindDate},
		types.Column{Name: "b", Kind: types.KindBool},
	)
	const n, k = 3000, 2000
	for bad, col := range schema.Cols {
		t.Run(col.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(bad)))
			rows := make([]types.Row, n)
			for i := range rows {
				rows[i] = make(types.Row, schema.Len())
				for c, cc := range schema.Cols {
					if r.Intn(10) == 0 {
						rows[i][c] = types.Null
					} else {
						rows[i][c] = randDatum(r, cc.Kind)
					}
				}
			}
			wrong := wrongKind(r, col.Kind)
			if col.Kind == types.KindInt {
				wrong = types.NewDate(7)
			}
			rows[k][bad] = wrong
			tbl, err := newTestCatalog(t, 16).CreateTable("t", schema)
			if err != nil {
				t.Fatal(err)
			}
			before := tbl.File.Version()
			err = tbl.File.Append(rows...)
			var ke *KindError
			if !errors.As(err, &ke) {
				t.Fatalf("Append = %v, want a *KindError", err)
			}
			if want := (KindError{Table: "t", Column: col.Name, Want: col.Kind, Got: wrong.K}); *ke != want {
				t.Fatalf("KindError = %+v, want %+v", *ke, want)
			}
			if got := tbl.File.NumRows(); got != k {
				t.Fatalf("NumRows = %d, want the %d rows before the refused one", got, k)
			}
			if tbl.File.Version() == before {
				t.Error("Version did not move, yet the rows before the refused one were admitted")
			}
			// A call whose first row is refused admits nothing.
			v := tbl.File.Version()
			if err := tbl.File.Append(rows[k:]...); !errors.As(err, &ke) {
				t.Fatalf("Append from the refused row = %v, want a *KindError", err)
			}
			if tbl.File.NumRows() != k || tbl.File.Version() != v {
				t.Errorf("a refused first row moved NumRows to %d or the version", tbl.File.NumRows())
			}
			if err := tbl.File.Append(rows[k+1:]...); err != nil {
				t.Fatal(err)
			}
			if err := tbl.File.Seal(); err != nil {
				t.Fatal(err)
			}
			want := append(rows[:k:k], rows[k+1:]...)
			got, err := tbl.File.AllRows()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("read back %d rows, want %d (or their values differ)", len(got), len(want))
			}
		})
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

// BenchmarkHeapFileAppend times bulk load's admitting side: one op is one
// Append of 4096 Datum rows, four of Load's chunks, into a heap file on a
// zero-latency MemDisk, so the cost is writing the rows into a chunk, block
// admission and page encoding. shape=lineorder is the SSB fact table's twelve int columns;
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
