package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/types"
)

// The load paths' differential test. Load, filled through the typed setters,
// admits its chunks a block of rows at a time; Append of one row at a time
// admits every row alone, so its cut is the greedy one by construction;
// Append in random batches cuts its chunks anywhere. All three must write
// the same pages byte for byte, store the same rows, refuse the same datum,
// and move the version exactly when they admitted a row.

// loadCase is a table to load three ways.
type loadCase struct {
	name  string
	kinds []types.Kind
	rows  []types.Row
}

// loaded is what one way of loading left.
type loaded struct {
	pages   [][]byte
	numRows int
	refused *KindError // with Table cleared, so the ways compare
}

func (c loadCase) schema() *types.Schema {
	cols := make([]types.Column, len(c.kinds))
	for i, k := range c.kinds {
		cols[i] = types.Column{Name: "c" + strconv.Itoa(i), Kind: k}
	}
	return types.NewSchema(cols...)
}

// loadEachWay loads c through Load in chunks, Append one row at a time and
// Append in random batches, stopping each at its first error, then seals
// each file and reads its pages back.
func loadEachWay(t *testing.T, c loadCase, r *rand.Rand) [3]loaded {
	t.Helper()
	disk := NewMemDisk(DiskProfile{})
	t.Cleanup(func() { disk.Close() })
	cat := NewCatalog(disk, 4)
	var out [3]loaded
	for way := range out {
		tbl, err := cat.CreateTable(fmt.Sprintf("%s-%d", c.name, way), c.schema())
		if err != nil {
			t.Fatal(err)
		}
		f := tbl.File
		switch way {
		case 0:
			v0 := f.Version()
			err = f.Load(len(c.rows), func(i int, w *RowWriter) { setTyped(w, c.rows[i]) })
			if moved := f.Version() != v0; err != nil && moved != (f.NumRows() > 0) {
				t.Fatalf("%s: Load failed with %d rows stored, yet the version moved: %v", c.name, f.NumRows(), moved)
			}
		default:
			for rows := c.rows; len(rows) > 0 && err == nil; {
				n := 1
				if way == 2 {
					n = min(len(rows), 1+r.Intn(3000))
				}
				v0, n0 := f.Version(), f.NumRows()
				err = f.Append(rows[:n]...)
				if moved := f.Version() != v0; moved != (f.NumRows() > n0) {
					t.Fatalf("%s: way %d: Append of %d rows stored %d, version moved %v",
						c.name, way, n, f.NumRows()-n0, moved)
				}
				rows = rows[n:]
			}
		}
		var ke *KindError
		if errors.As(err, &ke) {
			ke.Table = ""
			out[way].refused = ke
		} else if err != nil {
			t.Fatalf("%s: way %d: %v", c.name, way, err)
		}
		if err := f.Seal(); err != nil {
			t.Fatal(err)
		}
		out[way].pages = filePages(t, disk, f)
		out[way].numRows = f.NumRows()
	}
	return out
}

// setTyped writes r through w's setter of each datum's kind, as a generator
// does, where setRow goes through Set.
func setTyped(w *RowWriter, r types.Row) {
	for c, d := range r {
		switch d.K {
		case types.KindNull:
			w.Null(c)
		case types.KindInt:
			w.Int(c, d.I)
		case types.KindDate:
			w.Date(c, d.I)
		case types.KindBool:
			w.Bool(c, d.I != 0)
		case types.KindFloat:
			w.Float(c, d.F)
		default:
			w.Str(c, d.S)
		}
	}
}

// checkWaysAgree loads c each way and fails unless they agree.
func checkWaysAgree(t *testing.T, c loadCase, r *rand.Rand) [3]loaded {
	t.Helper()
	got := loadEachWay(t, c, r)
	names := [3]string{"Load", "Append by row", "Append in batches"}
	for way := 1; way < 3; way++ {
		a, b := got[0], got[way]
		if a.numRows != b.numRows || !reflect.DeepEqual(a.refused, b.refused) {
			t.Fatalf("%s: %s stored %d rows and refused %+v; %s %d and %+v",
				c.name, names[0], a.numRows, a.refused, names[way], b.numRows, b.refused)
		}
		if len(a.pages) != len(b.pages) {
			t.Fatalf("%s: %s wrote %d pages, %s %d", c.name, names[0], len(a.pages), names[way], len(b.pages))
		}
		for p := range a.pages {
			if !reflect.DeepEqual(a.pages[p], b.pages[p]) {
				t.Fatalf("%s: page %d of %d differs between %s (%d rows) and %s (%d rows)", c.name, p, len(a.pages),
					names[0], pageRows(a.pages[p]), names[way], pageRows(b.pages[p]))
			}
		}
	}
	return got
}

// pageRows is a page's row count.
func pageRows(page []byte) int { return int(page[3]) | int(page[4])<<8 }

// Random schemas over every stored kind, with NULL runs and value profiles
// that switch partway (colGen), some rows carrying a datum of another kind.
func TestLoadPathsAgreeOnRandomTables(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		gens := make([]*colGen, 1+r.Intn(12))
		kinds := make([]types.Kind, len(gens))
		for i := range gens {
			gens[i] = newColGen(r)
			kinds[i] = gens[i].kind
		}
		rows := make([]types.Row, r.Intn(6000))
		for i := range rows {
			rows[i] = make(types.Row, len(gens))
			for c, g := range gens {
				rows[i][c] = g.next(r)
			}
		}
		if len(rows) > 0 && r.Intn(3) == 0 {
			bad, c := r.Intn(len(rows)), r.Intn(len(gens))
			rows[bad][c] = wrongKind(r, kinds[c])
		}
		checkWaysAgree(t, loadCase{name: fmt.Sprintf("trial %d", trial), kinds: kinds, rows: rows}, r)
	}
}

// The cases where a cut is easiest to get wrong.
func TestLoadPathsAgreeAtBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var cases []loadCase
	add := func(name string, kinds []types.Kind, n int, row func(i int) types.Row) {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		cases = append(cases, loadCase{name, kinds, rows})
	}
	str := func(i int) types.Datum { return types.NewString("s" + strconv.Itoa(i)) }

	// A column's first value after a NULL prefix, on a page without room
	// for one more row: its class bound is smaller than classNull's, so the
	// page's bound shrinks there. See firstValueAtTheCut.
	cases = append(cases, firstValueAtTheCut(t))
	add("null-prefix-then-values", []types.Kind{types.KindInt, types.KindFloat, types.KindString}, 5000, func(i int) types.Row {
		row := types.Row{types.NewInt(int64(i)), types.Null, types.Null}
		if i >= 1500 {
			row[1] = types.NewFloat(float64(i))
		}
		if i >= 1531 {
			row[2] = str(i % 7)
		}
		return row
	})

	// Dictionaries of 256 entries (8-bit codes) and 257 (9-bit), and a
	// 257th entry arriving when the wider codes no longer fit the page.
	for _, n := range []int{256, 257} {
		add(fmt.Sprintf("dict-%d", n), []types.Kind{types.KindString}, 40000, func(i int) types.Row {
			return types.Row{str(i % n)}
		})
	}
	const at = 15300 // rows 0..at fit at 8-bit codes, not at 9
	add("dict-257th-at-the-cut", []types.Kind{types.KindInt, types.KindString}, 30000, func(i int) types.Row {
		if i == at {
			return types.Row{types.NewInt(int64(i % 200)), str(256)}
		}
		return types.Row{types.NewInt(int64(i % 200)), str(i % 256)}
	})
	ref := &refPage{}
	for i, row := range cases[len(cases)-1].rows[:at+1] {
		if fits := ref.add(row) <= PageSize; fits != (i < at) {
			t.Fatalf("dict-257th-at-the-cut: row %d fits = %v: the 257th entry must arrive as the page's first overflow", i, fits)
		}
	}

	// Frame-of-reference spans at delta width edges (8, 9, 16, 17, 32, 33
	// and 64 bits), whole pages of them and a widening value arriving late
	// in a page.
	for _, span := range []uint64{0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFFFFFF, 0x100000000, math.MaxUint64} {
		base := int64(-1 << 20)
		if span == math.MaxUint64 {
			base = math.MinInt64
		}
		add(fmt.Sprintf("span-%#x", span), []types.Kind{types.KindInt}, 40000, func(i int) types.Row {
			return types.Row{types.NewInt(base + int64([]uint64{0, span / 2, span}[i%3]))}
		})
		add(fmt.Sprintf("span-%#x-late", span), []types.Kind{types.KindDate, types.KindInt}, 30000, func(i int) types.Row {
			v := base + int64(i%0xF0)
			if i%9000 == 8999 {
				v = base + int64(span)
			}
			return types.Row{types.NewDate(v), types.NewInt(int64(i))}
		})
	}

	// Zero-width columns only: a constant int, a constant bool, one string
	// and a column of NULLs, so maxPageRows cuts the pages, not their size.
	add("max-page-rows", []types.Kind{types.KindInt, types.KindBool, types.KindString, types.KindFloat}, 2*maxPageRows+100, func(i int) types.Row {
		return types.Row{types.NewInt(7), types.NewBool(true), types.NewString("x"), types.Null}
	})

	for _, c := range cases {
		got := checkWaysAgree(t, c, r)
		if got[0].refused != nil || got[0].numRows != len(c.rows) {
			t.Fatalf("%s: stored %d of %d rows, refused %+v", c.name, got[0].numRows, len(c.rows), got[0].refused)
		}
		if c.name == "max-page-rows" {
			for p, page := range got[0].pages[:2] {
				if pageRows(page) != maxPageRows {
					t.Errorf("%s: page %d holds %d rows, want maxPageRows", c.name, p, pageRows(page))
				}
			}
		}
	}
}

// firstValueAtTheCut builds the sharpest first-value case: a wide int column
// (8 bytes a row), a string column NULL up to one row, and a constant string
// column whose length tunes the page's fixed bytes. The first K rows fit and
// row K overflows the page, yet rows 0..K+1, with the string column's first
// value at row K+1, fit again: the empty string's dictionary bound is 13
// bytes under classNull's, more than the 8 the int column grows by. Row K+1
// ends a 64-row block, so a builder that checked the bound only at a block's
// end would take rows K and K+1 onto the page.
func firstValueAtTheCut(t *testing.T) loadCase {
	t.Helper()
	kinds := []types.Kind{types.KindInt, types.KindString, types.KindString}
	r := rand.New(rand.NewSource(2))
	for l := 0; l < 1000; l++ {
		pad := types.NewString(string(make([]byte, l)))
		row := func(first bool) types.Row {
			a := types.Null
			if first {
				a = types.NewString("")
			}
			return types.Row{types.NewInt(r.Int63() - r.Int63()), a, pad}
		}
		ref := &refPage{}
		var rows []types.Row
		for {
			rows = append(rows, row(false))
			if ref.add(rows[len(rows)-1]) > PageSize {
				break
			}
		}
		k := len(rows) - 1 // rows 0..k-1 fit, row k does not
		if (k+2)%64 != 0 {
			continue
		}
		rows = append(rows, row(true))
		if ref.add(rows[k+1]) > PageSize {
			continue
		}
		for len(rows) < 3*k {
			rows = append(rows, row(false))
		}
		return loadCase{name: fmt.Sprintf("first-value-at-the-cut (pad %d)", l), kinds: kinds, rows: rows}
	}
	t.Fatal("no pad length puts a shrinking first value at a block's end")
	return loadCase{}
}
