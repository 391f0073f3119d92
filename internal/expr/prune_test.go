package expr_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// buildPruneTable loads a multi-page table whose pages have distinct zone
// characters: values clustered per block (so zone bounds are narrow), plus
// NULL-run, all-NULL and mixed-class stretches. Columns: 0 = clustered int
// (NULL runs), 1 = clustered string, 2 = int that turns mixed-class in some
// blocks, 3 = string padding (forces multiple pages).
func buildPruneTable(t *testing.T, r *rand.Rand) *storage.Table {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64, true)
	tbl, err := cat.CreateTable("p", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	const blocks, rowsPerBlock = 10, 130
	for blk := 0; blk < blocks; blk++ {
		flavor := blk % 5 // 0,1 normal; 2 NULL run; 3 all NULL; 4 mixed class
		base := int64(blk * 1000)
		for i := 0; i < rowsPerBlock; i++ {
			a := types.NewInt(base + r.Int63n(200))
			switch {
			case flavor == 3:
				a = types.Null
			case flavor == 2 && i%3 == 0:
				a = types.Null
			}
			b := types.NewString(fmt.Sprintf("k%02d-%03d", blk, r.Intn(100)))
			c := types.NewInt(r.Int63n(500))
			if flavor == 4 && i%7 == 0 {
				c = types.NewString("not-an-int") // mixed-class column
			}
			// Unique padding defeats dictionary compression so the table
			// spans several pages at a modest row count.
			pad := types.NewString(fmt.Sprintf("%0200d", r.Int63()))
			if err := tbl.File.Append(types.Row{a, b, c, pad}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if n := tbl.File.NumPages(); n < 4 {
		t.Fatalf("want a multi-page table, got %d pages", n)
	}
	return tbl
}

// randPred draws a random predicate over the table's columns, covering every
// shape CompilePrune handles plus shapes it must refuse (NULL literals,
// mixed-kind In sets, float constants).
func randPred(r *rand.Rand, depth int) expr.Expr {
	if depth > 0 && r.Intn(3) == 0 {
		l, rt := randPred(r, depth-1), randPred(r, depth-1)
		if r.Intn(2) == 0 {
			return expr.NewAnd(l, rt)
		}
		return expr.NewOr(l, rt)
	}
	ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	op := ops[r.Intn(len(ops))]
	switch r.Intn(8) {
	case 0: // int cmp on the clustered column
		k := expr.Int(r.Int63n(11000) - 500)
		if r.Intn(4) == 0 {
			return expr.NewCmp(op, k, expr.C(0, "a")) // mirrored operands
		}
		return expr.NewCmp(op, expr.C(0, "a"), k)
	case 1: // string cmp
		return expr.NewCmp(op, expr.C(1, "b"), expr.Str(fmt.Sprintf("k%02d-%03d", r.Intn(12), r.Intn(100))))
	case 2: // int between
		lo := r.Int63n(10000)
		return expr.NewBetween(expr.C(0, "a"), expr.Int(lo), expr.Int(lo+r.Int63n(600)))
	case 3: // string between
		lo := fmt.Sprintf("k%02d", r.Intn(10))
		return expr.NewBetween(expr.C(1, "b"), expr.Str(lo), expr.Str(lo+"-9"))
	case 4: // int In
		set := make([]types.Datum, 1+r.Intn(4))
		for i := range set {
			set[i] = types.NewInt(r.Int63n(11000))
		}
		return expr.NewIn(expr.C(0, "a"), set...)
	case 5: // cmp on the mixed-class column (must never prune on flavor-4 pages)
		return expr.NewCmp(op, expr.C(2, "c"), expr.Int(r.Int63n(600)))
	case 6: // NULL literal: false for every row, pruneNever for every page
		return expr.NewCmp(op, expr.C(0, "a"), expr.Const{D: types.Null})
	default: // mixed-kind In set: CompilePrune must stay conservative
		return expr.NewIn(expr.C(0, "a"), types.NewInt(r.Int63n(11000)), types.NewString("x"))
	}
}

// pageRows materializes one page of hf as rows.
func pageRows(t *testing.T, hf *storage.HeapFile, idx int) []types.Row {
	t.Helper()
	cb, err := hf.PageCols(idx)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	return cb.Rows()
}

// TestPruningEquivalenceProperty is the pruning ≡ no-pruning property: for
// random predicates over pages with NULL-run, all-NULL and mixed-class
// columns, a page whose zone check fails must contribute zero surviving
// rows, and the surviving multiset with pruning equals the one without.
func TestPruningEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tbl := buildPruneTable(t, r)
	hf := tbl.File
	for trial := 0; trial < 300; trial++ {
		pred := randPred(r, 2)
		rowPred := expr.Compile(pred)
		prune := expr.CompilePrune(pred)
		var withPrune, withoutPrune int
		for idx := 0; idx < hf.NumPages(); idx++ {
			rows := pageRows(t, hf, idx)
			surviving := 0
			for _, row := range rows {
				if rowPred(row) {
					surviving++
				}
			}
			withoutPrune += surviving
			zones := hf.PageZones(idx)
			if prune != nil && zones != nil && !prune(zones) {
				if surviving != 0 {
					t.Fatalf("trial %d: page %d pruned by %s but %d rows survive",
						trial, idx, pred.Signature(), surviving)
				}
				continue // pruned: contributes nothing
			}
			withPrune += surviving
		}
		if withPrune != withoutPrune {
			t.Fatalf("trial %d: pruning changed results for %s: %d != %d",
				trial, pred.Signature(), withPrune, withoutPrune)
		}
	}
}

// TestZoneBoundsSound checks the persisted zone maps directly: every non-NULL
// value on a page falls inside its column's advertised bounds, all-NULL
// columns carry the null-only flag (no usable bounds), and mixed-class
// columns report unknown.
func TestZoneBoundsSound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tbl := buildPruneTable(t, r)
	hf := tbl.File
	sawInt, sawStr, sawUnknown := false, false, false
	for idx := 0; idx < hf.NumPages(); idx++ {
		zones := hf.PageZones(idx)
		if zones == nil {
			t.Fatalf("page %d: no zone maps on a freshly built page", idx)
		}
		rows := pageRows(t, hf, idx)
		for col, z := range zones {
			allNull, mixed := true, false
			kinds := map[types.Kind]bool{}
			for _, row := range rows {
				d := row[col]
				if d.IsNull() {
					continue
				}
				allNull = false
				kinds[d.K] = true
				if z.Flags&storage.ZoneInt != 0 && d.K == types.KindInt {
					if d.I < z.MinI || d.I > z.MaxI {
						t.Fatalf("page %d col %d: value %d outside zone [%d,%d]", idx, col, d.I, z.MinI, z.MaxI)
					}
				}
				if z.Flags&storage.ZoneStr != 0 && d.K == types.KindString {
					if d.S < z.MinS || d.S > z.MaxS {
						t.Fatalf("page %d col %d: value %q outside zone [%q,%q]", idx, col, d.S, z.MinS, z.MaxS)
					}
				}
			}
			mixed = len(kinds) > 1
			switch {
			case allNull:
				if z.Flags&(storage.ZoneInt|storage.ZoneStr) != 0 {
					t.Fatalf("page %d col %d: all-NULL column advertises bounds (flags %b)", idx, col, z.Flags)
				}
			case mixed:
				if !z.Unknown() && z.Flags&(storage.ZoneInt|storage.ZoneStr) != 0 {
					t.Fatalf("page %d col %d: mixed-class column advertises bounds (flags %b)", idx, col, z.Flags)
				}
				sawUnknown = true
			}
			if z.Flags&storage.ZoneInt != 0 {
				sawInt = true
			}
			if z.Flags&storage.ZoneStr != 0 {
				sawStr = true
			}
		}
	}
	if !sawInt || !sawStr || !sawUnknown {
		t.Fatalf("test data did not exercise all zone classes: int=%v str=%v unknown=%v", sawInt, sawStr, sawUnknown)
	}
}

// TestPruneCheckZeroAlloc pins the hot-path contract: a compiled prune check
// runs once per (page, query) on the scan and annotate hot loops and must
// not allocate.
func TestPruneCheckZeroAlloc(t *testing.T) {
	zones := []storage.ZoneMap{
		{Flags: storage.ZoneInt, MinI: 0, MaxI: 1000},
		{Flags: storage.ZoneStr, MinS: "a", MaxS: "m"},
	}
	checks := map[string]expr.PruneCheck{
		"cmp":     expr.CompilePrune(expr.NewCmp(expr.LE, expr.C(0, "a"), expr.Int(500))),
		"between": expr.CompilePrune(expr.NewBetween(expr.C(0, "a"), expr.Int(10), expr.Int(20))),
		"in":      expr.CompilePrune(expr.NewIn(expr.C(0, "a"), types.NewInt(1), types.NewInt(2000))),
		"str":     expr.CompilePrune(expr.NewCmp(expr.GT, expr.C(1, "b"), expr.Str("x"))),
		"and-or": expr.CompilePrune(expr.NewAnd(
			expr.NewOr(
				expr.NewCmp(expr.EQ, expr.C(0, "a"), expr.Int(5)),
				expr.NewBetween(expr.C(1, "b"), expr.Str("a"), expr.Str("b"))),
			expr.NewIn(expr.C(1, "b"), types.NewString("c"), types.NewString("d")))),
	}
	for name, check := range checks {
		if check == nil {
			t.Fatalf("%s: CompilePrune returned nil", name)
		}
		if allocs := testing.AllocsPerRun(1000, func() { _ = check(zones) }); allocs != 0 {
			t.Fatalf("%s: prune check allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkPruneCheck measures the per-page prune decision (the CI gate
// asserts 0 allocs/op).
func BenchmarkPruneCheck(b *testing.B) {
	zones := []storage.ZoneMap{
		{Flags: storage.ZoneInt, MinI: 19920101, MaxI: 19921231},
		{Flags: storage.ZoneStr, MinS: "aaa", MaxS: "mmm"},
	}
	check := expr.CompilePrune(expr.NewAnd(
		expr.NewBetween(expr.C(0, "d"), expr.Int(19930101), expr.Int(19930601)),
		expr.NewIn(expr.C(1, "s"), types.NewString("abc"), types.NewString("zzz"))))
	b.ReportAllocs()
	hits := 0
	for i := 0; i < b.N; i++ {
		if check(zones) {
			hits++
		}
	}
	if hits != 0 {
		b.Fatalf("page unexpectedly matched %d times", hits)
	}
}
