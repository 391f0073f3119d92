package expr

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// dictBatch builds a batch whose string column is dictionary-coded exactly
// as the page decoder produces it (sorted unique dictionary, codes in the
// int payload, no string headers), alongside an identical plain batch
// (string headers only). Kernels must treat the two identically.
func dictBatch(n int, vals []string, seed int64) (dict, plain *vec.ColBatch, rows []types.Row) {
	r := rand.New(rand.NewSource(seed))
	sorted := append([]string(nil), vals...)
	sort.Strings(sorted)
	code := make(map[string]int64, len(sorted))
	for i, s := range sorted {
		code[s] = int64(i)
	}

	dict = vec.Get(2)
	plain = vec.Get(2)
	dv, pv := dict.Col(0), plain.Col(0)
	dv.SetRows(types.KindString, n)
	di := dv.BulkI(n)
	d := dv.BulkDict(len(sorted))
	copy(d, sorted)
	rows = make([]types.Row, n)
	for i := 0; i < n; i++ {
		s := vals[r.Intn(len(vals))]
		di[i] = code[s]
		pv.AppendDatum(types.NewString(s))
		other := types.NewInt(int64(i))
		dict.Col(1).AppendDatum(other)
		plain.Col(1).AppendDatum(other)
		rows[i] = types.Row{types.NewString(s), other}
	}
	dict.Seal(n)
	plain.Seal(n)
	return dict, plain, rows
}

// dictPreds covers every dictionary fast path with constants that are dict
// members, absent-but-inside, below-all and above-all.
func dictPreds() []Expr {
	col := C(0, "s")
	var ps []Expr
	for _, k := range []string{"delta", "cccc", "", "zzzz", "alpha", "omega"} {
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			ps = append(ps, NewCmp(op, col, Str(k)))
		}
	}
	ps = append(ps,
		NewBetween(col, Str("beta"), Str("omega")),
		NewBetween(col, Str("a"), Str("b")),        // below every entry
		NewBetween(col, Str("zz"), Str("zzz")),     // above every entry
		NewBetween(col, Str("omega"), Str("beta")), // empty range
		NewIn(col, types.NewString("alpha"), types.NewString("zeta")),
		NewIn(col, types.NewString("nope"), types.NewString("nada")),
		NewIn(col, types.NewString("delta"), types.NewString("delta"), types.NewString("gamma")),
		NewAnd(NewCmp(GE, col, Str("beta")), NewCmp(LT, col, Str("omega"))),
		NewOr(NewCmp(EQ, col, Str("alpha")), NewCmp(EQ, col, Str("zeta"))),
	)
	return ps
}

// TestDictKernelsMatchScalarAndPlain checks the encoded-data fast paths:
// for every dictionary predicate shape, evaluating over the dictionary-
// coded batch, the plain string batch and Eval on each row all agree row
// by row.
func TestDictKernelsMatchScalarAndPlain(t *testing.T) {
	vals := []string{"alpha", "beta", "delta", "gamma", "omega", "zeta"}
	db, pb, rows := dictBatch(512, vals, 9)
	defer db.Release()
	defer pb.Release()
	var scr vec.Scratch
	outD := make([]int32, db.Len())
	outP := make([]int32, pb.Len())
	for _, e := range dictPreds() {
		vp := CompileVec(e)
		selD := vp(db, db.AllSel(), outD, &scr)
		selP := vp(pb, pb.AllSel(), outP, &scr)
		if len(selD) != len(selP) {
			t.Fatalf("%s: dict selected %d rows, plain %d", e.Signature(), len(selD), len(selP))
		}
		for i := range selD {
			if selD[i] != selP[i] {
				t.Fatalf("%s: selection %d: dict row %d, plain row %d", e.Signature(), i, selD[i], selP[i])
			}
		}
		j := 0
		for i, row := range rows {
			inSel := j < len(selD) && selD[j] == int32(i)
			if inSel {
				j++
			}
			if want := e.Eval(row).Bool(); inSel != want {
				t.Errorf("%s: row %d (%q): dict=%v scalar=%v", e.Signature(), i, row[0].S, inSel, want)
			}
		}
	}
}

// TestDictKernelsSingleEntryDict pins the degenerate single-value column
// (code width zero on disk): every comparison still agrees with Eval.
func TestDictKernelsSingleEntryDict(t *testing.T) {
	db, pb, rows := dictBatch(64, []string{"only"}, 3)
	defer db.Release()
	defer pb.Release()
	var scr vec.Scratch
	out := make([]int32, db.Len())
	for _, e := range []Expr{
		NewCmp(EQ, C(0, "s"), Str("only")),
		NewCmp(NE, C(0, "s"), Str("only")),
		NewCmp(LT, C(0, "s"), Str("only")),
		NewCmp(GE, C(0, "s"), Str("aaa")),
		NewIn(C(0, "s"), types.NewString("only")),
		NewIn(C(0, "s"), types.NewString("other")),
	} {
		sel := CompileVec(e)(db, db.AllSel(), out, &scr)
		j := 0
		for i, row := range rows {
			inSel := j < len(sel) && sel[j] == int32(i)
			if inSel {
				j++
			}
			if want := e.Eval(row).Bool(); inSel != want {
				t.Errorf("%s: row %d: dict=%v scalar=%v", e.Signature(), i, inSel, want)
			}
		}
	}
}

// TestDictKernelsZeroAlloc locks in the per-page cost of the encoded fast
// paths: translating constants to code bounds and scanning codes allocates
// nothing.
func TestDictKernelsZeroAlloc(t *testing.T) {
	vals := []string{"alpha", "beta", "delta", "gamma", "omega", "zeta"}
	db, pb, _ := dictBatch(512, vals, 11)
	defer db.Release()
	defer pb.Release()
	var scr vec.Scratch
	out := make([]int32, db.Len())
	for _, e := range []Expr{
		NewCmp(EQ, C(0, "s"), Str("delta")),
		NewCmp(LT, C(0, "s"), Str("gamma")),
		NewBetween(C(0, "s"), Str("beta"), Str("omega")),
		NewIn(C(0, "s"), types.NewString("alpha"), types.NewString("zeta")),
	} {
		vp := CompileVec(e)
		vp(db, db.AllSel(), out, &scr) // warm-up
		allocs := testing.AllocsPerRun(50, func() {
			vp(db, db.AllSel(), out, &scr)
		})
		if allocs != 0 {
			t.Errorf("%s: dictionary kernel allocates %v objects per page, want 0", e.Signature(), allocs)
		}
	}
}

// BenchmarkDictVsStringCompare measures the encoded-data win: equality over
// a dictionary-coded column (int compares on codes) against the same
// predicate over plain string headers.
func BenchmarkDictVsStringCompare(b *testing.B) {
	vals := make([]string, 40)
	for i := range vals {
		vals[i] = fmt.Sprintf("UNITED KI%02d", i)
	}
	db, pb, _ := dictBatch(4096, vals, 17)
	defer db.Release()
	defer pb.Release()
	e := NewCmp(EQ, C(0, "s"), Str(vals[7]))
	vp := CompileVec(e)
	var scr vec.Scratch
	out := make([]int32, db.Len())
	b.Run("dict-codes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vp(db, db.AllSel(), out, &scr)
		}
	})
	b.Run("string-headers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vp(pb, pb.AllSel(), out, &scr)
		}
	})
}

// TestDictColsCompareMatchesEval pins the column-to-column string compare
// over dictionary-coded columns, which hold codes and no string headers: a
// coded column against a plain one, either way round, and against another
// coded one (each with a dictionary of its own), under every operator,
// selects exactly the rows Eval holds for.
func TestDictColsCompareMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vals := []string{"alpha", "beta", "delta", "gamma", "omega", ""}
	const n = 300
	a, b := make([]string, n), make([]string, n)
	for i := range a {
		a[i], b[i] = vals[r.Intn(len(vals))], vals[r.Intn(len(vals)-2)]
	}
	var scr vec.Scratch
	out := make([]int32, n)
	for _, form := range []struct {
		name           string
		codedA, codedB bool
	}{{"coded vs plain", true, false}, {"plain vs coded", false, true}, {"coded vs coded", true, true}} {
		cb := vec.Get(2)
		fillStrings(cb.Col(0), a, form.codedA)
		fillStrings(cb.Col(1), b, form.codedB)
		cb.Seal(n)
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			e := NewCmp(op, C(0, "a"), C(1, "b"))
			sel := CompileVec(e)(cb, cb.AllSel(), out, &scr)
			j := 0
			for i := range n {
				in := j < len(sel) && sel[j] == int32(i)
				if in {
					j++
				}
				if want := e.Eval(types.Row{types.NewString(a[i]), types.NewString(b[i])}).Bool(); in != want {
					t.Fatalf("%s %s row %d (%q, %q): kernel %v, Eval %v", form.name, e.Signature(), i, a[i], b[i], in, want)
				}
			}
		}
		cb.Release()
	}
}

// fillStrings fills v, an empty column, with strs: dictionary-coded as the
// page decoder leaves it (sorted distinct entries, codes, no string
// headers), or plain.
func fillStrings(v *vec.Vec, strs []string, coded bool) {
	if !coded {
		for _, s := range strs {
			v.AppendDatum(types.NewString(s))
		}
		return
	}
	dict := append([]string(nil), strs...)
	sort.Strings(dict)
	k := 0
	for _, s := range dict {
		if k == 0 || dict[k-1] != s {
			dict[k] = s
			k++
		}
	}
	dict = dict[:k]
	v.SetRows(types.KindString, len(strs))
	codes := v.BulkI(len(strs))
	copy(v.BulkDict(len(dict)), dict)
	for i, s := range strs {
		codes[i] = int64(sort.SearchStrings(dict, s))
	}
}
