package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// testBatch builds a homogeneous SSB-shaped batch: int, date, string and
// float columns — the shapes the typed kernels specialize for.
func testBatch(n int) (*vec.ColBatch, []types.Row) {
	r := rand.New(rand.NewSource(5))
	b := vec.Get(4)
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(r.Int63n(50)),
			types.NewDate(8000 + r.Int63n(2500)),
			types.NewString(fmt.Sprintf("REG%d", r.Intn(5))),
			types.NewFloat(r.Float64() * 100),
		}
		rows[i] = row
		b.AppendRow(row)
	}
	b.Seal(n)
	return b, rows
}

// compileTestLayouts are the column kinds compileTestExprs runs over: every
// kind in every column position the predicates reference, so each kernel
// meets each column kind and constants of its own and of other classes.
var compileTestLayouts = [][3]types.Kind{
	{types.KindInt, types.KindString, types.KindFloat},
	{types.KindFloat, types.KindInt, types.KindDate},
	{types.KindDate, types.KindBool, types.KindString},
	{types.KindString, types.KindFloat, types.KindInt},
	{types.KindBool, types.KindDate, types.KindFloat},
	{types.KindNull, types.KindNull, types.KindNull},
}

// compileTestRows builds rows of one layout: each column NULL or of its
// kind, with the values the predicates' constants hit (42, 41.5, "EUROPE",
// integral floats, dates around the constants) among random ones. The first
// row is all NULL.
func compileTestRows(layout [3]types.Kind) []types.Row {
	r := rand.New(rand.NewSource(99))
	value := func(k types.Kind) types.Datum {
		if r.Intn(8) == 0 {
			return types.Null
		}
		switch k {
		case types.KindInt:
			return types.NewInt([]int64{0, 42, -7, 17, 2, int64(r.Intn(100) - 50)}[r.Intn(6)])
		case types.KindFloat:
			return types.NewFloat([]float64{0, 42, 41.5, 2.5, -7, float64(r.Intn(2000))/10 - 100}[r.Intn(6)])
		case types.KindString:
			return types.NewString([]string{"", "ASIA", "EUROPE", "zzz", "17", fmt.Sprintf("s-%d", r.Intn(10))}[r.Intn(6)])
		case types.KindDate:
			return types.DateFromYMD(1992+r.Intn(8), 1+r.Intn(12), 1)
		case types.KindBool:
			return types.NewBool(r.Intn(2) == 0)
		}
		return types.Null
	}
	rows := []types.Row{{types.Null, types.Null, types.Null}}
	for i := 0; i < 60; i++ {
		rows = append(rows, types.Row{value(layout[0]), value(layout[1]), value(layout[2])})
	}
	return rows
}

// compileTestExprs covers every predicate shape: each kernel's col/const,
// mirrored, col/col and NULL variants, the shapes without a kernel, and
// boolean combinations.
func compileTestExprs() []Expr {
	var ps []Expr
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		ps = append(ps,
			NewCmp(op, C(0, "a"), Int(42)),
			NewCmp(op, C(0, "a"), Float(41.5)),
			NewCmp(op, C(0, "a"), Float(42)), // integral float const
			NewCmp(op, C(1, "b"), Str("EUROPE")),
			NewCmp(op, Int(42), C(0, "a")), // mirrored const-col
			NewCmp(op, C(0, "a"), C(2, "c")),
			NewCmp(op, C(0, "a"), Const{D: types.Null}),
			NewCmp(op, C(0, "a"), Date(1995, 6, 15)),
			NewCmp(op, NewArith(Add, C(0, "a"), Int(1)), Int(10)),   // generic fallback
			NewCmp(op, C(2, "c"), NewArith(Mul, C(0, "a"), Int(2))), // col vs expression
			NewCmp(op, Int(1), Float(1)),                            // const vs const
		)
	}
	ps = append(ps,
		NewBetween(C(0, "a"), Int(-10), Int(40)),
		NewBetween(C(0, "a"), Date(1993, 1, 1), Date(1998, 1, 1)),
		NewBetween(C(0, "a"), Float(-10.5), Float(40.5)),
		NewBetween(C(2, "c"), Int(0), Int(100)),
		NewBetween(NewArith(Mul, C(2, "c"), Int(2)), Int(0), Int(50)),
		NewBetween(C(0, "a"), Int(10), Const{D: types.Null}),
		NewIn(C(1, "b"), types.NewString("ASIA"), types.NewString("EUROPE")),
		NewIn(C(0, "a"), types.NewInt(42), types.NewInt(-7), types.NewInt(0)),
		NewIn(C(0, "a"), types.NewInt(17), types.NewString("17")), // set of two classes
		NewIn(C(2, "c"), types.NewFloat(42), types.NewInt(2)),
		NewIn(C(0, "a")), // empty set
		// Shapes without a kernel, evaluated through the Eval fallback.
		NewBetween(C(0, "a"), C(2, "c"), Int(50)),                                    // column bound
		NewIn(NewArith(Add, C(0, "a"), Int(1)), types.NewInt(43), types.NewFloat(1)), // non-column operand
		NewArith(Add, C(0, "a"), Int(1)),                                             // non-predicate node
		Const{D: types.NewBool(true)},
		Const{D: types.NewBool(false)},
		Const{D: types.NewInt(1)}, // non-bool const is false
		C(0, "a"),                 // non-bool column is false
	)
	// Boolean combinations of a few base predicates.
	base := []Expr{
		NewCmp(GE, C(0, "a"), Int(0)),
		NewIn(C(1, "b"), types.NewString("s-1"), types.NewString("s-2")),
		NewBetween(C(2, "c"), Float(-50), Float(50)),
	}
	ps = append(ps,
		NewAnd(base...),
		NewOr(base...),
		Not{E: base[0]},
		NewAnd(base[0], Not{E: base[1]}),
		NewOr(Not{E: base[2]}, NewAnd(base[0], base[1])),
	)
	return ps
}

// ssbPreds are the predicate shapes that dominate the workload templates.
func ssbPreds() []Expr {
	return []Expr{
		NewBetween(C(0, "qty"), Int(10), Int(25)),
		NewCmp(LT, C(1, "date"), Const{D: types.NewDate(9000)}),
		NewCmp(EQ, C(2, "region"), Str("REG2")),
		NewIn(C(0, "qty"), types.NewInt(3), types.NewInt(7), types.NewInt(11)),
		NewIn(C(2, "region"), types.NewString("REG0"), types.NewString("REG4")),
		NewAnd(
			NewBetween(C(0, "qty"), Int(5), Int(40)),
			NewCmp(GE, C(3, "price"), Float(25)),
		),
		NewOr(
			NewCmp(EQ, C(2, "region"), Str("REG1")),
			NewBetween(C(1, "date"), Const{D: types.NewDate(8100)}, Const{D: types.NewDate(8200)}),
		),
		Not{E: NewCmp(NE, C(0, "qty"), Int(17))},
		NewCmp(LE, C(0, "qty"), C(1, "date")),
	}
}

// checkVecMatchesEval asserts CompileVec(e) over b selects exactly the rows
// on which e.Eval holds.
func checkVecMatchesEval(t *testing.T, e Expr, b *vec.ColBatch, rows []types.Row) {
	t.Helper()
	var scr vec.Scratch
	out := make([]int32, b.Len())
	sel := CompileVec(e)(b, b.AllSel(), out, &scr)
	j := 0
	for i, row := range rows {
		inSel := j < len(sel) && sel[j] == int32(i)
		if inSel {
			j++
		}
		if want := e.Eval(row).Bool(); inSel != want {
			t.Errorf("%s on row %d %s: vectorized=%v interpreted=%v", e.Signature(), i, row, inSel, want)
		}
	}
	if j != len(sel) {
		t.Errorf("%s: out-of-range or unordered selection %v", e.Signature(), sel)
	}
}

// TestCompileVecMatchesEval is the compiled-predicate equivalence oracle:
// the SSB shapes over an SSB-shaped batch, and every shape over NULL-bearing
// columns of every kind layout, through the typed kernels, the per-row
// comparison of two columns of different kinds or the Eval fallback; either
// way the selection must equal Eval row by row.
func TestCompileVecMatchesEval(t *testing.T) {
	b, rows := testBatch(512)
	defer b.Release()
	for _, e := range ssbPreds() {
		checkVecMatchesEval(t, e, b, rows)
	}
	for _, layout := range compileTestLayouts {
		rows := compileTestRows(layout)
		cb := vec.Get(3)
		for _, r := range rows {
			cb.AppendRow(r)
		}
		cb.Seal(len(rows))
		for _, e := range compileTestExprs() {
			checkVecMatchesEval(t, e, cb, rows)
		}
		cb.Release()
	}
}

// TestVecKernelsZeroAlloc locks in the steady-state allocation profile of
// the vectorized kernels: evaluating any of the SSB predicate shapes over a
// warm batch and scratch allocates nothing.
func TestVecKernelsZeroAlloc(t *testing.T) {
	b, _ := testBatch(512)
	defer b.Release()
	var scr vec.Scratch
	out := make([]int32, b.Len())
	for _, e := range ssbPreds() {
		vp := CompileVec(e)
		vp(b, b.AllSel(), out, &scr) // warm-up
		allocs := testing.AllocsPerRun(50, func() {
			vp(b, b.AllSel(), out, &scr)
		})
		if allocs != 0 {
			t.Errorf("%s: vectorized evaluation allocates %v objects per batch, want 0", e.Signature(), allocs)
		}
	}
}

// BenchmarkCompileVecBetween measures the hottest kernel (int BETWEEN) per
// 512-row batch.
func BenchmarkCompileVecBetween(b *testing.B) {
	cb, _ := testBatch(512)
	defer cb.Release()
	e := NewBetween(C(0, "qty"), Int(10), Int(25))
	b.Run("vectorized", func(b *testing.B) {
		vp := CompileVec(e)
		var scr vec.Scratch
		out := make([]int32, cb.Len())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vp(cb, cb.AllSel(), out, &scr)
		}
	})
}
