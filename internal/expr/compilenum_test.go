package expr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// num derives one Arith tree from the byte program, in the style of
// exprGen.expr: int and float literals (zero included, so Div meets zero
// divisors), every operator, nesting up to depth, and leaves that are columns,
// literals of any kind or predicates — non-numeric operands, which CompileNum
// evaluates row by row.
func (g *exprGen) num(depth, width int) Expr {
	b := g.next()
	if depth <= 0 || b%4 == 0 {
		switch b % 5 {
		case 0, 4:
			return g.col(width)
		case 1:
			return Int(int64(int8(g.next())) % 4)
		case 2:
			return Const{D: g.datum()}
		default:
			return g.expr(1, width)
		}
	}
	return NewArith(ArithOp(g.next()%4), g.num(depth-1, width), g.num(depth-1, width))
}

// numBatch derives a batch whose columns each follow one style drawn from the
// program: uniform ints, dates, bools or floats (the shapes the kernel
// computes), ints with NULLs, ints mixed with dates, or anything at all (the
// shapes it evaluates row by row).
func (g *exprGen) numBatch(width, nrows int) *vec.ColBatch {
	b := vec.Get(width)
	for c := 0; c < width; c++ {
		style := g.next() % 7
		for i := 0; i < nrows; i++ {
			v := int64(int8(g.next())) % 5
			var d types.Datum
			switch style {
			case 0:
				d = types.NewInt(v)
			case 1:
				d = types.NewDate(v)
			case 2:
				d = types.NewBool(v%2 == 0)
			case 3:
				d = types.NewFloat(float64(v) / 2)
			case 4:
				d = types.NewInt(v)
				if v == 0 {
					d = types.Null
				}
			case 5:
				d = types.NewInt(v)
				if v%2 == 0 {
					d = types.NewDate(v)
				}
			default:
				d = g.datum()
			}
			b.Col(c).AppendDatum(d)
		}
	}
	b.Seal(nrows)
	return b
}

// sameDatum is identity of kind and payload, NaN equal to NaN: what
// "exactly Arith.Eval's" means for one row.
func sameDatum(a, b types.Datum) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case types.KindNull:
		return true
	case types.KindFloat:
		return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case types.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// rowEvals counts the batches the nodes of k have evaluated row by row.
func rowEvals(k *VecNum) int {
	if k == nil {
		return 0
	}
	return k.rowBatches + rowEvals(k.l) + rowEvals(k.r)
}

// checkNum holds one kernel evaluation against Eval row by row. It reports
// whether every node ran a typed loop (true) or some node evaluated the batch
// row by row (false).
func checkNum(t *testing.T, e Expr, k *VecNum, b *vec.ColBatch, sel []int32) bool {
	t.Helper()
	before := rowEvals(k)
	v := k.Eval(b, sel)
	for _, r := range sel {
		want := e.Eval(b.Row(int(r)))
		if got := v.Datum(int(r)); !sameDatum(got, want) {
			t.Fatalf("CompileNum disagrees with Eval:\n expr: %s\n row %d: %s\n vectorized=%s (%v) interpreted=%s (%v)",
				e.Signature(), r, b.Row(int(r)), got, got.K, want, want.K)
		}
	}
	// The uniformity flags steer the aggregate's typed folds: they must
	// describe the selected rows.
	for _, r := range sel {
		k := v.Kinds[r]
		if v.AllInt() && k != types.KindInt && k != types.KindDate && k != types.KindBool {
			t.Fatalf("%s: result claims AllInt but row %d is %v", e.Signature(), r, k)
		}
		if v.AllFloat() && k != types.KindFloat {
			t.Fatalf("%s: result claims AllFloat but row %d is %v", e.Signature(), r, k)
		}
		if v.AllStr() && k != types.KindString {
			t.Fatalf("%s: result claims AllStr but row %d is %v", e.Signature(), r, k)
		}
	}
	return rowEvals(k) == before
}

// narrowed returns every other row of sel, then the first three: the shapes a
// filter below the aggregate leaves behind.
func narrowed(sel []int32) [][]int32 {
	var odd []int32
	for i, r := range sel {
		if i%2 == 1 {
			odd = append(odd, r)
		}
	}
	return [][]int32{sel, odd, sel[:min(3, len(sel))], nil}
}

// TestCompileNumMatchesArithEval is the differential test of the numeric
// kernel: over int, date, bool, float, NULL-bearing and mixed-kind columns,
// all four operators, nested trees with int, float, string and predicate
// operands, zero divisors and narrowed selections, the kernel computes exactly
// Eval's datum for every selected row, in typed loops or row by row — and the
// uniform shapes the aggregate depends on must reach the typed loops. One
// kernel is reused across batches of different lengths, as opAggregate
// reuses it.
func TestCompileNumMatchesArithEval(t *testing.T) {
	const width = 6
	r := rand.New(rand.NewSource(14))
	typed, byRow := 0, 0
	for trial := 0; trial < 400; trial++ {
		prog := make([]byte, 512)
		r.Read(prog)
		g := &exprGen{buf: prog}
		e := g.num(3, width)
		k := CompileNum(e)
		for batch := 0; batch < 3; batch++ {
			b := g.numBatch(width, 4+int(g.next())%12)
			for _, sel := range narrowed(b.AllSel()) {
				if checkNum(t, e, k, b, sel) {
					typed++
				} else {
					byRow++
				}
			}
			b.Release()
		}
	}
	if typed < byRow/4 {
		t.Errorf("kernel ran typed loops over %d batches and rows over %d: the generator no longer reaches the typed loops", typed, byRow)
	}

	// The shapes of SSB Q1.x / Q4.x and TPC-H Q1 must run in typed loops,
	// with the result kind Eval gives.
	b := vec.Get(4)
	defer b.Release()
	for i := 0; i < 9; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i * 1000)), types.NewInt(int64(i % 3)),
			types.NewFloat(float64(i) / 10), types.NewDate(int64(i))})
	}
	b.Seal(9)
	one := Float(1)
	for _, tc := range []struct {
		e    Expr
		kind types.Kind
	}{
		{NewArith(Mul, C(0, "price"), C(1, "disc")), types.KindInt},
		{NewArith(Sub, C(0, "rev"), C(1, "cost")), types.KindInt},
		{NewArith(Mul, NewArith(Mul, C(2, "p"), NewArith(Sub, one, C(2, "d"))), NewArith(Add, one, C(2, "t"))), types.KindFloat},
		{NewArith(Add, C(0, "i"), C(2, "f")), types.KindFloat},
		{NewArith(Sub, C(3, "date"), C(3, "date")), types.KindFloat}, // dates promote
		{NewArith(Add, C(3, "date"), Int(1)), types.KindFloat},
		{NewArith(Div, C(0, "i"), Int(2)), types.KindFloat},
		{Int(7), types.KindInt},
	} {
		k := CompileNum(tc.e)
		for _, sel := range narrowed(b.AllSel())[:3] {
			if !checkNum(t, tc.e, k, b, sel) {
				t.Errorf("%s: evaluated a batch of uniform columns row by row", tc.e.Signature())
				continue
			}
			v := k.Eval(b, sel)
			if got := v.Kinds[sel[0]]; got != tc.kind {
				t.Errorf("%s: result kind %v, want %v", tc.e.Signature(), got, tc.kind)
			}
		}
	}

	// Div by a column holding zeros: NULL on those rows, a float elsewhere;
	// the next batch through the same kernel is uniform again.
	div := NewArith(Div, C(0, "i"), C(1, "z"))
	k := CompileNum(div)
	if !checkNum(t, div, k, b, b.AllSel()) {
		t.Fatal("Div over int columns evaluated row by row")
	}
	if v := k.Eval(b, b.AllSel()); v.AllFloat() || !v.Datum(0).IsNull() || v.Datum(1).K != types.KindFloat {
		t.Errorf("Div by zero: row 0 = %v, row 1 = %v, AllFloat = %v", v.Datum(0), v.Datum(1), v.AllFloat())
	}
	nonzero := []int32{1, 2, 4, 5}
	if v := k.Eval(b, nonzero); !v.AllFloat() {
		t.Error("a NULL set by one batch leaked into the next batch's uniformity")
	}
	// Arithmetic over a NULL-bearing operand evaluates row by row.
	if add := NewArith(Add, div, Int(1)); checkNum(t, add, CompileNum(add), b, b.AllSel()) {
		t.Error("arithmetic over a NULL-bearing operand ran a typed loop")
	}

	// A comparison operand evaluates row by row; the arithmetic over its
	// bools promotes to float in a typed loop.
	cmp := Eq(C(0, "i"), Int(1000))
	add := NewArith(Add, C(0, "i"), cmp)
	ka := CompileNum(add)
	if checkNum(t, add, ka, b, b.AllSel()) || ka.rowBatches != 0 || ka.r.rowBatches != 1 {
		t.Errorf("Add over a comparison: the comparison must evaluate row by row and the Add run typed (row batches %d, %d)",
			ka.rowBatches, ka.r.rowBatches)
	}
}

// TestCompileNumSteadyStateZeroAlloc: once its scratch vectors have grown to
// the batch size, a kernel evaluates without allocating.
func TestCompileNumSteadyStateZeroAlloc(t *testing.T) {
	b := vec.Get(3)
	defer b.Release()
	for i := 0; i < 1024; i++ {
		b.AppendRow(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 11)), types.NewFloat(float64(i) / 8)})
	}
	b.Seal(1024)
	for _, e := range []Expr{
		NewArith(Mul, C(0, "a"), C(1, "b")),
		NewArith(Mul, NewArith(Mul, C(2, "p"), NewArith(Sub, Float(1), C(2, "d"))), NewArith(Add, Int(1), C(0, "t"))),
		NewArith(Div, C(0, "a"), C(1, "b")),
	} {
		k := CompileNum(e)
		sel := b.AllSel()
		k.Eval(b, sel) // warm
		if allocs := testing.AllocsPerRun(50, func() { k.Eval(b, sel) }); allocs != 0 {
			t.Errorf("%s: %v allocs per batch in steady state, want 0", e.Signature(), allocs)
		}
	}
}

// FuzzCompileNum is the fuzz form of the differential test: the byte program
// derives the tree, the column styles and the values.
func FuzzCompileNum(f *testing.F) {
	f.Add([]byte{1, 2, 0, 3, 4, 1, 0, 5, 6, 0, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{5, 3, 9, 1, 1, 0, 0, 2, 3, 3, 3, 0, 0, 0, 4, 4, 250, 128, 64})
	f.Add([]byte{7, 0, 7, 1, 7, 2, 7, 3, 2, 2, 2, 6, 6, 6, 5, 5, 5, 1, 0, 1, 0})
	f.Add([]byte("numeric-kernel-vs-arith-eval"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		const width = 4
		g := &exprGen{buf: prog}
		e := g.num(3, width)
		k := CompileNum(e)
		for batch := 0; batch < 2; batch++ {
			b := g.numBatch(width, 5)
			for _, sel := range narrowed(b.AllSel()) {
				checkNum(t, e, k, b, sel)
			}
			b.Release()
		}
	})
}
