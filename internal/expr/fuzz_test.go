package expr

import (
	"math"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// exprGen deterministically derives a predicate tree from a byte program:
// every decision (node kind, column index, constant) consumes bytes, so the
// fuzzer explores the tree space by mutating the program. Exhausted programs
// degrade to leaves, keeping the generator total.
type exprGen struct {
	buf []byte
	pos int
}

func (g *exprGen) next() byte {
	if g.pos >= len(g.buf) {
		return 0
	}
	b := g.buf[g.pos]
	g.pos++
	return b
}

// datum derives one constant; the pool deliberately mixes kinds (including
// NULL, NaN and cross-kind integral floats) to stress every CompileVec
// kernel and its fallback.
func (g *exprGen) datum() types.Datum {
	b := g.next()
	v := int64(int8(g.next())) // small signed magnitudes hit the row values
	switch b % 8 {
	case 0:
		return types.NewInt(v)
	case 1:
		return types.NewFloat(float64(v))
	case 2:
		return types.NewFloat(float64(v) + 0.5)
	case 3:
		return types.NewString(string(rune('a' + byte(v)%26)))
	case 4:
		return types.NewDate(v)
	case 5:
		return types.NewBool(v%2 == 0)
	case 6:
		return types.Null
	default:
		return types.NewFloat(math.NaN())
	}
}

func (g *exprGen) col(width int) Col {
	return C(int(g.next())%width, "c")
}

func (g *exprGen) cmpOp() CmpOp {
	return CmpOp(g.next() % 6)
}

// expr derives one predicate node; depth bounds recursion.
func (g *exprGen) expr(depth, width int) Expr {
	b := g.next()
	if depth <= 0 {
		if b%2 == 0 {
			return g.col(width)
		}
		return Const{D: g.datum()}
	}
	switch b % 10 {
	case 0:
		return NewCmp(g.cmpOp(), g.col(width), Const{D: g.datum()})
	case 1:
		return NewCmp(g.cmpOp(), Const{D: g.datum()}, g.col(width))
	case 2:
		return NewCmp(g.cmpOp(), g.col(width), g.col(width))
	case 3:
		return NewBetween(g.col(width), Const{D: g.datum()}, Const{D: g.datum()})
	case 4:
		return NewBetween(g.expr(depth-1, width), g.expr(depth-1, width), g.expr(depth-1, width))
	case 5:
		set := make([]types.Datum, 1+g.next()%4)
		for i := range set {
			set[i] = g.datum()
		}
		return NewIn(g.col(width), set...)
	case 6:
		return And{L: g.expr(depth-1, width), R: g.expr(depth-1, width)}
	case 7:
		return Or{L: g.expr(depth-1, width), R: g.expr(depth-1, width)}
	case 8:
		return Not{E: g.expr(depth-1, width)}
	default:
		if b%2 == 0 {
			return g.col(width)
		}
		return Const{D: g.datum()}
	}
}

// row derives the evaluation row, mixing every kind.
func (g *exprGen) row(width int) types.Row {
	row := make(types.Row, width)
	for i := range row {
		row[i] = g.datum()
	}
	return row
}

// datumOf derives one row of a column of kind k: a value of k from the
// pool datum draws from (NaN and integral floats included), or NULL.
func (g *exprGen) datumOf(k types.Kind) types.Datum {
	b := g.next()
	v := int64(int8(g.next()))
	if b%8 == 6 {
		return types.Null
	}
	switch k {
	case types.KindFloat:
		switch {
		case b%8 == 7:
			return types.NewFloat(math.NaN())
		case b%2 == 0:
			return types.NewFloat(float64(v))
		}
		return types.NewFloat(float64(v) + 0.5)
	case types.KindString:
		return types.NewString(string(rune('a' + byte(v)%26)))
	case types.KindDate:
		return types.NewDate(v)
	case types.KindBool:
		return types.NewBool(v%2 == 0)
	}
	return types.NewInt(v)
}

// rowOf derives a row of columns of the given kinds (NULL or a value each);
// a column of kind KindNull holds NULLs only.
func (g *exprGen) rowOf(kinds []types.Kind) types.Row {
	row := make(types.Row, len(kinds))
	for i, k := range kinds {
		if k != types.KindNull {
			row[i] = g.datumOf(k)
		}
	}
	return row
}

// FuzzCompileEval checks the compilation contract — the vectorized kernel
// is exactly equivalent to the interpreted Eval(row).Bool() — on random
// predicate trees over random rows, covering the hand-specialized kernels
// (Cmp col/const both ways, Between, In with int and string sets, the typed
// loops of every column kind) and the interpreted fallback alike. It builds
// a small batch of derived rows — the first row's values give each column
// its kind (a NULL, a column of NULLs), the others are NULL or of that kind
// — and compares the selection vector against per-row Eval.
func FuzzCompileEval(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{6, 0, 3, 200, 17, 5, 2, 9, 42, 42, 42, 0, 0, 0, 0, 1})
	f.Add([]byte{8, 7, 1, 3, 3, 3, 5, 5, 5, 250, 128, 64, 32, 16})
	f.Add([]byte("compile-vs-eval"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		const width = 6
		g := &exprGen{buf: prog}
		// The first row is derived before the expression, so the seed
		// corpus keeps decoding to the cases it was recorded for.
		const nrows = 5
		rows := make([]types.Row, 0, nrows)
		rows = append(rows, g.row(width))
		kinds := make([]types.Kind, width)
		for i, d := range rows[0] {
			kinds[i] = d.K
		}
		e := g.expr(4, width)
		for i := 1; i < nrows; i++ {
			rows = append(rows, g.rowOf(kinds))
		}
		b := vec.Get(width)
		defer b.Release()
		for _, r := range rows {
			b.AppendRow(r)
		}
		b.Seal(len(rows))
		var scr vec.Scratch
		out := make([]int32, len(rows))
		sel := CompileVec(e)(b, b.AllSel(), out, &scr)
		j := 0
		for i, r := range rows {
			inSel := j < len(sel) && sel[j] == int32(i)
			if inSel {
				j++
			}
			if evalWant := e.Eval(r).Bool(); inSel != evalWant {
				t.Fatalf("CompileVec disagrees with Eval:\n expr: %s\n row %d: %s\n vectorized=%v interpreted=%v\n sel: %v",
					e.Signature(), i, r, inSel, evalWant, sel)
			}
		}
		if j != len(sel) {
			t.Fatalf("CompileVec produced out-of-range or unordered selection %v", sel)
		}
	})
}
