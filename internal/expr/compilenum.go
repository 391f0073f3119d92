package expr

import (
	"repro/internal/types"
	"repro/internal/vec"
)

// VecNum is a compiled expression — the value-producing counterpart of
// VecPred: Eval computes the expression for the selected rows of a column
// batch. Col / Const / Arith trees over numeric operands run in typed loops,
// so an aggregate argument like lo_extendedprice*lo_discount never boxes a
// row, and a row NULL in an operand is NULL in the result; any other shape,
// and an Arith node with an operand of strings or NULLs only, evaluates its
// own Eval row by row. Every node but a column reference owns the scratch
// vector it evaluates into, reused from batch to batch; a VecNum therefore
// belongs to one goroutine.
type VecNum struct {
	// An Arith node has l and r (and e, its row-by-row form); a leaf is a
	// literal (lit non-nil), a column, or any other expression (e non-nil).
	op   ArithOp
	l, r *VecNum
	col  int
	lit  *types.Datum
	cls  numClass // a literal's class, fixed at compile time
	e    Expr

	out    vec.Vec   // the node's result, or the literal repeated
	lf, rf []float64 // int-class operands promoted to float
	row    types.Row // the row-by-row evaluation's scratch row

	rowBatches int // batches this node evaluated row by row
}

// CompileNum translates an expression into a vector kernel. It is total, like
// CompileVec: shapes without a typed loop evaluate row by row through Eval.
func CompileNum(e Expr) *VecNum {
	switch x := e.(type) {
	case Col:
		return &VecNum{col: x.Idx}
	case Const:
		k := &VecNum{lit: &x.D}
		k.out.AppendDatum(x.D)
		k.cls = classOf(&k.out)
		return k
	case Arith:
		return &VecNum{op: x.Op, l: CompileNum(x.L), r: CompileNum(x.R), e: x}
	}
	return &VecNum{e: e}
}

// Eval evaluates the expression over the rows of b named by sel and returns a
// vector indexed like b's columns: row r of the result is the value for row r
// of b, defined for r in sel only. A plain column reference is the column
// itself, whatever it holds. The result is exactly the expression's Eval row
// by row — for Arith, an integer only where both operands are KindInt, Div
// always a float and NULL on a zero divisor — and is valid until the next
// Eval.
func (k *VecNum) Eval(b *vec.ColBatch, sel []int32) *vec.Vec {
	if k.l == nil && k.lit == nil && k.e == nil {
		return b.Col(k.col)
	}
	v, _ := k.eval(b, sel)
	return v
}

// numClass says how Arith.Eval reads the non-NULL rows of an operand.
type numClass uint8

const (
	numOther    numClass = iota // strings, or NULLs only
	numInt                      // KindInt: the I payload, integer arithmetic
	numPromoted                 // dates or bools: float64 of the I payload
	numFloat                    // floats: the F payload
)

func (k *VecNum) eval(b *vec.ColBatch, sel []int32) (*vec.Vec, numClass) {
	switch {
	case k.l != nil:
		return k.arith(b, sel)
	case k.lit != nil:
		for k.out.Len() < b.Len() {
			k.out.AppendDatum(*k.lit)
		}
		return &k.out, k.cls
	case k.e != nil:
		return k.rows(b, sel)
	default:
		v := b.Col(k.col)
		return v, classOf(v)
	}
}

// rows evaluates the node's expression row by row over sel into its scratch
// vector — the one reference the typed loops are held to. A row outside sel
// takes the value of the next selected row, so the vector has a NULL row only
// where a selected row is NULL.
func (k *VecNum) rows(b *vec.ColBatch, sel []int32) (*vec.Vec, numClass) {
	k.rowBatches++
	k.out.ResetRun(types.KindNull, 0) // empty, capacity kept
	if cap(k.row) < b.NumCols() {
		k.row = make(types.Row, b.NumCols())
	}
	row := k.row[:b.NumCols()]
	for _, r := range sel {
		b.MaterializeRow(int(r), row)
		d := k.e.Eval(row)
		for k.out.Len() <= int(r) {
			k.out.AppendDatum(d)
		}
	}
	return &k.out, classOf(&k.out)
}

// classOf classifies a column by its kind.
func classOf(v *vec.Vec) numClass {
	switch {
	case v.Kind == types.KindInt:
		return numInt
	case v.Kind == types.KindFloat:
		return numFloat
	case v.Kind.IntClass():
		return numPromoted
	}
	return numOther
}

// floats returns an operand's values as float64s indexed by row: the F payload
// as it is, or the I payload converted into buf for the selected rows.
func floats(v *vec.Vec, c numClass, sel []int32, buf *[]float64) []float64 {
	if c == numFloat {
		return v.F
	}
	if cap(*buf) < len(v.I) {
		*buf = make([]float64, len(v.I))
	}
	f := (*buf)[:len(v.I)]
	for _, r := range sel {
		f[r] = float64(v.I[r])
	}
	return f
}

func (k *VecNum) arith(b *vec.ColBatch, sel []int32) (*vec.Vec, numClass) {
	lv, lc := k.l.eval(b, sel)
	if lc == numOther {
		return k.rows(b, sel)
	}
	rv, rc := k.r.eval(b, sel)
	if rc == numOther {
		return k.rows(b, sel)
	}
	if k.op != Div && lc == numInt && rc == numInt {
		k.out.ResetRun(types.KindInt, b.Len())
		li, ri, o := lv.I, rv.I, k.out.I
		switch k.op {
		case Add:
			for _, r := range sel {
				o[r] = li[r] + ri[r]
			}
		case Sub:
			for _, r := range sel {
				o[r] = li[r] - ri[r]
			}
		default:
			for _, r := range sel {
				o[r] = li[r] * ri[r]
			}
		}
		k.out.OrNulls(lv)
		k.out.OrNulls(rv)
		return &k.out, numInt
	}
	lf := floats(lv, lc, sel, &k.lf)
	rf := floats(rv, rc, sel, &k.rf)
	k.out.ResetRun(types.KindFloat, b.Len())
	o := k.out.F
	switch k.op {
	case Add:
		for _, r := range sel {
			o[r] = lf[r] + rf[r]
		}
	case Sub:
		for _, r := range sel {
			o[r] = lf[r] - rf[r]
		}
	case Mul:
		for _, r := range sel {
			o[r] = lf[r] * rf[r]
		}
	default:
		for _, r := range sel {
			if rf[r] == 0 {
				k.out.SetNulls(int(r), int(r)+1)
				continue
			}
			o[r] = lf[r] / rf[r]
		}
	}
	k.out.OrNulls(lv)
	k.out.OrNulls(rv)
	return &k.out, numFloat
}
