package expr

import (
	"repro/internal/types"
	"repro/internal/vec"
)

// VecNum is a compiled numeric expression — a Col / Const / Arith tree — the
// value-producing counterpart of VecPred: Eval computes the expression for the
// selected rows of a column batch in typed loops, so an aggregate argument
// like lo_extendedprice*lo_discount never boxes a row. Every Arith node and
// every literal owns the scratch vector it evaluates into, reused from batch
// to batch; a VecNum therefore belongs to one goroutine.
type VecNum struct {
	// An Arith node has l and r; a leaf is a literal (lit non-nil) or a column.
	op   ArithOp
	l, r *VecNum
	col  int
	lit  *types.Datum
	cls  numClass // a literal's class, fixed at compile time

	out    vec.Vec   // the node's result, or the literal repeated
	lf, rf []float64 // int-class operands promoted to float
}

// CompileNum translates a Col / Const / Arith tree into a vector kernel; ok
// is false for any other shape.
func CompileNum(e Expr) (k *VecNum, ok bool) {
	switch x := e.(type) {
	case Col:
		return &VecNum{col: x.Idx}, true
	case Const:
		k = &VecNum{lit: &x.D}
		k.out.AppendDatum(x.D)
		k.cls = classOf(&k.out, []int32{0})
		return k, true
	case Arith:
		l, lok := CompileNum(x.L)
		r, rok := CompileNum(x.R)
		if lok && rok {
			return &VecNum{op: x.Op, l: l, r: r}, true
		}
	}
	return nil, false
}

// Eval evaluates the expression over the rows of b named by sel and returns a
// vector indexed like b's columns: row r of the result is the value for row r
// of b, defined for r in sel only. A plain column reference is the column
// itself, whatever it holds. The result is exactly Arith.Eval's row by row —
// an integer only where both operands are KindInt, Div always a float and
// NULL on a zero divisor — and is valid until the next Eval. ok is false when
// some operand column is not uniform over sel (NULLs, strings, ints mixed with
// dates): the caller evaluates that batch row by row.
func (k *VecNum) Eval(b *vec.ColBatch, sel []int32) (v *vec.Vec, ok bool) {
	if k.l == nil && k.lit == nil {
		return b.Col(k.col), true
	}
	v, _ = k.eval(b, sel)
	return v, v != nil
}

// numClass says how Arith.Eval reads every selected row of an operand.
type numClass uint8

const (
	numOther    numClass = iota // not uniform over the selection, or not numeric
	numInt                      // KindInt: the I payload, integer arithmetic
	numPromoted                 // dates or bools, no KindInt: float64 of the I payload
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
	default:
		v := b.Col(k.col)
		return v, classOf(v, sel)
	}
}

// classOf classifies a column over a selection. AllInt admits dates and bools,
// which Arith.Eval promotes to float, so the kind tags decide.
func classOf(v *vec.Vec, sel []int32) numClass {
	if v.AllFloat() {
		return numFloat
	}
	if !v.AllInt() {
		return numOther
	}
	ints := 0
	for _, r := range sel {
		if v.Kinds[r] == types.KindInt {
			ints++
		}
	}
	switch ints {
	case len(sel):
		return numInt
	case 0:
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
		return nil, numOther
	}
	rv, rc := k.r.eval(b, sel)
	if rc == numOther {
		return nil, numOther
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
		return &k.out, numInt
	}
	lf := floats(lv, lc, sel, &k.lf)
	rf := floats(rv, rc, sel, &k.rf)
	k.out.ResetRun(types.KindFloat, b.Len())
	o := k.out.F
	cls := numFloat
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
				// NULL-bearing: a valid result, but no longer a uniform operand.
				k.out.SetNull(int(r))
				cls = numOther
				continue
			}
			o[r] = lf[r] / rf[r]
		}
	}
	return &k.out, cls
}
