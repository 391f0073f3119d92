// Package expr implements the scalar expression language used by selection
// predicates, join keys and aggregate arguments.
//
// Every expression has a structural Fingerprint, which plan.Fingerprint folds
// into the key the Simultaneous Pipelining (SP) registry detects common
// sub-plans by: two plan nodes are shareable only if their expression trees
// (and children) are structurally identical — the paper's "identical
// predicates" requirement for reactive sharing. Signature renders an
// expression for Explain and diagnostics.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Expr is a scalar expression evaluated against a row.
type Expr interface {
	// Eval computes the expression over the given row.
	Eval(row types.Row) types.Datum
	// Signature returns a canonical rendering of the expression tree, for
	// display and diagnostics.
	Signature() string
}

// ---------------------------------------------------------------------------
// Leaves

// Col references an input column by position. Name is carried for display
// only; the signature uses the position so that equivalent plans over the
// same input schema compare equal.
type Col struct {
	Idx  int
	Name string
}

// C is shorthand for a column reference.
func C(idx int, name string) Col { return Col{Idx: idx, Name: name} }

// Eval returns the referenced column.
func (c Col) Eval(row types.Row) types.Datum { return row[c.Idx] }

// Signature encodes the column position.
func (c Col) Signature() string { return fmt.Sprintf("col(%d)", c.Idx) }

// ColRefs reports whether every expression is a plain column reference and,
// if so, returns their positions — the test gating the zero-copy projection
// and vectorized aggregation fast paths.
func ColRefs(exprs []Expr) ([]int, bool) {
	idxs := make([]int, len(exprs))
	for i, e := range exprs {
		c, ok := e.(Col)
		if !ok {
			return nil, false
		}
		idxs[i] = c.Idx
	}
	return idxs, true
}

// Const is a literal datum.
type Const struct{ D types.Datum }

// Int returns an integer literal.
func Int(v int64) Const { return Const{D: types.NewInt(v)} }

// Float returns a float literal.
func Float(v float64) Const { return Const{D: types.NewFloat(v)} }

// Str returns a string literal.
func Str(v string) Const { return Const{D: types.NewString(v)} }

// Date returns a date literal from calendar components.
func Date(y, m, d int) Const { return Const{D: types.DateFromYMD(y, m, d)} }

// Eval returns the literal.
func (c Const) Eval(types.Row) types.Datum { return c.D }

// Signature encodes the literal with its kind tag.
func (c Const) Signature() string { return c.D.SigString() }

// ---------------------------------------------------------------------------
// Comparisons

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "eq"
	case NE:
		return "ne"
	case LT:
		return "lt"
	case LE:
		return "le"
	case GT:
		return "gt"
	default:
		return "ge"
	}
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison.
func NewCmp(op CmpOp, l, r Expr) Cmp { return Cmp{Op: op, L: l, R: r} }

// Eq builds L = R.
func Eq(l, r Expr) Cmp { return Cmp{Op: EQ, L: l, R: r} }

// Eval evaluates the comparison; NULL operands yield false.
func (c Cmp) Eval(row types.Row) types.Datum {
	l := c.L.Eval(row)
	r := c.R.Eval(row)
	if l.IsNull() || r.IsNull() {
		return types.NewBool(false)
	}
	cv := l.Compare(r)
	var ok bool
	switch c.Op {
	case EQ:
		ok = cv == 0
	case NE:
		ok = cv != 0
	case LT:
		ok = cv < 0
	case LE:
		ok = cv <= 0
	case GT:
		ok = cv > 0
	case GE:
		ok = cv >= 0
	}
	return types.NewBool(ok)
}

// Signature encodes operator and operands.
func (c Cmp) Signature() string {
	return c.Op.String() + "(" + c.L.Signature() + "," + c.R.Signature() + ")"
}

// Between is lo <= E AND E <= hi, the dominant predicate shape in SSB.
type Between struct {
	E      Expr
	Lo, Hi Expr
}

// NewBetween builds a range predicate.
func NewBetween(e, lo, hi Expr) Between { return Between{E: e, Lo: lo, Hi: hi} }

// Eval evaluates the range check.
func (b Between) Eval(row types.Row) types.Datum {
	v := b.E.Eval(row)
	lo := b.Lo.Eval(row)
	hi := b.Hi.Eval(row)
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return types.NewBool(false)
	}
	return types.NewBool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0)
}

// Signature encodes the range predicate.
func (b Between) Signature() string {
	return "between(" + b.E.Signature() + "," + b.Lo.Signature() + "," + b.Hi.Signature() + ")"
}

// In tests membership of E in a literal set.
type In struct {
	E   Expr
	Set []types.Datum
}

// NewIn builds a membership predicate.
func NewIn(e Expr, set ...types.Datum) In { return In{E: e, Set: set} }

// Eval evaluates set membership.
func (in In) Eval(row types.Row) types.Datum {
	v := in.E.Eval(row)
	if v.IsNull() {
		return types.NewBool(false)
	}
	for _, d := range in.Set {
		if v.Equal(d) {
			return types.NewBool(true)
		}
	}
	return types.NewBool(false)
}

// Signature encodes the set in declaration order (IN sets in our templates
// are already canonical; we deliberately do not sort so that the signature
// is cheap and deterministic).
func (in In) Signature() string {
	parts := make([]string, len(in.Set))
	for i, d := range in.Set {
		parts[i] = d.SigString()
	}
	return "in(" + in.E.Signature() + ",[" + strings.Join(parts, ";") + "])"
}

// ---------------------------------------------------------------------------
// Boolean connectives

// And is the conjunction of two predicates.
type And struct{ L, R Expr }

// NewAnd chains the given predicates into a left-deep conjunction.
// NewAnd() is TRUE; NewAnd(p) is p.
func NewAnd(ps ...Expr) Expr {
	switch len(ps) {
	case 0:
		return Const{D: types.NewBool(true)}
	case 1:
		return ps[0]
	}
	e := Expr(And{L: ps[0], R: ps[1]})
	for _, p := range ps[2:] {
		e = And{L: e, R: p}
	}
	return e
}

// Eval short-circuits on a false left operand.
func (a And) Eval(row types.Row) types.Datum {
	if !a.L.Eval(row).Bool() {
		return types.NewBool(false)
	}
	return types.NewBool(a.R.Eval(row).Bool())
}

// Signature encodes the conjunction.
func (a And) Signature() string {
	return "and(" + a.L.Signature() + "," + a.R.Signature() + ")"
}

// Or is the disjunction of two predicates.
type Or struct{ L, R Expr }

// NewOr chains the given predicates into a left-deep disjunction.
func NewOr(ps ...Expr) Expr {
	switch len(ps) {
	case 0:
		return Const{D: types.NewBool(false)}
	case 1:
		return ps[0]
	}
	e := Expr(Or{L: ps[0], R: ps[1]})
	for _, p := range ps[2:] {
		e = Or{L: e, R: p}
	}
	return e
}

// Eval short-circuits on a true left operand.
func (o Or) Eval(row types.Row) types.Datum {
	if o.L.Eval(row).Bool() {
		return types.NewBool(true)
	}
	return types.NewBool(o.R.Eval(row).Bool())
}

// Signature encodes the disjunction.
func (o Or) Signature() string {
	return "or(" + o.L.Signature() + "," + o.R.Signature() + ")"
}

// Not negates a predicate.
type Not struct{ E Expr }

// Eval negates the operand's truth value.
func (n Not) Eval(row types.Row) types.Datum {
	return types.NewBool(!n.E.Eval(row).Bool())
}

// Signature encodes the negation.
func (n Not) Signature() string { return "not(" + n.E.Signature() + ")" }

// ---------------------------------------------------------------------------
// Arithmetic

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "add"
	case Sub:
		return "sub"
	case Mul:
		return "mul"
	default:
		return "div"
	}
}

// Arith combines two numeric sub-expressions. Integer operands produce
// integer results except Div, which always produces a float (sufficient for
// the TPC-H/SSB aggregate expressions, e.g. extendedprice*(1-discount)).
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) Arith { return Arith{Op: op, L: l, R: r} }

// Eval computes the arithmetic result.
func (a Arith) Eval(row types.Row) types.Datum {
	l := a.L.Eval(row)
	r := a.R.Eval(row)
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	if a.Op == Div {
		rf := r.Float()
		if rf == 0 {
			return types.Null
		}
		return types.NewFloat(l.Float() / rf)
	}
	if l.K == types.KindInt && r.K == types.KindInt {
		switch a.Op {
		case Add:
			return types.NewInt(l.I + r.I)
		case Sub:
			return types.NewInt(l.I - r.I)
		default:
			return types.NewInt(l.I * r.I)
		}
	}
	lf, rf := l.Float(), r.Float()
	switch a.Op {
	case Add:
		return types.NewFloat(lf + rf)
	case Sub:
		return types.NewFloat(lf - rf)
	default:
		return types.NewFloat(lf * rf)
	}
}

// Signature encodes operator and operands.
func (a Arith) Signature() string {
	return a.Op.String() + "(" + a.L.Signature() + "," + a.R.Signature() + ")"
}
