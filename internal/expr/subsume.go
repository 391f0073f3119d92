package expr

import (
	"math"

	"repro/internal/types"
)

// This file implements a predicate implication checker: Subsumes(p, q)
// reports whether every row accepted by q is also accepted by p (q ⇒ p).
// The checker is conservative: it returns true only for shapes it
// can prove under the exact Eval semantics (NULL-rejecting comparisons,
// class-ordered Datum.Compare), and false for everything else.
//
// Two quirks of the Datum total order make naive interval reasoning
// unsound and are handled explicitly:
//
//   - Compare(NaN, x) is 0 for every numeric x, so a NaN value satisfies
//     every EQ/LE/GE/BETWEEN/IN atom with a numeric constant while failing
//     LT/GT/NE. Implication over the non-NaN range is therefore checked
//     separately from NaN admission on both sides.
//   - int↔float promotion loses precision at |v| ≥ 2^53, where Compare
//     stops being transitive across kinds. Constants at or beyond that
//     magnitude (and non-finite floats) make an atom opaque.

// subsumeBudget bounds the implication search so that adversarial
// (deeply nested And/Or) trees cannot blow up: when exhausted the checker
// simply answers false, which is always sound.
const subsumeBudget = 1 << 12

// maxExactInt is the first magnitude at which float64 cannot represent
// every integer, i.e. where cross-kind Compare loses transitivity.
const maxExactInt = int64(1) << 53

// Subsumes reports whether q ⇒ p: every row satisfying q also satisfies p.
// A nil predicate means TRUE (match everything). The check is conservative —
// false means "not provable", not "disproved". Its one caller is
// the benchmark module's expression layer (benchmark/layers.go), which
// times it.
func Subsumes(p, q Expr) bool {
	if p == nil {
		return true
	}
	if q == nil {
		q = Const{D: types.NewBool(true)}
	}
	budget := subsumeBudget
	return implies(q, p, &budget)
}

// implies reports whether q ⇒ p.
func implies(q, p Expr, budget *int) bool {
	*budget--
	if *budget < 0 {
		return false
	}
	if Equal(p, q) {
		return true
	}
	if unsat(q) {
		return true // q never matches anything; vacuously implied
	}
	switch pn := p.(type) {
	case Const:
		return pn.D.Bool() // p ≡ TRUE is implied by everything
	case And:
		return implies(q, pn.L, budget) && implies(q, pn.R, budget)
	}
	if qo, ok := q.(Or); ok {
		return implies(qo.L, p, budget) && implies(qo.R, p, budget)
	}
	if po, ok := p.(Or); ok {
		if implies(q, po.L, budget) || implies(q, po.R, budget) {
			return true
		}
	}
	if qa, ok := q.(And); ok {
		if implies(qa.L, p, budget) || implies(qa.R, p, budget) {
			return true
		}
	}
	// Atom-level reasoning: p must be a single-column atom, and the
	// conjunctive closure of q must pin that column into a contained set.
	col, ok := atomCol(p)
	if !ok {
		return false
	}
	r := colRange{mayNaN: true}
	accumulate(q, col, &r)
	if !r.any {
		return false // q does not constrain p's column at all
	}
	r.finalize()
	if r.empty && !r.mayNaN {
		return true // q's constraints over this column are unsatisfiable
	}
	return atomContains(p, &r)
}

// unsat reports whether e can be proven to match no row at all.
func unsat(e Expr) bool {
	switch n := e.(type) {
	case Const:
		return !n.D.Bool()
	case And:
		return unsat(n.L) || unsat(n.R)
	case Or:
		return unsat(n.L) && unsat(n.R)
	case Cmp:
		return constNull(n.L) || constNull(n.R)
	case Between:
		return constNull(n.E) || constNull(n.Lo) || constNull(n.Hi)
	case In:
		if constNull(n.E) {
			return true
		}
		for _, d := range n.Set {
			if !d.IsNull() {
				return false
			}
		}
		return true // empty or all-NULL set matches nothing
	}
	return false
}

func constNull(e Expr) bool {
	c, ok := e.(Const)
	return ok && c.D.IsNull()
}

// colRange is the intersection of every atom constraint q places on one
// column: an interval over the non-NaN Compare order, an optional IN set
// reference, and whether a NaN value could still slip through.
type colRange struct {
	lo, hi             types.Datum
	hasLo, hasHi       bool
	loStrict, hiStrict bool
	in                 []types.Datum // first IN set seen (NULL elements inert)
	any                bool          // at least one atom constrains the column
	empty              bool          // no non-NaN value satisfies the atoms
	mayNaN             bool          // a NaN value satisfies every atom seen
}

func (r *colRange) setLo(c types.Datum, strict bool) {
	if !r.hasLo {
		r.hasLo, r.lo, r.loStrict = true, c, strict
		return
	}
	cv := c.Compare(r.lo)
	if cv > 0 || (cv == 0 && strict && !r.loStrict) {
		r.lo, r.loStrict = c, strict
	}
}

func (r *colRange) setHi(c types.Datum, strict bool) {
	if !r.hasHi {
		r.hasHi, r.hi, r.hiStrict = true, c, strict
		return
	}
	cv := c.Compare(r.hi)
	if cv < 0 || (cv == 0 && strict && !r.hiStrict) {
		r.hi, r.hiStrict = c, strict
	}
}

func (r *colRange) markDead() { r.any, r.empty, r.mayNaN = true, true, false }

func (r *colRange) finalize() {
	if r.hasLo && r.hasHi {
		cv := r.lo.Compare(r.hi)
		if cv > 0 || (cv == 0 && (r.loStrict || r.hiStrict)) {
			r.empty = true
		}
	}
}

// constSafe reports whether c participates in exact, transitive Compare
// reasoning: finite, below the float precision cliff, and not NaN.
func constSafe(c types.Datum) bool {
	switch c.K {
	case types.KindInt, types.KindDate:
		return c.I > -maxExactInt && c.I < maxExactInt
	case types.KindBool, types.KindString:
		return true
	case types.KindFloat:
		return !math.IsNaN(c.F) && math.Abs(c.F) < float64(maxExactInt)
	}
	return false
}

// nanCmp is Compare(NaN, c) for a constSafe, non-NULL constant: 0 against
// any numeric-class constant, -1 against a string.
func nanCmp(c types.Datum) int {
	if c.K == types.KindString {
		return -1
	}
	return 0
}

// cmpAdmitsNaN reports whether a NaN value satisfies `value op c` under
// Eval semantics.
func cmpAdmitsNaN(op CmpOp, c types.Datum) bool {
	cv := nanCmp(c)
	switch op {
	case EQ:
		return cv == 0
	case NE:
		return cv != 0
	case LT:
		return cv < 0
	case LE:
		return cv <= 0
	case GT:
		return cv > 0
	default: // GE
		return cv >= 0
	}
}

func flipCmp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op // EQ, NE are symmetric
}

// cmpAtom normalizes a comparison into (column, op, constant) form,
// flipping the operator when the constant is on the left.
func cmpAtom(n Cmp) (col int, op CmpOp, c types.Datum, ok bool) {
	if l, lok := n.L.(Col); lok {
		if r, rok := n.R.(Const); rok {
			return l.Idx, n.Op, r.D, true
		}
	}
	if r, rok := n.R.(Col); rok {
		if l, lok := n.L.(Const); lok {
			return r.Idx, flipCmp(n.Op), l.D, true
		}
	}
	return 0, 0, types.Datum{}, false
}

// atomCol reports the column of a single-column atom (Cmp/Between/In over
// one column and constants).
func atomCol(p Expr) (int, bool) {
	switch n := p.(type) {
	case Cmp:
		col, _, _, ok := cmpAtom(n)
		return col, ok
	case Between:
		c, ok := n.E.(Col)
		if !ok {
			return 0, false
		}
		if _, lok := n.Lo.(Const); !lok {
			return 0, false
		}
		if _, hok := n.Hi.(Const); !hok {
			return 0, false
		}
		return c.Idx, true
	case In:
		c, ok := n.E.(Col)
		if !ok {
			return 0, false
		}
		return c.Idx, true
	}
	return 0, false
}

// accumulate intersects every atom constraint over col found in q's
// conjunctive closure into r. Non-atom conjuncts and atoms over other
// columns are ignored, which only widens the assumed value set — sound
// for a conservative-false checker.
func accumulate(q Expr, col int, r *colRange) {
	switch n := q.(type) {
	case And:
		accumulate(n.L, col, r)
		accumulate(n.R, col, r)
	case Cmp:
		c, op, d, ok := cmpAtom(n)
		if !ok || c != col {
			return
		}
		if d.IsNull() {
			r.markDead()
			return
		}
		if !constSafe(d) {
			return
		}
		r.any = true
		if !cmpAdmitsNaN(op, d) {
			r.mayNaN = false
		}
		switch op {
		case EQ:
			r.setLo(d, false)
			r.setHi(d, false)
		case NE:
			// excludes one point: not representable as an interval, but
			// it does reject NaN (handled above) and NULL (any=true).
		case LT:
			r.setHi(d, true)
		case LE:
			r.setHi(d, false)
		case GT:
			r.setLo(d, true)
		case GE:
			r.setLo(d, false)
		}
	case Between:
		e, ok := n.E.(Col)
		if !ok || e.Idx != col {
			return
		}
		lo, lok := n.Lo.(Const)
		hi, hok := n.Hi.(Const)
		if !lok || !hok {
			return
		}
		if lo.D.IsNull() || hi.D.IsNull() {
			r.markDead()
			return
		}
		if !constSafe(lo.D) || !constSafe(hi.D) {
			return
		}
		r.any = true
		if !(nanCmp(lo.D) >= 0 && nanCmp(hi.D) <= 0) {
			r.mayNaN = false
		}
		r.setLo(lo.D, false)
		r.setHi(hi.D, false)
	case In:
		e, ok := n.E.(Col)
		if !ok || e.Idx != col {
			return
		}
		nonNull, admitsNaN := 0, false
		for _, d := range n.Set {
			if d.IsNull() {
				continue // IN never matches a NULL element
			}
			if !constSafe(d) {
				return // e.g. a NaN element matches every numeric: opaque
			}
			nonNull++
			if d.K != types.KindString {
				admitsNaN = true
			}
		}
		r.any = true
		if nonNull == 0 {
			r.markDead()
			return
		}
		if !admitsNaN {
			r.mayNaN = false
		}
		if r.in == nil {
			r.in = n.Set
		}
	}
}

// atomContains reports whether every value admitted by r satisfies the
// atom p. The non-NaN part is checked over the interval or IN-set; NaN
// admission is checked separately.
func atomContains(p Expr, r *colRange) bool {
	switch n := p.(type) {
	case Cmp:
		_, op, c, ok := cmpAtom(n)
		if !ok || c.IsNull() || !constSafe(c) {
			return false
		}
		if r.mayNaN && !cmpAdmitsNaN(op, c) {
			return false
		}
		if r.empty {
			return true // only NaN remains, and it is admitted
		}
		if r.in != nil {
			return inSatisfiesCmp(op, c, r.in)
		}
		return rangeSatisfiesCmp(op, c, r)
	case Between:
		lo, lok := n.Lo.(Const)
		hi, hok := n.Hi.(Const)
		if !lok || !hok {
			return false
		}
		if lo.D.IsNull() || hi.D.IsNull() || !constSafe(lo.D) || !constSafe(hi.D) {
			return false
		}
		if r.mayNaN && !(nanCmp(lo.D) >= 0 && nanCmp(hi.D) <= 0) {
			return false
		}
		if r.empty {
			return true
		}
		if r.in != nil {
			return inSatisfiesCmp(GE, lo.D, r.in) && inSatisfiesCmp(LE, hi.D, r.in)
		}
		return rangeSatisfiesCmp(GE, lo.D, r) && rangeSatisfiesCmp(LE, hi.D, r)
	case In:
		admitsNaN := false
		for _, d := range n.Set {
			if d.IsNull() {
				continue
			}
			if !constSafe(d) {
				return false
			}
			if d.K != types.KindString {
				admitsNaN = true
			}
		}
		if r.mayNaN && !admitsNaN {
			return false
		}
		if r.empty {
			return true
		}
		if r.in != nil {
			// Every (non-NULL) element q may produce must be in p's set.
			for _, d := range r.in {
				if d.IsNull() {
					continue
				}
				if !inHas(n.Set, d) {
					return false
				}
			}
			return true
		}
		// The interval must collapse to a single point inside p's set.
		if !(r.hasLo && r.hasHi && !r.loStrict && !r.hiStrict && r.lo.Compare(r.hi) == 0) {
			return false
		}
		return inHas(n.Set, r.lo)
	}
	return false
}

func inHas(set []types.Datum, v types.Datum) bool {
	for _, d := range set {
		if !d.IsNull() && v.Compare(d) == 0 {
			return true
		}
	}
	return false
}

// inSatisfiesCmp reports whether every non-NULL element of set satisfies
// `elem op c`.
func inSatisfiesCmp(op CmpOp, c types.Datum, set []types.Datum) bool {
	for _, d := range set {
		if d.IsNull() {
			continue
		}
		cv := d.Compare(c)
		var ok bool
		switch op {
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
		default: // GE
			ok = cv >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// rangeSatisfiesCmp reports whether every non-NaN value in r's interval
// satisfies `value op c`.
func rangeSatisfiesCmp(op CmpOp, c types.Datum, r *colRange) bool {
	switch op {
	case EQ:
		// The interval must be exactly the point c.
		return r.hasLo && r.hasHi && !r.loStrict && !r.hiStrict &&
			r.lo.Compare(r.hi) == 0 && r.lo.Compare(c) == 0
	case NE:
		// The interval must lie entirely on one side of c.
		if r.hasHi {
			cv := r.hi.Compare(c)
			if cv < 0 || (cv == 0 && r.hiStrict) {
				return true
			}
		}
		if r.hasLo {
			cv := r.lo.Compare(c)
			if cv > 0 || (cv == 0 && r.loStrict) {
				return true
			}
		}
		return false
	case LT:
		if !r.hasHi {
			return false
		}
		cv := r.hi.Compare(c)
		return cv < 0 || (cv == 0 && r.hiStrict)
	case LE:
		return r.hasHi && r.hi.Compare(c) <= 0
	case GT:
		if !r.hasLo {
			return false
		}
		cv := r.lo.Compare(c)
		return cv > 0 || (cv == 0 && r.loStrict)
	default: // GE
		return r.hasLo && r.lo.Compare(c) >= 0
	}
}

// ---------------------------------------------------------------------------
// Structural equality

// Equal reports whether two expressions are structurally identical:
// same tree shape, same column positions (display names ignored), same
// constants (floats by bit pattern, with all NaNs equal). Equal
// expressions evaluate identically on every row.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case Col:
		y, ok := b.(Col)
		return ok && x.Idx == y.Idx
	case Const:
		y, ok := b.(Const)
		return ok && sameConst(x.D, y.D)
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Between:
		y, ok := b.(Between)
		return ok && Equal(x.E, y.E) && Equal(x.Lo, y.Lo) && Equal(x.Hi, y.Hi)
	case In:
		y, ok := b.(In)
		if !ok || !Equal(x.E, y.E) || len(x.Set) != len(y.Set) {
			return false
		}
		for i := range x.Set {
			if !sameConst(x.Set[i], y.Set[i]) {
				return false
			}
		}
		return true
	case And:
		y, ok := b.(And)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Or:
		y, ok := b.(Or)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Not:
		y, ok := b.(Not)
		return ok && Equal(x.E, y.E)
	case Arith:
		y, ok := b.(Arith)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	}
	return false
}

func sameConst(a, b types.Datum) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case types.KindNull:
		return true
	case types.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F) ||
			(math.IsNaN(a.F) && math.IsNaN(b.F))
	case types.KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}
