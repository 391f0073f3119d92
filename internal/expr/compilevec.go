package expr

import (
	"cmp"

	"repro/internal/types"
	"repro/internal/vec"
)

// VecPred is a compiled vectorized predicate. It evaluates the predicate
// over the rows of b named by sel (ascending row indexes) and returns the
// surviving subset, written into out. Requirements: len(out) >= len(sel);
// out may alias sel (kernels write at or before their read position); scr
// provides the evaluation's temporaries and must be owned by the calling
// goroutine. The returned slice aliases out.
//
// A VecPred is exactly equivalent to Eval(row).Bool() row by row: r is in
// the result iff the predicate holds on row r.
type VecPred func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32

// CompileVec translates a predicate into a vectorized kernel. The shapes
// that dominate the SSB/TPC-H hot loops — Cmp(col, const), Between(col,
// const, const), In(col, literals), Cmp(col, col) and their And/Or/Not
// combinations — get one typed-slice loop per column kind, run over the
// selection without the column's NULL rows (which no comparison keeps); any
// other shape falls back to materializing one scratch row at a time through
// Eval, so CompileVec is total and equivalent by construction.
func CompileVec(e Expr) VecPred {
	switch x := e.(type) {
	case Cmp:
		return compileVecCmp(x)
	case Between:
		return compileVecBetween(x)
	case In:
		return compileVecIn(x)
	case And:
		l, r := CompileVec(x.L), CompileVec(x.R)
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			ls := l(b, sel, out, scr)
			return r(b, ls, ls, scr)
		}
	case Or:
		l, r := CompileVec(x.L), CompileVec(x.R)
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			lbuf := scr.Grab(len(sel))
			ls := l(b, sel, lbuf, scr)
			rbuf := scr.Grab(len(sel))
			rem := vec.Diff(sel, ls, rbuf)
			rs := r(b, rem, rem, scr)
			res := vec.Union(ls, rs, out)
			scr.Drop()
			scr.Drop()
			return res
		}
	case Not:
		f := CompileVec(x.E)
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			buf := scr.Grab(len(sel))
			es := f(b, sel, buf, scr)
			res := vec.Diff(sel, es, out)
			scr.Drop()
			return res
		}
	case Const:
		if x.D.Bool() {
			return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
				copy(out, sel)
				return out[:len(sel)]
			}
		}
		return none
	case Col:
		idx := x.Idx
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			v := b.Col(idx)
			if v.Kind != types.KindBool {
				return out[:0]
			}
			if v.HasNulls() {
				sel = v.DropNulls(sel, out)
			}
			return cmpIntLoop(NE, v.I, 0, sel, out)
		}
	default:
		return vecFallback(e)
	}
}

// vecFallback evaluates Eval over one materialized scratch row at a time —
// the total fallback for shapes without a kernel.
func vecFallback(e Expr) VecPred {
	return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
		row := scr.Row(b.NumCols())
		k := 0
		for _, r := range sel {
			b.MaterializeRow(int(r), row)
			if e.Eval(row).Bool() {
				out[k] = r
				k++
			}
		}
		return out[:k]
	}
}

// cmpHolds reports whether a three-way comparison result satisfies op.
func cmpHolds(op CmpOp, cv int) bool {
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
	default:
		return cv >= 0
	}
}

// mirror maps op to the operator with swapped operands: a op b == b mirror(op) a.
func mirror(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

// cmpIntLoop filters sel by I[r] op ki with the operator hoisted out of the
// loop — the hottest kernel shape (int/date/bool columns against literals,
// and every dictionary-code predicate). The loops are the branchless
// store-always, conditionally-advance compaction: the compare lowers to
// SETcc so throughput is flat in selectivity — measured against the
// compare-and-compact and bitmap-output formulations in
// BenchmarkIntCmpKernelForms, this form wins at every selectivity.
func cmpIntLoop(op CmpOp, vi []int64, ki int64, sel, out []int32) []int32 {
	k := 0
	switch op {
	case EQ:
		for _, r := range sel {
			out[k] = r
			c := 0
			if vi[r] == ki {
				c = 1
			}
			k += c
		}
	case NE:
		for _, r := range sel {
			out[k] = r
			c := 0
			if vi[r] != ki {
				c = 1
			}
			k += c
		}
	case LT:
		for _, r := range sel {
			out[k] = r
			c := 0
			if vi[r] < ki {
				c = 1
			}
			k += c
		}
	case LE:
		for _, r := range sel {
			out[k] = r
			c := 0
			if vi[r] <= ki {
				c = 1
			}
			k += c
		}
	case GT:
		for _, r := range sel {
			out[k] = r
			c := 0
			if vi[r] > ki {
				c = 1
			}
			k += c
		}
	default:
		for _, r := range sel {
			out[k] = r
			c := 0
			if vi[r] >= ki {
				c = 1
			}
			k += c
		}
	}
	return out[:k]
}

// ---------------------------------------------------------------------------
// Dictionary-code kernels: the encoded-data fast path for string columns of
// the page format. A dictionary column stores sorted unique strings in
// Dict and per-row codes in I, so code order is string order; a string
// constant is translated to a code bound once per page (two binary searches
// at most) and the per-row work is an int compare — the string payloads are
// never read.

// dictLowerBound returns the first index in the sorted dictionary whose
// entry is >= s (hand-rolled to keep the per-page translation
// allocation-free).
func dictLowerBound(dict []string, s string) int {
	lo, hi := 0, len(dict)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dict[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dictUpperBound returns the first index whose entry is > s.
func dictUpperBound(dict []string, s string) int {
	lo, hi := 0, len(dict)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dict[mid] <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cmpDictLoop filters sel by Dict[I[r]] op ks, rewritten as an int compare
// on the codes against a translated bound.
func cmpDictLoop(op CmpOp, v *vec.Vec, ks string, sel, out []int32) []int32 {
	dict, codes := v.Dict, v.I
	lb := dictLowerBound(dict, ks)
	switch op {
	case EQ:
		if lb == len(dict) || dict[lb] != ks {
			return out[:0]
		}
		return cmpIntLoop(EQ, codes, int64(lb), sel, out)
	case NE:
		if lb == len(dict) || dict[lb] != ks {
			return out[:copy(out, sel)]
		}
		return cmpIntLoop(NE, codes, int64(lb), sel, out)
	case LT: // s < ks  ⇔  code < #entries below ks
		return cmpIntLoop(LT, codes, int64(lb), sel, out)
	case GE:
		return cmpIntLoop(GE, codes, int64(lb), sel, out)
	case LE: // s <= ks ⇔  code < #entries at or below ks
		return cmpIntLoop(LT, codes, int64(dictUpperBound(dict, ks)), sel, out)
	default: // GT
		return cmpIntLoop(GE, codes, int64(dictUpperBound(dict, ks)), sel, out)
	}
}

// threeWay is the three-way comparison Compare uses within a kind class (a
// float NaN compares equal to everything it is neither below nor above,
// exactly as Compare's switch does).
func threeWay[T cmp.Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpConstLoop filters sel by vs[r] op kv for a float or string column.
func cmpConstLoop[T cmp.Ordered](op CmpOp, vs []T, kv T, sel, out []int32) []int32 {
	k := 0
	for _, r := range sel {
		if cmpHolds(op, threeWay(vs[r], kv)) {
			out[k] = r
			k++
		}
	}
	return out[:k]
}

// cmpColsLoop filters sel by a[r] op b[r] for two columns of one class.
func cmpColsLoop[T cmp.Ordered](op CmpOp, a, b []T, sel, out []int32) []int32 {
	k := 0
	for _, r := range sel {
		if cmpHolds(op, threeWay(a[r], b[r])) {
			out[k] = r
			k++
		}
	}
	return out[:k]
}

// none is the kernel of a predicate no row satisfies.
func none(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 { return out[:0] }

// compileVecCmpColConst builds the kernel for col op const: a typed loop for
// each column kind the constant compares with by value, and for a constant
// of the other class (numbers sort before strings) one comparison for every
// row.
func compileVecCmpColConst(op CmpOp, idx int, kd types.Datum) VecPred {
	if kd.IsNull() {
		return none
	}
	kIsInt := kd.K.IntClass()
	return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
		v := b.Col(idx)
		if v.HasNulls() {
			sel = v.DropNulls(sel, out)
		}
		switch {
		case v.Kind.IntClass() && kIsInt:
			return cmpIntLoop(op, v.I, kd.I, sel, out)
		case v.Kind.IntClass() && kd.K == types.KindFloat:
			// Compare promotes mixed numeric operands to float.
			vi, kf := v.I, kd.F
			k := 0
			for _, r := range sel {
				if cmpHolds(op, threeWay(float64(vi[r]), kf)) {
					out[k] = r
					k++
				}
			}
			return out[:k]
		case v.Kind == types.KindFloat && (kIsInt || kd.K == types.KindFloat):
			return cmpConstLoop(op, v.F, kd.Float(), sel, out)
		case v.Kind == types.KindString && kd.K == types.KindString:
			if v.HasDict() {
				return cmpDictLoop(op, v, kd.S, sel, out)
			}
			return cmpConstLoop(op, v.S, kd.S, sel, out)
		default: // every row left is of v.Kind, in another class than kd
			if cmpHolds(op, types.Datum{K: v.Kind}.Compare(kd)) {
				return out[:copy(out, sel)]
			}
			return out[:0]
		}
	}
}

func compileVecCmp(c Cmp) VecPred {
	if col, ok := c.L.(Col); ok {
		if k, ok := c.R.(Const); ok {
			return compileVecCmpColConst(c.Op, col.Idx, k.D)
		}
		if rcol, ok := c.R.(Col); ok {
			op, li, ri := c.Op, col.Idx, rcol.Idx
			return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
				lv, rv := b.Col(li), b.Col(ri)
				if lv.HasNulls() {
					sel = lv.DropNulls(sel, out)
				}
				if rv.HasNulls() {
					sel = rv.DropNulls(sel, out)
				}
				switch {
				case lv.Kind.IntClass() && rv.Kind.IntClass():
					return cmpColsLoop(op, lv.I, rv.I, sel, out)
				case lv.Kind == types.KindFloat && rv.Kind == types.KindFloat:
					return cmpColsLoop(op, lv.F, rv.F, sel, out)
				case lv.Kind == types.KindString && rv.Kind == types.KindString:
					if !lv.HasDict() && !rv.HasDict() {
						return cmpColsLoop(op, lv.S, rv.S, sel, out)
					}
					k := 0
					for _, r := range sel {
						if cmpHolds(op, threeWay(lv.Str(int(r)), rv.Str(int(r)))) {
							out[k] = r
							k++
						}
					}
					return out[:k]
				}
				// Columns of two kinds (an int and a float column, a number
				// and a string column) compare row by row.
				k := 0
				for _, r := range sel {
					if cmpHolds(op, lv.Datum(int(r)).Compare(rv.Datum(int(r)))) {
						out[k] = r
						k++
					}
				}
				return out[:k]
			}
		}
	}
	if k, ok := c.L.(Const); ok {
		if col, ok := c.R.(Col); ok {
			return compileVecCmpColConst(mirror(c.Op), col.Idx, k.D)
		}
	}
	return vecFallback(c)
}

func compileVecBetween(bt Between) VecPred {
	col, okE := bt.E.(Col)
	lo, okLo := bt.Lo.(Const)
	hi, okHi := bt.Hi.(Const)
	if !okE || !okLo || !okHi {
		return vecFallback(bt)
	}
	if lo.D.IsNull() || hi.D.IsNull() {
		return none // Eval yields false for every row when a bound is NULL
	}
	idx, loD, hiD := col.Idx, lo.D, hi.D
	intBounds := loD.K.IntClass() && hiD.K.IntClass()
	strBounds := loD.K == types.KindString && hiD.K == types.KindString
	// Any other column and bounds: Between is exactly col >= lo AND col <= hi.
	ge, le := compileVecCmpColConst(GE, idx, loD), compileVecCmpColConst(LE, idx, hiD)
	return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
		v := b.Col(idx)
		if v.HasNulls() {
			sel = v.DropNulls(sel, out)
		}
		switch {
		case v.Kind.IntClass() && intBounds:
			vi, loI, hiI := v.I, loD.I, hiD.I
			if loI > hiI {
				return out[:0]
			}
			// Branchless range compaction: the two-sided bound folds into one
			// unsigned compare (valid for any int64 bounds with lo <= hi).
			span := uint64(hiI) - uint64(loI)
			k := 0
			for _, r := range sel {
				out[k] = r
				c := 0
				if uint64(vi[r])-uint64(loI) <= span {
					c = 1
				}
				k += c
			}
			return out[:k]
		case v.Kind == types.KindString && strBounds:
			if v.HasDict() {
				// lo <= s <= hi  ⇔  lowerBound(lo) <= code < upperBound(hi).
				loC := int64(dictLowerBound(v.Dict, loD.S))
				hiC := int64(dictUpperBound(v.Dict, hiD.S))
				if loC >= hiC {
					return out[:0]
				}
				span := uint64(hiC-1) - uint64(loC)
				vi := v.I
				k := 0
				for _, r := range sel {
					out[k] = r
					c := 0
					if uint64(vi[r])-uint64(loC) <= span {
						c = 1
					}
					k += c
				}
				return out[:k]
			}
			vs, loS, hiS := v.S, loD.S, hiD.S
			k := 0
			for _, r := range sel {
				if d := vs[r]; d >= loS && d <= hiS {
					out[k] = r
					k++
				}
			}
			return out[:k]
		default:
			ls := ge(b, sel, out, scr)
			return le(b, ls, ls, scr)
		}
	}
}

func compileVecIn(in In) VecPred {
	col, okCol := in.E.(Col)
	if !okCol || len(in.Set) == 0 {
		return vecFallback(in)
	}
	// In is exactly the disjunction of its members' equalities: the kernel
	// for a column whose kind the set's typed form does not cover.
	eqs := make([]Expr, len(in.Set))
	allInt, allStr := true, true
	for i, d := range in.Set {
		eqs[i] = Eq(col, Const{D: d})
		allInt = allInt && d.K.IntClass()
		allStr = allStr && d.K == types.KindString
	}
	anyEq := CompileVec(NewOr(eqs...))
	idx, set := col.Idx, in.Set
	switch {
	case allInt:
		ints := make(map[int64]struct{}, len(set))
		for _, d := range set {
			ints[d.I] = struct{}{}
		}
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			v := b.Col(idx)
			if !v.Kind.IntClass() {
				return anyEq(b, sel, out, scr)
			}
			if v.HasNulls() {
				sel = v.DropNulls(sel, out)
			}
			vi := v.I
			k := 0
			for _, r := range sel {
				if _, ok := ints[vi[r]]; ok {
					out[k] = r
					k++
				}
			}
			return out[:k]
		}
	case allStr:
		strs := make(map[string]struct{}, len(set))
		for _, d := range set {
			strs[d.S] = struct{}{}
		}
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			v := b.Col(idx)
			if v.Kind != types.KindString {
				return anyEq(b, sel, out, scr)
			}
			if v.HasNulls() {
				sel = v.DropNulls(sel, out)
			}
			k := 0
			if v.HasDict() {
				// Translate the set to dictionary codes once per page;
				// membership is then a scan of a handful of ints per row
				// (set members absent from the page's dictionary drop out).
				codes := scr.Grab(len(set))[:0]
				for s := range strs {
					if i := dictLowerBound(v.Dict, s); i < len(v.Dict) && v.Dict[i] == s {
						codes = append(codes, int32(i))
					}
				}
				vi := v.I
				for _, r := range sel {
					c := int32(vi[r])
					for _, m := range codes {
						if c == m {
							out[k] = r
							k++
							break
						}
					}
				}
				scr.Drop()
				return out[:k]
			}
			vs := v.S
			for _, r := range sel {
				if _, ok := strs[vs[r]]; ok {
					out[k] = r
					k++
				}
			}
			return out[:k]
		}
	}
	return anyEq
}
