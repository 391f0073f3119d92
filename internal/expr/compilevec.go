package expr

import (
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
// A VecPred is exactly equivalent to the scalar Compile closure (and hence
// to Eval(row).Bool()) row by row: r is in the result iff the scalar
// predicate holds on row r.
type VecPred func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32

// CompileVec translates a predicate into a vectorized kernel. The shapes
// that dominate the SSB/TPC-H hot loops — Cmp(col, const), Between(col,
// const, const), In(col, literals), Cmp(col, col) and their And/Or/Not
// combinations — get typed-slice loops over homogeneous columns (with
// per-row Datum fallbacks on mixed columns); any other shape falls back to
// materializing one scratch row at a time through the scalar Compile
// closure, so CompileVec is total and equivalent by construction.
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
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			return out[:0]
		}
	case Col:
		idx := x.Idx
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			v := b.Col(idx)
			k := 0
			for _, r := range sel {
				if v.Kinds[r] == types.KindBool && v.I[r] != 0 {
					out[k] = r
					k++
				}
			}
			return out[:k]
		}
	default:
		return vecFallback(e)
	}
}

// vecFallback evaluates the scalar compiled closure over one materialized
// scratch row at a time — the total fallback for shapes without a kernel.
func vecFallback(e Expr) VecPred {
	f := Compile(e)
	return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
		row := scr.Row(b.NumCols())
		k := 0
		for _, r := range sel {
			b.MaterializeRow(int(r), row)
			if f(row) {
				out[k] = r
				k++
			}
		}
		return out[:k]
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

// cmpStrLoop is cmpIntLoop for homogeneous string columns.
func cmpStrLoop(op CmpOp, vs []string, ks string, sel, out []int32) []int32 {
	k := 0
	for _, r := range sel {
		var cv int
		switch {
		case vs[r] < ks:
			cv = -1
		case vs[r] > ks:
			cv = 1
		}
		if cmpHolds(op, cv) {
			out[k] = r
			k++
		}
	}
	return out[:k]
}

// floatCv is the three-way float comparison Compare uses (NaN compares
// equal to everything it is neither below nor above, exactly as Compare's
// switch does).
func floatCv(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compileVecCmpColConst builds the kernel for col op const with typed loops
// for homogeneous columns and the scalar closure's exact semantics per row
// otherwise.
func compileVecCmpColConst(op CmpOp, idx int, kd types.Datum) VecPred {
	if kd.IsNull() {
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			return out[:0]
		}
	}
	kIsInt := intClass(kd.K)
	return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
		v := b.Col(idx)
		switch {
		case v.AllInt() && kIsInt:
			return cmpIntLoop(op, v.I, kd.I, sel, out)
		case v.AllInt() && kd.K == types.KindFloat:
			// Compare promotes mixed numeric operands to float.
			vi, kf := v.I, kd.F
			k := 0
			for _, r := range sel {
				if cmpHolds(op, floatCv(float64(vi[r]), kf)) {
					out[k] = r
					k++
				}
			}
			return out[:k]
		case v.AllFloat() && (kIsInt || kd.K == types.KindFloat):
			vf, kf := v.F, kd.Float()
			k := 0
			for _, r := range sel {
				if cmpHolds(op, floatCv(vf[r], kf)) {
					out[k] = r
					k++
				}
			}
			return out[:k]
		case v.AllStr() && kd.K == types.KindString:
			if v.HasDict() {
				return cmpDictLoop(op, v, kd.S, sel, out)
			}
			return cmpStrLoop(op, v.S, kd.S, sel, out)
		default:
			k := 0
			for _, r := range sel {
				d := v.Datum(int(r))
				if !d.IsNull() && cmpHolds(op, d.Compare(kd)) {
					out[k] = r
					k++
				}
			}
			return out[:k]
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
				if lv.AllInt() && rv.AllInt() {
					lvi, rvi := lv.I, rv.I
					k := 0
					for _, r := range sel {
						var cv int
						switch {
						case lvi[r] < rvi[r]:
							cv = -1
						case lvi[r] > rvi[r]:
							cv = 1
						}
						if cmpHolds(op, cv) {
							out[k] = r
							k++
						}
					}
					return out[:k]
				}
				k := 0
				for _, r := range sel {
					ld, rd := lv.Datum(int(r)), rv.Datum(int(r))
					if !ld.IsNull() && !rd.IsNull() && cmpHolds(op, ld.Compare(rd)) {
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
		// The scalar generic path yields false for every row when a bound
		// is NULL.
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			return out[:0]
		}
	}
	idx, loD, hiD := col.Idx, lo.D, hi.D
	intBounds := intClass(loD.K) && intClass(hiD.K)
	strBounds := loD.K == types.KindString && hiD.K == types.KindString
	return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
		v := b.Col(idx)
		switch {
		case v.AllInt() && intBounds:
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
		case v.AllStr() && strBounds:
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
			k := 0
			for _, r := range sel {
				d := v.Datum(int(r))
				if !d.IsNull() && d.Compare(loD) >= 0 && d.Compare(hiD) <= 0 {
					out[k] = r
					k++
				}
			}
			return out[:k]
		}
	}
}

func compileVecIn(in In) VecPred {
	col, okCol := in.E.(Col)
	if !okCol || len(in.Set) == 0 {
		return vecFallback(in)
	}
	allInt, allStr := true, true
	for _, d := range in.Set {
		if !intClass(d.K) {
			allInt = false
		}
		if d.K != types.KindString {
			allStr = false
		}
	}
	idx, set := col.Idx, in.Set
	switch {
	case allInt:
		ints := make(map[int64]struct{}, len(set))
		for _, d := range set {
			ints[d.I] = struct{}{}
		}
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			v := b.Col(idx)
			k := 0
			if v.AllInt() {
				vi := v.I
				for _, r := range sel {
					if _, ok := ints[vi[r]]; ok {
						out[k] = r
						k++
					}
				}
				return out[:k]
			}
			for _, r := range sel {
				d := v.Datum(int(r))
				var keep bool
				if intClass(d.K) {
					_, keep = ints[d.I]
				} else {
					keep = inSlow(d, set)
				}
				if keep {
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
			k := 0
			if v.AllStr() && v.HasDict() {
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
			if v.AllStr() {
				vs := v.S
				for _, r := range sel {
					if _, ok := strs[vs[r]]; ok {
						out[k] = r
						k++
					}
				}
				return out[:k]
			}
			for _, r := range sel {
				d := v.Datum(int(r))
				var keep bool
				if d.K == types.KindString {
					_, keep = strs[d.S]
				} else {
					keep = inSlow(d, set)
				}
				if keep {
					out[k] = r
					k++
				}
			}
			return out[:k]
		}
	default:
		return func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32 {
			v := b.Col(idx)
			k := 0
			for _, r := range sel {
				if inSlow(v.Datum(int(r)), set) {
					out[k] = r
					k++
				}
			}
			return out[:k]
		}
	}
}
