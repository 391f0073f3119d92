package plan

import (
	"repro/internal/expr"
	"repro/internal/storage"
)

// Fingerprint returns a 128-bit structural fingerprint of a plan tree — the
// exact-template matching key of the engine's materialized result cache.
// Unlike Signature it is allocation-free to compute, comparable, and covers
// output column names and kinds (two plans with equal fingerprints produce
// byte-identical results including headers, given identical table contents).
func Fingerprint(n Node) expr.Fp {
	h := expr.NewFpHasher()
	addNode(&h, n)
	return h.Sum()
}

func addNode(h *expr.FpHasher, n Node) {
	if n == nil {
		h.Byte(0xfe)
		return
	}
	h.Byte(byte(n.Kind()) + 1)
	switch v := n.(type) {
	case *Scan:
		h.Str(v.Table.Name)
		h.AddExpr(v.Pred)
	case *Filter:
		h.AddExpr(v.Pred)
		addNode(h, v.Input)
	case *Project:
		h.U64(uint64(len(v.Cols)))
		for _, c := range v.Cols {
			h.Str(c.Name)
			h.Byte(byte(c.Kind))
			h.AddExpr(c.Expr)
		}
		addNode(h, v.Input)
	case *HashJoin:
		h.U64(uint64(v.LeftCol))
		h.U64(uint64(v.RightCol))
		addCols(h, v.LeftOut)
		addCols(h, v.RightOut)
		addNode(h, v.Left)
		addNode(h, v.Right)
	case *Aggregate:
		h.U64(uint64(len(v.GroupBy)))
		for _, g := range v.GroupBy {
			h.Str(g.Name)
			h.Byte(byte(g.Kind))
			h.AddExpr(g.Expr)
		}
		h.U64(uint64(len(v.Aggs)))
		for _, a := range v.Aggs {
			h.Byte(byte(a.Func))
			h.Str(a.Name)
			h.Byte(byte(a.ArgKind))
			h.AddExpr(a.Arg)
		}
		addNode(h, v.Input)
	case *Sort:
		h.U64(uint64(len(v.Keys)))
		for _, k := range v.Keys {
			h.U64(uint64(k.Col))
			if k.Desc {
				h.Byte(1)
			} else {
				h.Byte(0)
			}
		}
		addNode(h, v.Input)
	case *Limit:
		h.U64(uint64(v.N))
		addNode(h, v.Input)
	case *CJoin:
		addStar(h, v.Star)
	default:
		// Unknown extension node: canonical signature fallback.
		h.Str(n.Signature())
		for _, c := range n.Children() {
			addNode(h, c)
		}
	}
}

// addCols hashes a length-prefixed column list.
func addCols(h *expr.FpHasher, cols []int) {
	h.U64(uint64(len(cols)))
	for _, c := range cols {
		h.U64(uint64(c))
	}
}

func addStar(h *expr.FpHasher, q *StarQuery) {
	h.Str(q.Fact.Name)
	h.AddExpr(q.FactPred)
	addCols(h, q.FactCols)
	h.U64(uint64(len(q.Dims)))
	for _, d := range q.Dims {
		h.Str(d.Table.Name)
		h.U64(uint64(d.FactKeyCol))
		h.U64(uint64(d.DimKeyCol))
		h.AddExpr(d.Pred)
		addCols(h, d.PayloadCols)
	}
}

// Tables appends every base table the plan reads to dst (duplicates
// possible). The result cache snapshots their versions to detect appends.
func Tables(n Node, dst []*storage.Table) []*storage.Table {
	if n == nil {
		return dst
	}
	switch v := n.(type) {
	case *Scan:
		dst = append(dst, v.Table)
	case *CJoin:
		dst = append(dst, v.Star.Fact)
		for _, d := range v.Star.Dims {
			dst = append(dst, d.Table)
		}
	}
	for _, c := range n.Children() {
		dst = Tables(c, dst)
	}
	return dst
}
