package plan

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// DimJoin describes one dimension of a star query: the fact foreign key, the
// dimension primary key, an optional dimension selection, and the dimension
// columns carried to the output.
type DimJoin struct {
	Table       *storage.Table
	FactKeyCol  int // FK position in the fact schema
	DimKeyCol   int // PK position in the dimension schema
	Pred        expr.Expr
	PayloadCols []int
}

// StarQuery describes the join graph of a star query: a fact table with an
// optional selection and a chain of dimension joins. It is the unit of
// admission into the CJOIN Global Query Plan, and can equally be expanded
// into a query-centric chain of hash-joins (QueryCentric) — the harness
// flips between the two to compare SP against GQP on identical queries.
type StarQuery struct {
	Fact     *storage.Table
	FactPred expr.Expr
	FactCols []int // fact columns carried to the output
	Dims     []DimJoin
}

// OutputSchema is the schema of the joined tuples the star query produces:
// the selected fact columns followed by each dimension's payload columns, in
// declaration order. CJOIN's distributor and the query-centric expansion
// both produce exactly this layout, so upper plan fragments (aggregations)
// are oblivious to which execution strategy ran below them.
func (q *StarQuery) OutputSchema() *types.Schema {
	cols := make([]types.Column, 0, len(q.FactCols)+4)
	for _, i := range q.FactCols {
		cols = append(cols, q.Fact.Schema.Cols[i])
	}
	for _, d := range q.Dims {
		for _, i := range d.PayloadCols {
			cols = append(cols, d.Table.Schema.Cols[i])
		}
	}
	return types.NewSchema(cols...)
}

// Signature canonically encodes the whole star query.
func (q *StarQuery) Signature() string {
	var sb strings.Builder
	sb.WriteString("star(")
	sb.WriteString(q.Fact.Name)
	sb.WriteByte(',')
	if q.FactPred != nil {
		sb.WriteString(q.FactPred.Signature())
	}
	sb.WriteString(",[")
	writeCols(&sb, q.FactCols)
	sb.WriteByte(']')
	for _, d := range q.Dims {
		sb.WriteString(",dim(")
		sb.WriteString(d.Table.Name)
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(d.FactKeyCol))
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(d.DimKeyCol))
		sb.WriteByte(',')
		if d.Pred != nil {
			sb.WriteString(d.Pred.Signature())
		}
		sb.WriteString(",[")
		writeCols(&sb, d.PayloadCols)
		sb.WriteString("])")
	}
	sb.WriteByte(')')
	return sb.String()
}

// CJoin is the plan node that evaluates a star query on the shared CJOIN
// stage (the Global Query Plan). Its output schema is StarQuery.OutputSchema.
type CJoin struct {
	Star   *StarQuery
	schema *types.Schema
}

// NewCJoin wraps a star query for evaluation by the CJOIN stage.
func NewCJoin(q *StarQuery) *CJoin { return &CJoin{Star: q, schema: q.OutputSchema()} }

// Kind returns KindCJoin.
func (c *CJoin) Kind() Kind { return KindCJoin }

// Schema is the star output schema.
func (c *CJoin) Schema() *types.Schema { return c.schema }

// Children returns nil: the scan and joins happen inside the shared pipeline.
func (c *CJoin) Children() []Node { return nil }

// Signature encodes the star query; identical star sub-plans therefore SP-
// share a single CJOIN packet (Figure 2).
func (c *CJoin) Signature() string { return "cjoin(" + c.Star.Signature() + ")" }

// QueryCentric expands the star query into the equivalent query-centric
// plan: scan(fact) → filter → chain of hash-joins against filtered dimension
// scans → projection to OutputSchema's layout.
//
// The chain is narrowed at build time: each join emits only the columns
// something above it reads — the FactCols, the fact foreign keys of the joins
// still to come, and the dimension payloads gathered so far — so a join's
// output width is what the query keeps, not what its inputs hold. A
// dimension with no PayloadCols (one that only filters) becomes an existence
// probe. Scans and filters are full-width and untouched, so page views stay
// zero-copy and scan-level SP sharing is unaffected.
func (q *StarQuery) QueryCentric() Node {
	var n Node = NewScan(q.Fact)
	if q.FactPred != nil {
		n = NewFilter(n, q.FactPred)
	}
	// n's schema is always: the fact columns listed in fact (fact[p] is the
	// fact-schema column at position p), then npay dimension payload columns
	// in declaration order.
	fact := identityCols(q.Fact.Schema.Len())
	npay := 0
	for i, d := range q.Dims {
		var dn Node = NewScan(d.Table)
		if d.Pred != nil {
			dn = NewFilter(dn, d.Pred)
		}
		// Live above this join: the output fact columns and later joins' keys.
		live := appendDistinct(nil, q.FactCols...)
		for _, later := range q.Dims[i+1:] {
			live = appendDistinct(live, later.FactKeyCol)
		}
		leftOut := make([]int, 0, len(live)+npay)
		for _, fc := range live {
			leftOut = append(leftOut, slices.Index(fact, fc))
		}
		for p := 0; p < npay; p++ {
			leftOut = append(leftOut, len(fact)+p)
		}
		n = NewHashJoinOut(n, dn, slices.Index(fact, d.FactKeyCol), d.DimKeyCol, leftOut, d.PayloadCols)
		fact = live
		npay += len(d.PayloadCols)
	}
	// Final projection to the star output layout.
	out := q.OutputSchema()
	cols := make([]ProjCol, out.Len())
	for ci := range cols {
		var pos int
		if ci < len(q.FactCols) {
			pos = slices.Index(fact, q.FactCols[ci])
		} else {
			pos = len(fact) + ci - len(q.FactCols) // payloads follow the fact part
		}
		cols[ci] = ProjCol{
			Name: out.Cols[ci].Name,
			Kind: out.Cols[ci].Kind,
			Expr: expr.C(pos, out.Cols[ci].Name),
		}
	}
	return NewProject(n, cols)
}

// appendDistinct appends each of cols not already in dst.
func appendDistinct(dst []int, cols ...int) []int {
	for _, c := range cols {
		if !slices.Contains(dst, c) {
			dst = append(dst, c)
		}
	}
	return dst
}
