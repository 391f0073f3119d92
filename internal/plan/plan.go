// Package plan defines the operator trees executed by the QPipe engine and
// the star-query descriptors consumed by the CJOIN operator.
//
// A plan's one identity is its Fingerprint, a 128-bit hash covering the node,
// its parameters and its whole subtree. Fingerprints are the run-time
// common-sub-plan detection key of Simultaneous Pipelining: two packets are
// shareable iff their nodes' fingerprints are equal, which implies
// structurally identical predicates — the paper's "common sub-plans with
// identical predicates" requirement. The result cache keys on the same
// value.
package plan

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// Kind identifies the operator (and thereby the QPipe stage that runs it).
type Kind uint8

// Operator kinds. KindCJoin must remain the highest value: the engine sizes
// its stage table as KindCJoin+1.
const (
	KindScan Kind = iota
	KindFilter
	KindProject
	KindHashJoin
	KindAggregate
	KindSort
	KindLimit
	KindCJoin
)

// String returns the stage name of the operator kind.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindFilter:
		return "filter"
	case KindProject:
		return "project"
	case KindHashJoin:
		return "join"
	case KindAggregate:
		return "agg"
	case KindSort:
		return "sort"
	case KindLimit:
		return "limit"
	case KindCJoin:
		return "cjoin"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is one operator of a query plan.
type Node interface {
	// Kind identifies the operator.
	Kind() Kind
	// Schema is the output schema.
	Schema() *types.Schema
	// Children returns the input sub-plans.
	Children() []Node
}

// ---------------------------------------------------------------------------
// Scan

// Scan reads every row of a table through a (shared) circular scan. An
// optional predicate is evaluated inside the scan stage (predicate
// push-down, as QPipe's tscan stage does); scans with different pushed
// predicates do not SP-share their output, but they still share I/O through
// the storage layer's circular scans.
type Scan struct {
	Table *storage.Table
	Pred  expr.Expr // optional pushed-down selection
}

// NewScan builds a full table scan node.
func NewScan(t *storage.Table) *Scan { return &Scan{Table: t} }

// NewScanFiltered builds a scan with a pushed-down selection.
func NewScanFiltered(t *storage.Table, pred expr.Expr) *Scan {
	return &Scan{Table: t, Pred: pred}
}

// Kind returns KindScan.
func (s *Scan) Kind() Kind { return KindScan }

// Schema is the table schema.
func (s *Scan) Schema() *types.Schema { return s.Table.Schema }

// Children returns nil (scans are leaves).
func (s *Scan) Children() []Node { return nil }

// ---------------------------------------------------------------------------
// Filter

// Filter keeps rows for which Pred evaluates to true.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// NewFilter builds a selection node.
func NewFilter(in Node, pred expr.Expr) *Filter { return &Filter{Input: in, Pred: pred} }

// Kind returns KindFilter.
func (f *Filter) Kind() Kind { return KindFilter }

// Schema passes the input schema through.
func (f *Filter) Schema() *types.Schema { return f.Input.Schema() }

// Children returns the single input.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// ---------------------------------------------------------------------------
// Project

// ProjCol is one output column of a projection.
type ProjCol struct {
	Name string
	Kind types.Kind
	Expr expr.Expr
}

// Project computes a new row layout from expressions over the input.
type Project struct {
	Input  Node
	Cols   []ProjCol
	schema *types.Schema
}

// NewProject builds a projection node.
func NewProject(in Node, cols []ProjCol) *Project {
	sc := make([]types.Column, len(cols))
	for i, c := range cols {
		sc[i] = types.Column{Name: c.Name, Kind: c.Kind}
	}
	return &Project{Input: in, Cols: cols, schema: types.NewSchema(sc...)}
}

// Kind returns KindProject.
func (p *Project) Kind() Kind { return KindProject }

// Schema is the projected schema.
func (p *Project) Schema() *types.Schema { return p.schema }

// Children returns the single input.
func (p *Project) Children() []Node { return []Node{p.Input} }

// ---------------------------------------------------------------------------
// HashJoin

// HashJoin is a single-column equi-join: the left input streams and probes
// the right input's table through that table's shared join index. The
// engine runs only a right input of the form IndexedBuild accepts, a stored
// table under selections, and refuses any other. (Star joins with multiple
// dimensions are chains of these; the multi-query shared variant is the
// CJOIN operator.)
//
// LeftOut and RightOut list the input columns the join emits — its schema is
// exactly those columns, left then right — so a join ships only what
// something above it reads. A right side with an empty RightOut is an
// existence probe: it filters (and multiplies, on duplicate build keys) the
// left rows and contributes no column.
type HashJoin struct {
	Left, Right Node
	LeftCol     int   // join key position in the left schema
	RightCol    int   // join key position in the right schema
	LeftOut     []int // left columns carried to the output, in output order
	RightOut    []int // right columns carried to the output, after the left ones
	schema      *types.Schema
}

// NewHashJoin builds an equi-join node that carries every column of both
// inputs (schema left ++ right).
func NewHashJoin(left, right Node, leftCol, rightCol int) *HashJoin {
	return NewHashJoinOut(left, right, leftCol, rightCol,
		identityCols(left.Schema().Len()), identityCols(right.Schema().Len()))
}

// NewHashJoinOut builds an equi-join node that carries only the listed
// columns of each input (each list names distinct columns, in any order).
func NewHashJoinOut(left, right Node, leftCol, rightCol int, leftOut, rightOut []int) *HashJoin {
	return &HashJoin{
		Left: left, Right: right,
		LeftCol: leftCol, RightCol: rightCol,
		LeftOut: leftOut, RightOut: rightOut,
		schema: left.Schema().Project(leftOut).Concat(right.Schema().Project(rightOut)),
	}
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// IndexedBuild reports whether the join's build side is a stored table under
// selections only — Filter*(Scan(T)) — and if so returns T, whose shared join
// index on RightCol serves the build (storage.Table.Indexes), and the
// selections to evaluate over the index's entries: the scan's pushed
// predicate and every filter's. The right schema is then T's, so RightCol
// and RightOut name T's columns. The engine refuses a join for which it
// reports false.
func (j *HashJoin) IndexedBuild() (*storage.Table, []expr.Expr, bool) {
	var preds []expr.Expr
	for n := j.Right; ; {
		switch v := n.(type) {
		case *Filter:
			preds = append(preds, v.Pred)
			n = v.Input
		case *Scan:
			if v.Pred != nil {
				preds = append(preds, v.Pred)
			}
			return v.Table, preds, true
		default:
			return nil, nil, false
		}
	}
}

// Kind returns KindHashJoin.
func (j *HashJoin) Kind() Kind { return KindHashJoin }

// Schema is the LeftOut columns of the left input followed by the RightOut
// columns of the right input.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Children returns left and right inputs.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// ---------------------------------------------------------------------------
// Aggregate

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL-ish name of the aggregate function.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	default:
		return "max"
	}
}

// GroupCol is one grouping expression.
type GroupCol struct {
	Name string
	Kind types.Kind
	Expr expr.Expr
}

// AggSpec is one aggregate output column. Arg is nil for COUNT(*). ArgKind
// is the result kind for Min/Max (Sum and Avg produce floats, Count ints).
type AggSpec struct {
	Func    AggFunc
	Arg     expr.Expr
	Name    string
	ArgKind types.Kind
}

// Aggregate is a hash group-by with the given aggregates; with no group
// columns it produces a single global row.
type Aggregate struct {
	Input   Node
	GroupBy []GroupCol
	Aggs    []AggSpec
	schema  *types.Schema
}

// NewAggregate builds an aggregation node.
func NewAggregate(in Node, groupBy []GroupCol, aggs []AggSpec) *Aggregate {
	cols := make([]types.Column, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		cols = append(cols, types.Column{Name: g.Name, Kind: g.Kind})
	}
	for _, a := range aggs {
		k := types.KindFloat
		switch a.Func {
		case AggCount:
			k = types.KindInt
		case AggMin, AggMax:
			k = a.ArgKind
		}
		cols = append(cols, types.Column{Name: a.Name, Kind: k})
	}
	return &Aggregate{Input: in, GroupBy: groupBy, Aggs: aggs, schema: types.NewSchema(cols...)}
}

// Kind returns KindAggregate.
func (a *Aggregate) Kind() Kind { return KindAggregate }

// Schema is group columns followed by aggregate columns.
func (a *Aggregate) Schema() *types.Schema { return a.schema }

// Children returns the single input.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// ---------------------------------------------------------------------------
// Sort

// SortKey orders by an output column of the input.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes the input and emits it ordered by Keys.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// NewSort builds a sort node.
func NewSort(in Node, keys []SortKey) *Sort { return &Sort{Input: in, Keys: keys} }

// Kind returns KindSort.
func (s *Sort) Kind() Kind { return KindSort }

// Schema passes the input schema through.
func (s *Sort) Schema() *types.Schema { return s.Input.Schema() }

// Children returns the single input.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// ---------------------------------------------------------------------------
// Limit

// Limit passes through the first N input rows and cancels its input once
// satisfied (top-of-plan row caps; combined with Sort it implements the
// ORDER BY ... LIMIT shape of several SSB reporting queries).
type Limit struct {
	Input Node
	N     int
}

// NewLimit builds a row-limit node.
func NewLimit(in Node, n int) *Limit { return &Limit{Input: in, N: n} }

// Kind returns KindLimit.
func (l *Limit) Kind() Kind { return KindLimit }

// Schema passes the input schema through.
func (l *Limit) Schema() *types.Schema { return l.Input.Schema() }

// Children returns the single input.
func (l *Limit) Children() []Node { return []Node{l.Input} }
