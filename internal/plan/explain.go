package plan

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Explain renders the plan tree in an indented, pg-style format. Example:
//
//	Sort [0 asc, 1 asc]
//	└─ Aggregate group=[d_year p_brand1] aggs=[sum(revenue)]
//	   └─ CJoin star(lineorder, dims=[date part supplier])
//
// A hash join names its keys, the columns it carries up, left | right, so
// the plan says what each stage ships, and the build table's shared index it
// probes (HashJoin.IndexedBuild):
//
//	HashJoin lo_orderdate = d_datekey → [lo_revenue lo_partkey lo_suppkey | d_year] via index d_datekey
//
// The output is for humans (examples, demo server, debugging); plan
// identity for SP and the result cache is Fingerprint, not Explain.
func Explain(n Node) string {
	var sb strings.Builder
	explain(&sb, n, "", true, true)
	return sb.String()
}

func explain(sb *strings.Builder, n Node, prefix string, isLast, isRoot bool) {
	connector := ""
	childPrefix := prefix
	if !isRoot {
		if isLast {
			connector = "└─ "
			childPrefix = prefix + "   "
		} else {
			connector = "├─ "
			childPrefix = prefix + "│  "
		}
	}
	sb.WriteString(prefix + connector + describe(n) + "\n")
	children := n.Children()
	for i, c := range children {
		explain(sb, c, childPrefix, i == len(children)-1, false)
	}
}

// colNames renders the named columns of a schema, space-separated.
func colNames(s *types.Schema, cols []int) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = s.Cols[c].Name
	}
	return strings.Join(names, " ")
}

// describe renders a single node.
func describe(n Node) string {
	switch v := n.(type) {
	case *Scan:
		if v.Pred != nil {
			return fmt.Sprintf("Scan %s filter=%s", v.Table.Name, v.Pred.Signature())
		}
		return fmt.Sprintf("Scan %s (%d rows)", v.Table.Name, v.Table.NumRows())
	case *Filter:
		return "Filter " + v.Pred.Signature()
	case *Project:
		names := make([]string, len(v.Cols))
		for i, c := range v.Cols {
			names[i] = c.Name
		}
		return "Project [" + strings.Join(names, " ") + "]"
	case *HashJoin:
		ls, rs := v.Left.Schema(), v.Right.Schema()
		return fmt.Sprintf("HashJoin %s = %s → [%s | %s] via index %s",
			ls.Cols[v.LeftCol].Name, rs.Cols[v.RightCol].Name,
			colNames(ls, v.LeftOut), colNames(rs, v.RightOut), rs.Cols[v.RightCol].Name)
	case *Aggregate:
		groups := make([]string, len(v.GroupBy))
		for i, g := range v.GroupBy {
			groups[i] = g.Name
		}
		aggs := make([]string, len(v.Aggs))
		for i, a := range v.Aggs {
			aggs[i] = a.Func.String() + "(" + a.Name + ")"
		}
		return "Aggregate group=[" + strings.Join(groups, " ") + "] aggs=[" + strings.Join(aggs, " ") + "]"
	case *Sort:
		keys := make([]string, len(v.Keys))
		for i, k := range v.Keys {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys[i] = fmt.Sprintf("%d %s", k.Col, dir)
		}
		return "Sort [" + strings.Join(keys, ", ") + "]"
	case *Limit:
		return fmt.Sprintf("Limit %d", v.N)
	case *CJoin:
		dims := make([]string, len(v.Star.Dims))
		for i, d := range v.Star.Dims {
			dims[i] = d.Table.Name
		}
		return fmt.Sprintf("CJoin star(%s, dims=[%s])", v.Star.Fact.Name, strings.Join(dims, " "))
	default:
		return fmt.Sprintf("%T", n)
	}
}
