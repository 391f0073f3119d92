// Package tpch provides the TPC-H substrate of Scenario I: a lineitem
// generator with TPC-H-like value distributions and the TPC-H Q1 plan
// ("pricing summary report"), the scan-heavy aggregation the paper uses to
// demonstrate push- vs pull-based Simultaneous Pipelining at the table scan
// stage.
package tpch

import (
	"fmt"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// Column positions in the lineitem schema (the subset Q1 touches).
const (
	ColQuantity = iota
	ColExtendedPrice
	ColDiscount
	ColTax
	ColReturnFlag
	ColLineStatus
	ColShipDate
)

// LineitemRowsPerSF is the TPC-H lineitem cardinality at scale factor 1.
const LineitemRowsPerSF = 6_000_000

// Schema returns the lineitem schema.
func Schema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "l_quantity", Kind: types.KindInt},
		types.Column{Name: "l_extendedprice", Kind: types.KindFloat},
		types.Column{Name: "l_discount", Kind: types.KindFloat},
		types.Column{Name: "l_tax", Kind: types.KindFloat},
		types.Column{Name: "l_returnflag", Kind: types.KindString},
		types.Column{Name: "l_linestatus", Kind: types.KindString},
		types.Column{Name: "l_shipdate", Kind: types.KindDate},
	)
}

// Generate creates and loads the lineitem table at the given scale factor
// (fractional scale factors are supported: sf=0.01 is 60k rows).
func Generate(cat *storage.Catalog, sf float64, seed int64) (*storage.Table, error) {
	n := int(float64(LineitemRowsPerSF) * sf)
	if n < 1 {
		return nil, fmt.Errorf("tpch: scale factor %g yields no rows", sf)
	}
	tbl, err := cat.CreateTable("lineitem", Schema())
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))

	// Ship dates span 1992-01-02 .. 1998-12-01; the line status cutoff is
	// 1995-06-17 as in dbgen.
	startDay := types.DateFromYMD(1992, 1, 2).I
	endDay := types.DateFromYMD(1998, 12, 1).I
	cutoff := types.DateFromYMD(1995, 6, 17).I

	err = tbl.File.Load(n, func(_ int, row types.Row) {
		qty := int64(1 + r.Intn(50))
		price := float64(90000+r.Intn(1500000)) / 100 * float64(qty) / 25
		disc := float64(r.Intn(11)) / 100
		tax := float64(r.Intn(9)) / 100
		ship := startDay + r.Int63n(endDay-startDay+1)

		var rf, ls string
		if ship > cutoff {
			ls = "O"
			rf = "N"
		} else {
			ls = "F"
			switch r.Intn(4) {
			case 0:
				rf = "R"
			case 1:
				rf = "A"
			default:
				rf = "N"
			}
		}
		row[0] = types.NewInt(qty)
		row[1] = types.NewFloat(price)
		row[2] = types.NewFloat(disc)
		row[3] = types.NewFloat(tax)
		row[4] = types.NewString(rf)
		row[5] = types.NewString(ls)
		row[6] = types.NewDate(ship)
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// Q1Plan builds the TPC-H Q1 plan over the lineitem table:
//
//	SELECT l_returnflag, l_linestatus,
//	       sum(l_quantity), sum(l_extendedprice),
//	       sum(l_extendedprice*(1-l_discount)),
//	       sum(l_extendedprice*(1-l_discount)*(1+l_tax)),
//	       avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
//	FROM lineitem
//	WHERE l_shipdate <= date '1998-12-01' - interval 'delta' day
//	GROUP BY l_returnflag, l_linestatus
//	ORDER BY l_returnflag, l_linestatus
//
// delta is the query's single parameter (60..120 in the spec, 90 by
// default). Identical deltas yield identical plan fingerprints, which is what
// Scenario I relies on when it submits identical Q1 instances.
func Q1Plan(lineitem *storage.Table, delta int) plan.Node {
	cutoffDay := types.DateFromYMD(1998, 12, 1).I - int64(delta)

	scan := plan.NewScan(lineitem)
	filter := plan.NewFilter(scan, expr.NewCmp(expr.LE,
		expr.C(ColShipDate, "l_shipdate"),
		expr.Const{D: types.NewDate(cutoffDay)}))

	price := expr.C(ColExtendedPrice, "l_extendedprice")
	discFactor := expr.NewArith(expr.Sub, expr.Float(1), expr.C(ColDiscount, "l_discount"))
	discPrice := expr.NewArith(expr.Mul, price, discFactor)
	charge := expr.NewArith(expr.Mul, discPrice,
		expr.NewArith(expr.Add, expr.Float(1), expr.C(ColTax, "l_tax")))

	agg := plan.NewAggregate(filter,
		[]plan.GroupCol{
			{Name: "l_returnflag", Kind: types.KindString, Expr: expr.C(ColReturnFlag, "l_returnflag")},
			{Name: "l_linestatus", Kind: types.KindString, Expr: expr.C(ColLineStatus, "l_linestatus")},
		},
		[]plan.AggSpec{
			{Func: plan.AggSum, Arg: expr.C(ColQuantity, "l_quantity"), Name: "sum_qty"},
			{Func: plan.AggSum, Arg: price, Name: "sum_base_price"},
			{Func: plan.AggSum, Arg: discPrice, Name: "sum_disc_price"},
			{Func: plan.AggSum, Arg: charge, Name: "sum_charge"},
			{Func: plan.AggAvg, Arg: expr.C(ColQuantity, "l_quantity"), Name: "avg_qty"},
			{Func: plan.AggAvg, Arg: price, Name: "avg_price"},
			{Func: plan.AggAvg, Arg: expr.C(ColDiscount, "l_discount"), Name: "avg_disc"},
			{Func: plan.AggCount, Name: "count_order"},
		})
	return plan.NewSort(agg, []plan.SortKey{{Col: 0}, {Col: 1}})
}
