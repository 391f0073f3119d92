package tpch

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

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
