package ssb

import (
	"fmt"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Template identifies one of the 13 SSB query templates.
type Template int

// The SSB query flights.
const (
	Q1_1 Template = iota
	Q1_2
	Q1_3
	Q2_1
	Q2_2
	Q2_3
	Q3_1
	Q3_2
	Q3_3
	Q3_4
	Q4_1
	Q4_2
	Q4_3
)

// AllTemplates lists every SSB template.
var AllTemplates = []Template{Q1_1, Q1_2, Q1_3, Q2_1, Q2_2, Q2_3, Q3_1, Q3_2, Q3_3, Q3_4, Q4_1, Q4_2, Q4_3}

// String returns the template name ("Q2.1").
func (t Template) String() string {
	names := []string{"Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3",
		"Q3.1", "Q3.2", "Q3.3", "Q3.4", "Q4.1", "Q4.2", "Q4.3"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("Q?(%d)", int(t))
}

// Instance is one instantiated query: a star join (the part CJOIN can
// evaluate) plus the query-centric fragment above it (aggregation/sort).
// Plan() assembles the full plan for either execution strategy; because
// both strategies produce the identical star output schema, the upper
// fragment is strategy-oblivious.
type Instance struct {
	Name  string
	Star  *plan.StarQuery
	Build func(starOut plan.Node) plan.Node
}

// Plan assembles the executable plan. useGQP=true routes the star join to
// the shared CJOIN stage; false expands it into a query-centric hash-join
// chain.
func (in Instance) Plan(useGQP bool) plan.Node {
	if useGQP {
		return in.Build(plan.NewCJoin(in.Star))
	}
	return in.Build(in.Star.QueryCentric())
}

// ---------------------------------------------------------------------------
// Template instantiation

// Instantiate draws one randomized instance of the template, as the demo
// does when "randomizing the template's parameters to decrease the
// efficiency of SP".
func Instantiate(db *DB, t Template, r *rand.Rand) Instance {
	switch t {
	case Q1_1:
		year := int64(1992 + r.Intn(7))
		d := int64(1 + r.Intn(8))
		q := int64(20 + r.Intn(11))
		return q1Instance(db, t,
			expr.Eq(expr.C(DYear, "d_year"), expr.Int(year)),
			expr.NewAnd(
				expr.NewBetween(expr.C(LODiscount, "lo_discount"), expr.Int(d), expr.Int(d+2)),
				expr.NewCmp(expr.LT, expr.C(LOQuantity, "lo_quantity"), expr.Int(q)),
			))
	case Q1_2:
		ym := int64((1992+r.Intn(7))*100 + 1 + r.Intn(12))
		d := int64(1 + r.Intn(8))
		q := int64(10 + r.Intn(26))
		return q1Instance(db, t,
			expr.Eq(expr.C(DYearMonthNum, "d_yearmonthnum"), expr.Int(ym)),
			expr.NewAnd(
				expr.NewBetween(expr.C(LODiscount, "lo_discount"), expr.Int(d), expr.Int(d+2)),
				expr.NewBetween(expr.C(LOQuantity, "lo_quantity"), expr.Int(q), expr.Int(q+9)),
			))
	case Q1_3:
		week := int64(1 + r.Intn(52))
		year := int64(1992 + r.Intn(7))
		d := int64(1 + r.Intn(8))
		q := int64(10 + r.Intn(26))
		return q1Instance(db, t,
			expr.NewAnd(
				expr.Eq(expr.C(DWeekNumInYear, "d_weeknuminyear"), expr.Int(week)),
				expr.Eq(expr.C(DYear, "d_year"), expr.Int(year)),
			),
			expr.NewAnd(
				expr.NewBetween(expr.C(LODiscount, "lo_discount"), expr.Int(d), expr.Int(d+2)),
				expr.NewBetween(expr.C(LOQuantity, "lo_quantity"), expr.Int(q), expr.Int(q+9)),
			))
	case Q2_1:
		cat := fmt.Sprintf("MFGR#%d%d", 1+r.Intn(5), 1+r.Intn(5))
		region := Regions[r.Intn(len(Regions))]
		return q2Instance(db, t,
			expr.Eq(expr.C(PCategory, "p_category"), expr.Str(cat)),
			region)
	case Q2_2:
		m, c, b := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(33)
		lo := fmt.Sprintf("MFGR#%d%d%02d", m, c, b)
		hi := fmt.Sprintf("MFGR#%d%d%02d", m, c, b+7)
		region := Regions[r.Intn(len(Regions))]
		return q2Instance(db, t,
			expr.NewBetween(expr.C(PBrand1, "p_brand1"), expr.Str(lo), expr.Str(hi)),
			region)
	case Q2_3:
		brand := fmt.Sprintf("MFGR#%d%d%02d", 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(40))
		region := Regions[r.Intn(len(Regions))]
		return q2Instance(db, t,
			expr.Eq(expr.C(PBrand1, "p_brand1"), expr.Str(brand)),
			region)
	case Q3_1:
		region := Regions[r.Intn(len(Regions))]
		y := int64(1992 + r.Intn(5))
		return q3Instance(db, t,
			expr.Eq(expr.C(CRegion, "c_region"), expr.Str(region)), CNation, "c_nation",
			expr.Eq(expr.C(SRegion, "s_region"), expr.Str(region)), SNation, "s_nation",
			expr.NewBetween(expr.C(DYear, "d_year"), expr.Int(y), expr.Int(y+5)))
	case Q3_2:
		nation := Nations[r.Intn(len(Nations))]
		y := int64(1992 + r.Intn(5))
		return q3Instance(db, t,
			expr.Eq(expr.C(CNation, "c_nation"), expr.Str(nation)), CCity, "c_city",
			expr.Eq(expr.C(SNation, "s_nation"), expr.Str(nation)), SCity, "s_city",
			expr.NewBetween(expr.C(DYear, "d_year"), expr.Int(y), expr.Int(y+5)))
	case Q3_3, Q3_4:
		nation := Nations[r.Intn(len(Nations))]
		c1, c2 := CityOf(nation, r.Intn(10)), CityOf(nation, r.Intn(10))
		var datePred expr.Expr
		if t == Q3_3 {
			y := int64(1992 + r.Intn(5))
			datePred = expr.NewBetween(expr.C(DYear, "d_year"), expr.Int(y), expr.Int(y+5))
		} else {
			month := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}[r.Intn(12)]
			datePred = expr.Eq(expr.C(DYearMonth, "d_yearmonth"),
				expr.Str(fmt.Sprintf("%s%d", month, 1992+r.Intn(7))))
		}
		return q3Instance(db, t,
			expr.NewIn(expr.C(CCity, "c_city"), types.NewString(c1), types.NewString(c2)), CCity, "c_city",
			expr.NewIn(expr.C(SCity, "s_city"), types.NewString(c1), types.NewString(c2)), SCity, "s_city",
			datePred)
	case Q4_1:
		region := Regions[r.Intn(len(Regions))]
		m1, m2 := 1+r.Intn(5), 1+r.Intn(5)
		return q4Instance(db, t, q4Params{
			custPred:    expr.Eq(expr.C(CRegion, "c_region"), expr.Str(region)),
			custPayload: []int{CNation},
			suppPred:    expr.Eq(expr.C(SRegion, "s_region"), expr.Str(region)),
			partPred: expr.NewIn(expr.C(PMfgr, "p_mfgr"),
				types.NewString(fmt.Sprintf("MFGR#%d", m1)), types.NewString(fmt.Sprintf("MFGR#%d", m2))),
			groupBy: []string{"d_year", "c_nation"},
		})
	case Q4_2:
		region := Regions[r.Intn(len(Regions))]
		m1, m2 := 1+r.Intn(5), 1+r.Intn(5)
		y := int64(1992 + r.Intn(6))
		return q4Instance(db, t, q4Params{
			custPred:    expr.Eq(expr.C(CRegion, "c_region"), expr.Str(region)),
			suppPred:    expr.Eq(expr.C(SRegion, "s_region"), expr.Str(region)),
			suppPayload: []int{SNation},
			partPred: expr.NewIn(expr.C(PMfgr, "p_mfgr"),
				types.NewString(fmt.Sprintf("MFGR#%d", m1)), types.NewString(fmt.Sprintf("MFGR#%d", m2))),
			partPayload: []int{PCategory},
			datePred:    expr.NewIn(expr.C(DYear, "d_year"), types.NewInt(y), types.NewInt(y+1)),
			groupBy:     []string{"d_year", "s_nation", "p_category"},
		})
	case Q4_3:
		region := Regions[r.Intn(len(Regions))]
		nation := NationsByRegion[region][r.Intn(5)]
		cat := fmt.Sprintf("MFGR#%d%d", 1+r.Intn(5), 1+r.Intn(5))
		y := int64(1992 + r.Intn(6))
		return q4Instance(db, t, q4Params{
			custPred:    expr.Eq(expr.C(CRegion, "c_region"), expr.Str(region)),
			suppPred:    expr.Eq(expr.C(SNation, "s_nation"), expr.Str(nation)),
			suppPayload: []int{SCity},
			partPred:    expr.Eq(expr.C(PCategory, "p_category"), expr.Str(cat)),
			partPayload: []int{PBrand1},
			datePred:    expr.NewIn(expr.C(DYear, "d_year"), types.NewInt(y), types.NewInt(y+1)),
			groupBy:     []string{"d_year", "s_city", "p_brand1"},
		})
	default:
		panic(fmt.Sprintf("ssb: unknown template %d", int(t)))
	}
}

// q1Instance: SELECT sum(lo_extendedprice*lo_discount) FROM lineorder, date
// WHERE join AND datePred AND factPred.
func q1Instance(db *DB, t Template, datePred, factPred expr.Expr) Instance {
	star := &plan.StarQuery{
		Fact:     db.Lineorder,
		FactPred: factPred,
		FactCols: []int{LOExtendedPrice, LODiscount},
		Dims: []plan.DimJoin{{
			Table: db.Date, FactKeyCol: LOOrderDate, DimKeyCol: DDateKey, Pred: datePred,
		}},
	}
	return Instance{
		Name: t.String(),
		Star: star,
		Build: func(out plan.Node) plan.Node {
			s := out.Schema()
			rev := expr.NewArith(expr.Mul,
				expr.C(s.MustColIndex("lo_extendedprice"), "lo_extendedprice"),
				expr.C(s.MustColIndex("lo_discount"), "lo_discount"))
			return plan.NewAggregate(out, nil,
				[]plan.AggSpec{{Func: plan.AggSum, Arg: rev, Name: "revenue"}})
		},
	}
}

// q2Instance: revenue by (d_year, p_brand1) for one part predicate and one
// supplier region.
func q2Instance(db *DB, t Template, partPred expr.Expr, sRegion string) Instance {
	star := &plan.StarQuery{
		Fact:     db.Lineorder,
		FactCols: []int{LORevenue},
		Dims: []plan.DimJoin{
			{Table: db.Date, FactKeyCol: LOOrderDate, DimKeyCol: DDateKey, PayloadCols: []int{DYear}},
			{Table: db.Part, FactKeyCol: LOPartKey, DimKeyCol: PPartKey, Pred: partPred, PayloadCols: []int{PBrand1}},
			{Table: db.Supplier, FactKeyCol: LOSuppKey, DimKeyCol: SSuppKey,
				Pred: expr.Eq(expr.C(SRegion, "s_region"), expr.Str(sRegion))},
		},
	}
	return Instance{
		Name: t.String(),
		Star: star,
		Build: func(out plan.Node) plan.Node {
			s := out.Schema()
			agg := plan.NewAggregate(out,
				[]plan.GroupCol{
					{Name: "d_year", Kind: types.KindInt, Expr: expr.C(s.MustColIndex("d_year"), "d_year")},
					{Name: "p_brand1", Kind: types.KindString, Expr: expr.C(s.MustColIndex("p_brand1"), "p_brand1")},
				},
				[]plan.AggSpec{{Func: plan.AggSum,
					Arg: expr.C(s.MustColIndex("lo_revenue"), "lo_revenue"), Name: "revenue"}})
			return plan.NewSort(agg, []plan.SortKey{{Col: 0}, {Col: 1}})
		},
	}
}

// q3Instance: revenue by (custCol, suppCol, d_year), ordered by year asc /
// revenue desc.
func q3Instance(db *DB, t Template,
	custPred expr.Expr, custPayload int, custName string,
	suppPred expr.Expr, suppPayload int, suppName string,
	datePred expr.Expr) Instance {
	star := &plan.StarQuery{
		Fact:     db.Lineorder,
		FactCols: []int{LORevenue},
		Dims: []plan.DimJoin{
			{Table: db.Customer, FactKeyCol: LOCustKey, DimKeyCol: CCustKey, Pred: custPred, PayloadCols: []int{custPayload}},
			{Table: db.Supplier, FactKeyCol: LOSuppKey, DimKeyCol: SSuppKey, Pred: suppPred, PayloadCols: []int{suppPayload}},
			{Table: db.Date, FactKeyCol: LOOrderDate, DimKeyCol: DDateKey, Pred: datePred, PayloadCols: []int{DYear}},
		},
	}
	return Instance{
		Name: t.String(),
		Star: star,
		Build: func(out plan.Node) plan.Node {
			s := out.Schema()
			agg := plan.NewAggregate(out,
				[]plan.GroupCol{
					{Name: custName, Kind: types.KindString, Expr: expr.C(s.MustColIndex(custName), custName)},
					{Name: suppName, Kind: types.KindString, Expr: expr.C(s.MustColIndex(suppName), suppName)},
					{Name: "d_year", Kind: types.KindInt, Expr: expr.C(s.MustColIndex("d_year"), "d_year")},
				},
				[]plan.AggSpec{{Func: plan.AggSum,
					Arg: expr.C(s.MustColIndex("lo_revenue"), "lo_revenue"), Name: "revenue"}})
			return plan.NewSort(agg, []plan.SortKey{{Col: 2}, {Col: 3, Desc: true}})
		},
	}
}

// q4Params carries the varying pieces of the Q4 flight.
type q4Params struct {
	custPred    expr.Expr
	custPayload []int
	suppPred    expr.Expr
	suppPayload []int
	partPred    expr.Expr
	partPayload []int
	datePred    expr.Expr
	groupBy     []string
}

// q4Instance: profit = sum(lo_revenue - lo_supplycost) by p.groupBy.
func q4Instance(db *DB, t Template, p q4Params) Instance {
	star := &plan.StarQuery{
		Fact:     db.Lineorder,
		FactCols: []int{LORevenue, LOSupplyCost},
		Dims: []plan.DimJoin{
			{Table: db.Customer, FactKeyCol: LOCustKey, DimKeyCol: CCustKey, Pred: p.custPred, PayloadCols: p.custPayload},
			{Table: db.Supplier, FactKeyCol: LOSuppKey, DimKeyCol: SSuppKey, Pred: p.suppPred, PayloadCols: p.suppPayload},
			{Table: db.Part, FactKeyCol: LOPartKey, DimKeyCol: PPartKey, Pred: p.partPred, PayloadCols: p.partPayload},
			{Table: db.Date, FactKeyCol: LOOrderDate, DimKeyCol: DDateKey, Pred: p.datePred, PayloadCols: []int{DYear}},
		},
	}
	groupBy := p.groupBy
	return Instance{
		Name: t.String(),
		Star: star,
		Build: func(out plan.Node) plan.Node {
			s := out.Schema()
			groups := make([]plan.GroupCol, len(groupBy))
			keys := make([]plan.SortKey, len(groupBy))
			for i, name := range groupBy {
				idx := s.MustColIndex(name)
				groups[i] = plan.GroupCol{Name: name, Kind: s.Cols[idx].Kind, Expr: expr.C(idx, name)}
				keys[i] = plan.SortKey{Col: i}
			}
			profit := expr.NewArith(expr.Sub,
				expr.C(s.MustColIndex("lo_revenue"), "lo_revenue"),
				expr.C(s.MustColIndex("lo_supplycost"), "lo_supplycost"))
			agg := plan.NewAggregate(out, groups,
				[]plan.AggSpec{{Func: plan.AggSum, Arg: profit, Name: "profit"}})
			return plan.NewSort(agg, keys)
		},
	}
}

// ---------------------------------------------------------------------------
// Scenario controls

// ParametricWindow is the Scenario III workhorse: revenue by year over fact
// rows with lo_quantity BETWEEN start+1 AND start+width. Selectivity is
// width/50 regardless of start, so instances at the same selectivity can
// still differ (randomized start), which "decreases the efficiency of SP"
// exactly as the scenario prescribes.
func ParametricWindow(db *DB, width, start int64) Instance {
	star := &plan.StarQuery{
		Fact: db.Lineorder,
		FactPred: expr.NewBetween(expr.C(LOQuantity, "lo_quantity"),
			expr.Int(start+1), expr.Int(start+width)),
		FactCols: []int{LORevenue},
		Dims: []plan.DimJoin{{
			Table: db.Date, FactKeyCol: LOOrderDate, DimKeyCol: DDateKey, PayloadCols: []int{DYear},
		}},
	}
	return Instance{
		Name: fmt.Sprintf("param(sel=%d%%,start=%d)", width*2, start),
		Star: star,
		Build: func(out plan.Node) plan.Node {
			s := out.Schema()
			return plan.NewAggregate(out,
				[]plan.GroupCol{{Name: "d_year", Kind: types.KindInt, Expr: expr.C(s.MustColIndex("d_year"), "d_year")}},
				[]plan.AggSpec{{Func: plan.AggSum,
					Arg: expr.C(s.MustColIndex("lo_revenue"), "lo_revenue"), Name: "revenue"}})
		},
	}
}

// ParametricWindowJoin is the Scenario III join-above-the-exchange variant:
// the ParametricWindow star output carries lo_suppkey, is hash-joined with
// the supplier table in the engine's join stage, and revenue is grouped by
// s_nation. The supplier join sits above the exchange in both plan flavors
// (below the CJOIN output or the query-centric star), so the line measures
// the engine hash join's build/probe path under the scenario mix, with a
// dimension-sized build side.
func ParametricWindowJoin(db *DB, width, start int64) Instance {
	star := &plan.StarQuery{
		Fact: db.Lineorder,
		FactPred: expr.NewBetween(expr.C(LOQuantity, "lo_quantity"),
			expr.Int(start+1), expr.Int(start+width)),
		FactCols: []int{LORevenue, LOSuppKey},
		Dims: []plan.DimJoin{{
			Table: db.Date, FactKeyCol: LOOrderDate, DimKeyCol: DDateKey, PayloadCols: []int{DYear},
		}},
	}
	return Instance{
		Name: fmt.Sprintf("paramjoin(sel=%d%%,start=%d)", width*2, start),
		Star: star,
		Build: func(out plan.Node) plan.Node {
			s := out.Schema()
			j := plan.NewHashJoin(out, plan.NewScan(db.Supplier),
				s.MustColIndex("lo_suppkey"), SSuppKey)
			js := j.Schema()
			return plan.NewAggregate(j,
				[]plan.GroupCol{{Name: "s_nation", Kind: types.KindString,
					Expr: expr.C(js.MustColIndex("s_nation"), "s_nation")}},
				[]plan.AggSpec{{Func: plan.AggSum,
					Arg: expr.C(js.MustColIndex("lo_revenue"), "lo_revenue"), Name: "revenue"}})
		},
	}
}

// DateWindow is the Scenario IV pruning axis workhorse: revenue by year over
// fact rows with lo_orderdate in a contiguous calendar window covering
// selPct percent of the 1992-1998 calendar, starting at day offset start.
// Selectivity is selPct regardless of start (randomized start keeps
// same-selectivity instances distinct, as in ParametricWindow). On a
// date-clustered fact table the window maps to a contiguous run of pages and
// zone maps prove every page outside it irrelevant.
func DateWindow(db *DB, selPct int, start int) Instance {
	nd := len(db.DateKeys)
	width := nd * selPct / 100
	if width < 1 {
		width = 1
	}
	if start < 0 {
		start = 0
	}
	if start > nd-width {
		start = nd - width
	}
	lo, hi := db.DateKeys[start], db.DateKeys[start+width-1]
	star := &plan.StarQuery{
		Fact: db.Lineorder,
		FactPred: expr.NewBetween(expr.C(LOOrderDate, "lo_orderdate"),
			expr.Int(lo), expr.Int(hi)),
		FactCols: []int{LORevenue},
		Dims: []plan.DimJoin{{
			Table: db.Date, FactKeyCol: LOOrderDate, DimKeyCol: DDateKey, PayloadCols: []int{DYear},
		}},
	}
	return Instance{
		Name: fmt.Sprintf("datewin(sel=%d%%,start=%d)", selPct, start),
		Star: star,
		Build: func(out plan.Node) plan.Node {
			s := out.Schema()
			return plan.NewAggregate(out,
				[]plan.GroupCol{{Name: "d_year", Kind: types.KindInt, Expr: expr.C(s.MustColIndex("d_year"), "d_year")}},
				[]plan.AggSpec{{Func: plan.AggSum,
					Arg: expr.C(s.MustColIndex("lo_revenue"), "lo_revenue"), Name: "revenue"}})
		},
	}
}

// DateWindowPool draws nPlans DateWindow instances at the same selectivity
// with randomized starts (the pruning analogue of the Scenario III window
// pool).
func DateWindowPool(db *DB, selPct, nPlans int, seed int64) []Instance {
	r := rand.New(rand.NewSource(seed))
	nd := len(db.DateKeys)
	width := nd * selPct / 100
	if width < 1 {
		width = 1
	}
	out := make([]Instance, 0, nPlans)
	for len(out) < nPlans {
		out = append(out, DateWindow(db, selPct, r.Intn(nd-width+1)))
	}
	return out
}

// Pool pre-generates nPlans distinct instances of the template (distinct by
// the fingerprint of their star join). Clients drawing queries from a small
// pool produce many common sub-plans; a large pool has few — the "number of
// possible different plans" axis of Scenario IV.
func Pool(db *DB, t Template, nPlans int, seed int64) []Instance {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[expr.Fp]bool, nPlans)
	var out []Instance
	for attempts := 0; len(out) < nPlans && attempts < nPlans*100; attempts++ {
		in := Instantiate(db, t, r)
		fp := plan.Fingerprint(plan.NewCJoin(in.Star))
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, in)
	}
	return out
}
