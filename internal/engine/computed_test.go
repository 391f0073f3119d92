package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// randomDatum draws a literal of any kind, NULL included.
func randomDatum(r *rand.Rand) types.Datum {
	switch r.Intn(5) {
	case 0:
		return types.NewInt(int64(r.Intn(7)))
	case 1:
		return types.NewFloat(float64(r.Intn(9)) / 2)
	case 2:
		return types.NewString(fmt.Sprintf("brand-%02d", r.Intn(3)))
	case 3:
		return types.Null
	default:
		return types.NewDate(int64(r.Intn(7)))
	}
}

// randomExpr draws an expression over ncols columns: arithmetic,
// comparisons, IN lists, conjunctions, column references and literals.
func randomExpr(r *rand.Rand, ncols, depth int) expr.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(3) > 0 {
			return expr.C(r.Intn(ncols), "c")
		}
		return expr.Const{D: randomDatum(r)}
	}
	l, rr := randomExpr(r, ncols, depth-1), randomExpr(r, ncols, depth-1)
	switch r.Intn(5) {
	case 0, 1:
		return expr.NewArith(expr.ArithOp(r.Intn(4)), l, rr)
	case 2:
		return expr.NewCmp(expr.CmpOp(r.Intn(6)), l, rr)
	case 3:
		return expr.NewIn(l, randomDatum(r), randomDatum(r))
	default:
		return expr.And{L: l, R: rr}
	}
}

// randomViews builds 1–3 random batches over styles, some columns with NULLs
// set in place, each published under a random selection (every row, a
// subset, or none). It returns the views and the selected rows in order.
func randomViews(r *rand.Rand, styles []colStyle) ([]*batch.Batch, []types.Row) {
	var views []*batch.Batch
	var rows []types.Row
	for bi := r.Intn(3) + 1; bi > 0; bi-- {
		nrows := r.Intn(96) + 4
		cb := buildRandomBatch(r, nrows, len(styles), styles)
		for c := range styles {
			if r.Intn(3) == 0 { // NULL-bearing
				for i := 0; i < nrows; i += r.Intn(5) + 1 {
					cb.Col(c).SetNull(i)
				}
			}
		}
		sel := cb.AllSel()
		if r.Intn(2) == 0 {
			sel = []int32{}
			for i := 0; i < nrows; i++ {
				if r.Intn(3) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		for _, ri := range sel {
			rows = append(rows, cb.Row(int(ri)))
		}
		views = append(views, batch.FromView(cb, sel))
	}
	return views, rows
}

func randomStyles(r *rand.Rand, ncols int) []colStyle {
	styles := make([]colStyle, ncols)
	for c := range styles {
		styles[c] = colStyle(r.Intn(int(numStyles)))
	}
	return styles
}

// TestProjectMatchesEval is the differential test of opProject: over random
// output expressions (arithmetic, comparisons, IN, AND, literals and column
// references) on int, float, string, dictionary, mixed and NULL-bearing
// columns under random selections, every output row is exactly Eval's over
// the input row, and every batch goes back to the pool.
func TestProjectMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	e := &Engine{cfg: (&Config{}).withDefaults()}
	base := vec.LiveBatches()
	for trial := 0; trial < 300; trial++ {
		ncols := r.Intn(3) + 1
		styles := randomStyles(r, ncols)
		cols := make([]plan.ProjCol, r.Intn(3)+1)
		for j := range cols {
			cols[j] = plan.ProjCol{Name: fmt.Sprintf("p%d", j), Kind: types.KindInt, Expr: randomExpr(r, ncols, 3)}
		}
		node := plan.NewProject(nil, cols)
		views, in := randomViews(r, styles)
		w := &collectWriter{}
		if err := e.opProject(context.Background(), node, &sliceReader{batches: views}, w, newStage(plan.KindProject, false)); err != nil {
			t.Fatal(err)
		}
		if len(w.rows) != len(in) {
			t.Fatalf("trial %d: %d rows out, %d in", trial, len(w.rows), len(in))
		}
		for i, row := range in {
			for j, c := range cols {
				want, got := c.Expr.Eval(row), w.rows[i][j]
				if got.K != want.K || got.SigString() != want.SigString() {
					t.Fatalf("trial %d row %d col %d: %s over %v = %v (%v), Eval %v (%v)",
						trial, i, j, c.Expr.Signature(), row, got, got.K, want, want.K)
				}
			}
		}
	}
	if live := vec.LiveBatches(); live != base {
		t.Errorf("LiveBatches = %d, want baseline %d", live, base)
	}
}

// naiveAggregate is the map-based reference of a grouped aggregate: each
// row's key is Eval'd, groups are keyed by the key's value (numeric kinds by
// number, as Datum.Compare equates them) and keep the first key seen.
func naiveAggregate(n *plan.Aggregate, rows []types.Row) []types.Row {
	type group struct {
		key  types.Row
		accs []aggAcc
	}
	groups := map[string]*group{}
	var order []*group
	for _, row := range rows {
		key := make(types.Row, len(n.GroupBy))
		id := ""
		for i, g := range n.GroupBy {
			d := g.Expr.Eval(row)
			key[i] = d
			switch {
			case d.IsNull():
				id += "null|"
			case d.K == types.KindString:
				id += "s:" + d.S + "|"
			default:
				f := d.Float()
				if f == 0 {
					f = 0 // -0 equals 0
				}
				id += "n:" + strconv.FormatFloat(f, 'g', -1, 64) + "|"
			}
		}
		g := groups[id]
		if g == nil {
			g = &group{key: key, accs: make([]aggAcc, len(n.Aggs))}
			groups[id] = g
			order = append(order, g)
		}
		for i, spec := range n.Aggs {
			if spec.Arg == nil {
				g.accs[i].count++
				continue
			}
			g.accs[i].updateDatum(spec, spec.Arg.Eval(row))
		}
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := g.key.Clone()
		for i, a := range g.accs {
			row = append(row, a.result(n.Aggs[i]))
		}
		out = append(out, row)
	}
	return out
}

// TestComputedGroupKeyMatchesNaive: a grouped aggregate whose keys are
// expressions — arithmetic over a column, or any random expression — groups
// exactly as the naive map-based reference does, over int, float, string,
// dictionary, mixed and NULL-bearing columns under random selections.
func TestComputedGroupKeyMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	base := vec.LiveBatches()
	for trial := 0; trial < 300; trial++ {
		ncols := r.Intn(3) + 1
		styles := randomStyles(r, ncols)
		groupBy := make([]plan.GroupCol, r.Intn(2)+1)
		for g := range groupBy {
			key := randomExpr(r, ncols, 2)
			if r.Intn(2) == 0 {
				key = expr.NewArith(expr.ArithOp(r.Intn(4)), expr.C(r.Intn(ncols), "c"), expr.Int(int64(r.Intn(3)+1)))
			}
			groupBy[g] = plan.GroupCol{Name: fmt.Sprintf("g%d", g), Kind: types.KindInt, Expr: key}
		}
		aggs := make([]plan.AggSpec, r.Intn(2)+1)
		for a := range aggs {
			fn := plan.AggFunc(r.Intn(5))
			var arg expr.Expr
			if fn != plan.AggCount || r.Intn(2) == 0 {
				arg = randomExpr(r, ncols, 1)
			}
			aggs[a] = plan.AggSpec{Func: fn, Arg: arg, Name: fmt.Sprintf("a%d", a), ArgKind: types.KindInt}
		}
		node := plan.NewAggregate(nil, groupBy, aggs)
		views, in := randomViews(r, styles)
		got := canonical(runAggregate(t, node, views))
		want := canonical(naiveAggregate(node, in))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, naive %d\ngot:  %v\nwant: %v", trial, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d group %d:\ngot:  %s\nwant: %s", trial, i, got[i], want[i])
			}
		}
	}
	if live := vec.LiveBatches(); live != base {
		t.Errorf("LiveBatches = %d, want baseline %d", live, base)
	}
}
