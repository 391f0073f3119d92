package engine

import (
	"context"
	"testing"

	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// joinInputs is one side of an operator-level join case: a literal, or a
// pooled batch.
func joinInputs(rows []types.Row, width int, literal bool) []*batch.Batch {
	if literal {
		return []*batch.Batch{batch.Of(rows...)}
	}
	cb := vec.Get(width)
	for _, r := range rows {
		cb.AppendRow(r)
	}
	cb.Seal(len(rows))
	return []*batch.Batch{batch.FromView(cb, nil)}
}

// Operator cases under narrowed output lists, over pooled and literal probe
// inputs, each probing a stored build table's shared index: NULL keys on
// both sides never match; duplicate build keys multiply the probe row even
// when the build side emits nothing (an existence probe is a semi-join only
// on unique keys); the key column need not be carried; an empty build table
// yields nothing. Batch refs balance.
func TestHashJoinNarrowedLists(t *testing.T) {
	s := types.NewString
	left := []types.Row{
		{types.NewInt(1), s("a")},
		{types.NewInt(2), s("b")},
		{types.Null, s("n")},
		{types.NewInt(1), s("c")},
	}
	right := []types.Row{
		{types.NewInt(1), s("x")},
		{types.NewInt(1), s("y")}, // duplicate build key
		{types.NewInt(3), s("z")},
		{types.Null, s("m")},
	}
	cat := testDB(t, 1)
	scanL := plan.NewScan(cat.MustTable("dept"))
	stored := func(name string, rows []types.Row) plan.Node {
		cols := []types.Column{{Name: name + "_k", Kind: types.KindInt}, {Name: name + "_v", Kind: types.KindString}}
		return plan.NewScan(mustTable(t, cat, name, cols, func(i int) types.Row { return rows[i] }, len(rows), nil))
	}
	full, empty := stored("full", right), stored("empty", nil)
	cases := []struct {
		name              string
		leftOut, rightOut []int
		build             plan.Node
		right             []types.Row
		want              []types.Row
	}{
		{"existence probe keeps multiplicity", []int{1}, nil, full, right,
			[]types.Row{{s("a")}, {s("a")}, {s("c")}, {s("c")}}},
		{"key dropped, payload kept", []int{1}, []int{1}, full, right,
			[]types.Row{{s("a"), s("x")}, {s("a"), s("y")}, {s("c"), s("x")}, {s("c"), s("y")}}},
		{"right only, reordered", nil, []int{1, 0}, full, right,
			[]types.Row{{s("x"), types.NewInt(1)}, {s("y"), types.NewInt(1)}, {s("x"), types.NewInt(1)}, {s("y"), types.NewInt(1)}}},
		{"empty build side", []int{0, 1}, []int{1}, empty, nil, nil},
	}
	base := vec.LiveBatches()
	for _, tc := range cases {
		n := plan.NewHashJoinOut(scanL, tc.build, 0, 0, tc.leftOut, tc.rightOut)
		for _, leftLit := range []bool{false, true} {
			e := &Engine{cfg: (&Config{BatchSize: 3}).withDefaults()}
			w := &collectWriter{}
			err := e.opHashJoin(context.Background(), n,
				&sliceReader{batches: joinInputs(left, 2, leftLit)}, w, newStage(plan.KindHashJoin, false))
			if err != nil {
				t.Fatalf("%s (literal probe side %v): %v", tc.name, leftLit, err)
			}
			mustEqualRows(t, w.rows, tc.want)
			mustEqualRows(t, refJoin(t, n, left, tc.right), tc.want)
		}
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d, want baseline %d", live, base)
	}
}

// A join's output lists are part of its SP identity: queries whose joins
// differ only in what they carry share the probe-side scan and the build
// table's index below but each run their own join, in both models;
// identical joins attach.
func TestJoinOutputListsGateSharing(t *testing.T) {
	cat := testDB(t, 3000)
	sales, dept := cat.MustTable("sales"), cat.MustTable("dept")
	mk := func(rightOut []int) plan.Node {
		return plan.NewHashJoinOut(plan.NewScan(sales), plan.NewScan(dept), 1, 0, []int{0, 2}, rightOut)
	}
	for _, model := range []SPModel{SPPush, SPPull} {
		e := newTestEngine(cat, Config{SP: true, Model: model})
		results, err := e.ExecuteBatch(context.Background(), []plan.Node{mk([]int{1}), mk([]int{1}), mk(nil)})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRows(t, results[1].Rows, results[0].Rows)
		if len(results[2].Rows) != len(results[0].Rows) || len(results[2].Rows[0]) != 2 {
			t.Errorf("%v: existence-probe twin returned %d rows of width %d, want %d of width 2",
				model, len(results[2].Rows), len(results[2].Rows[0]), len(results[0].Rows))
		}
		join := e.StageStatsFor(plan.KindHashJoin)
		if join.Executed != 2 || join.SPAttached != 1 {
			t.Errorf("%v: join stage %+v, want executed=2 (one per distinct output list) attached=1", model, join)
		}
		if scan := e.StageStatsFor(plan.KindScan); scan.Executed != 1 {
			t.Errorf("%v: scan stage executed = %d, want 1 (sales shared below the joins, dept served by its index)", model, scan.Executed)
		}
		if es := e.Stats(); es.IndexJoins != 2 {
			t.Errorf("%v: %d joins probed dept's shared index, want 2 (one per distinct output list)", model, es.IndexJoins)
		}
	}
}
