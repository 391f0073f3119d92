package engine

import (
	"context"
	"testing"

	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// The zero Vec is a valid uniform column, so the arenas newJoinTable makes
// take the typed paths: after building an int-keyed dimension the key arena
// is AllInt, and the probe resolves every key from the raw int64 payloads.
// The proof of "no Datum" is structural: the kind tags are stripped from both
// key columns, so any Vec.Datum call would index out of range.
func TestJoinTableTypedPathsLive(t *testing.T) {
	build := vec.Get(2)
	defer build.Release()
	for i := 0; i < 100; i++ {
		build.Col(0).AppendDatum(types.NewInt(int64(i % 50))) // duplicate keys chain
		build.Col(1).AppendDatum(types.NewString("p"))
	}
	build.Seal(100)

	jt := newJoinTable(0, []int{1})
	var scr joinScratch
	jt.buildCols(build, build.AllSel(), &scr)
	if !jt.key.AllInt() {
		t.Fatal("int-keyed build arena is not AllInt: the typed probe path is dead")
	}
	if !jt.out[0].AllStr() {
		t.Fatal("string payload arena is not AllStr: gathers fall back to per-row appends")
	}

	jt.key.Kinds = nil
	probe := vec.Vec{I: []int64{7, 99, 49}} // the zero flags: a valid all-int column
	jt.probeCols(&probe, []int32{0, 1, 2}, &scr)
	if len(scr.ml) != 4 { // 7 and 49 match two entries each, 99 none
		t.Fatalf("typed probe found %d matches, want 4 (rows %v, entries %v)", len(scr.ml), scr.ml, scr.me)
	}
}

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

// Operator cases under narrowed output lists, over pooled and literal
// inputs on either side: NULL keys on both sides never match; duplicate build keys
// multiply the probe row even when the build side emits nothing (an existence
// probe is a semi-join only on unique keys); the key column need not be
// carried; an empty build side yields nothing. Batch refs balance.
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
	scanL, scanR := plan.NewScan(cat.MustTable("dept")), plan.NewScan(cat.MustTable("dept"))
	cases := []struct {
		name              string
		leftOut, rightOut []int
		right             []types.Row
		want              []types.Row
	}{
		{"existence probe keeps multiplicity", []int{1}, nil, right,
			[]types.Row{{s("a")}, {s("a")}, {s("c")}, {s("c")}}},
		{"key dropped, payload kept", []int{1}, []int{1}, right,
			[]types.Row{{s("a"), s("x")}, {s("a"), s("y")}, {s("c"), s("x")}, {s("c"), s("y")}}},
		{"right only, reordered", nil, []int{1, 0}, right,
			[]types.Row{{s("x"), types.NewInt(1)}, {s("y"), types.NewInt(1)}, {s("x"), types.NewInt(1)}, {s("y"), types.NewInt(1)}}},
		{"empty build side", []int{0, 1}, []int{1}, nil, nil},
	}
	base := vec.LiveBatches()
	for _, tc := range cases {
		n := plan.NewHashJoinOut(scanL, scanR, 0, 0, tc.leftOut, tc.rightOut)
		for _, form := range []struct{ leftLit, rightLit bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			e := &Engine{cfg: (&Config{BatchSize: 3}).withDefaults()}
			w := &collectWriter{}
			err := e.opHashJoin(context.Background(), n,
				&sliceReader{batches: joinInputs(left, 2, form.leftLit)},
				&sliceReader{batches: joinInputs(tc.right, 2, form.rightLit)},
				w, newStage(plan.KindHashJoin, false))
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.name, form, err)
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
// differ only in what they carry share the scans below but each run their own
// join, in both models; identical joins attach.
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
		if scan := e.StageStatsFor(plan.KindScan); scan.Executed != 2 {
			t.Errorf("%v: scan stage executed = %d, want 2 (both tables shared below the joins)", model, scan.Executed)
		}
	}
}
