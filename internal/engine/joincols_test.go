package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/dimtab"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// joinKinds are the kinds of a join case's key and payload columns.
var joinKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString}

// randJoinDatum draws a join-key datum of kind k from a domain of n values,
// so duplicate build keys and probe hits are common; ~10% of keys are NULL.
// Float keys are halves: the integral ones equal int keys, exercising the
// cross-kind numeric equality of Datum.Compare.
func randJoinDatum(r *rand.Rand, k types.Kind, n int) types.Datum {
	if r.Intn(10) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		return types.NewInt(int64(r.Intn(n)))
	case types.KindFloat:
		return types.NewFloat(float64(r.Intn(2*n)) / 2)
	}
	return types.NewString(fmt.Sprintf("key-%d", r.Intn(n)))
}

// randPayload draws one non-key payload datum of kind k, a quarter of them
// NULL.
func randPayload(r *rand.Rand, k types.Kind, i int) types.Datum {
	if r.Intn(4) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		return types.NewInt(int64(i))
	case types.KindFloat:
		return types.NewFloat(float64(i) + 0.25)
	}
	return types.NewString(fmt.Sprintf("p%d", i))
}

// joinCase is one randomized join fixture: two sealed tables, the key
// column indexes, and the rows that survive each side's optional filter.
type joinCase struct {
	cat           *storage.Catalog
	left, right   *storage.Table
	lkey, rkey    int
	leftP, rightP plan.Node
	lrows, rrows  []types.Row // post-filter reference rows
}

// buildJoinCase materializes one random join case: random key class, random
// cardinalities (including empty build sides), random payload columns, and
// optional filters so scans publish view batches under real selections.
// Sorts are mixed in on either side so the operator also sees a sort's own
// output batches. Classes 0–2 join keys of one kind (int, float, string);
// class 3 gives each table a key kind of its own, so int meets float and
// string meets a number in one join.
func buildJoinCase(t *testing.T, r *rand.Rand) joinCase {
	t.Helper()
	class := r.Intn(4)
	lk, rk, domain := joinKinds[class%3], joinKinds[class%3], 12
	if class == 3 {
		i := r.Intn(3)
		lk, rk, domain = joinKinds[i], joinKinds[(i+1+r.Intn(2))%3], 8
	}
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64)

	mkTable := func(name string, nrows int, kk types.Kind) (*storage.Table, []types.Row) {
		vk := joinKinds[r.Intn(3)]
		schema := types.NewSchema(
			types.Column{Name: name + "_sel", Kind: types.KindInt},
			types.Column{Name: name + "_k", Kind: kk},
			types.Column{Name: name + "_v", Kind: vk},
		)
		tab, err := cat.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, nrows)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(int64(r.Intn(10))),
				randJoinDatum(r, kk, domain),
				randPayload(r, vk, i),
			}
		}
		if nrows > 0 {
			if err := tab.File.Append(rows...); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.File.Seal(); err != nil {
			t.Fatal(err)
		}
		return tab, rows
	}

	nl, nr := r.Intn(300), r.Intn(60)
	if r.Intn(10) == 0 {
		nr = 0 // empty build side
	}
	left, lrows := mkTable("l", nl, lk)
	right, rrows := mkTable("r", nr, rk)

	filtered := func(tab *storage.Table, rows []types.Row) (plan.Node, []types.Row) {
		var n plan.Node = plan.NewScan(tab)
		if r.Intn(2) == 0 {
			cut := int64(r.Intn(11))
			n = plan.NewFilter(n, expr.NewCmp(expr.LT, expr.C(0, "sel"), expr.Int(cut)))
			kept := make([]types.Row, 0, len(rows))
			for _, row := range rows {
				if row[0].I < cut {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		if r.Intn(5) == 0 {
			// A sort feeds its own output batches to the join on this side.
			n = plan.NewSort(n, []plan.SortKey{{Col: 2}})
		}
		return n, rows
	}
	lp, lref := filtered(left, lrows)
	rp, rref := filtered(right, rrows)
	return joinCase{cat: cat, left: left, right: right, lkey: 1, rkey: 1,
		leftP: lp, rightP: rp, lrows: lref, rrows: rref}
}

// naiveJoin is the row-at-a-time reference for a join node over already
// filtered inputs: nested loop with Datum equality and NULL-never-matches,
// independent of any hash machinery, emitting the node's output lists.
func naiveJoin(n *plan.HashJoin, lrows, rrows []types.Row) []types.Row {
	var out []types.Row
	for _, l := range lrows {
		k := l[n.LeftCol]
		if k.IsNull() {
			continue
		}
		for _, rr := range rrows {
			if rr[n.RightCol].IsNull() || !rr[n.RightCol].Equal(k) {
				continue
			}
			row := make(types.Row, 0, len(n.LeftOut)+len(n.RightOut))
			for _, c := range n.LeftOut {
				row = append(row, l[c])
			}
			for _, c := range n.RightOut {
				row = append(row, rr[c])
			}
			out = append(out, row)
		}
	}
	return out
}

// stripBuildSort returns join with the Sort that buildJoinCase may put on its
// build side stripped, after asserting that the engine refuses the sorted
// form with a *BuildSideError naming the sort. A sort does not change which
// rows join, so the stripped join matches the same naive rows.
func stripBuildSort(t *testing.T, e *Engine, join *plan.HashJoin) *plan.HashJoin {
	t.Helper()
	s, ok := join.Right.(*plan.Sort)
	if !ok {
		return join
	}
	_, err := e.Execute(context.Background(), join)
	if bse := (*BuildSideError)(nil); !errors.As(err, &bse) || bse.Kind != plan.KindSort {
		t.Fatalf("sorted build side: got %v, want a *BuildSideError naming the sort", err)
	}
	return plan.NewHashJoinOut(join.Left, s.Input, join.LeftCol, join.RightCol, join.LeftOut, join.RightOut)
}

// refJoin runs the row-materializing reference operator over literals.
func refJoin(t *testing.T, n *plan.HashJoin, lrows, rrows []types.Row) []types.Row {
	t.Helper()
	e := &Engine{cfg: (&Config{BatchSize: 32}).withDefaults()}
	w := &collectWriter{}
	err := e.opHashJoinRows(context.Background(), n,
		&sliceReader{batches: []*batch.Batch{batch.Of(lrows...)}},
		&sliceReader{batches: []*batch.Batch{batch.Of(rrows...)}},
		w, newStage(plan.KindHashJoin, false))
	if err != nil {
		t.Fatalf("reference join: %v", err)
	}
	return w.rows
}

// randOutList draws an output list over width columns: a random subset in
// random order — possibly empty, possibly without the key column, a quarter
// of the time the identity.
func randOutList(r *rand.Rand, width int) []int {
	if r.Intn(4) == 0 {
		out := make([]int, width)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return r.Perm(width)[:r.Intn(width+1)]
}

// The columnar hash join must agree with a naive nested-loop join — and with
// the row-materializing reference operator — over random plans covering
// duplicate build keys, NULL keys on both sides, empty build sides,
// int/float/string/dict key columns, tables keyed by different kinds
// (integral floats equal ints), random selections, a sorted probe side, and
// random output lists: full width, narrowed, empty (an existence probe,
// which must still emit one row per match) and lists that drop the key
// column. A sorted build side is refused, then run without its sort.
func TestColumnarJoinEquivRandom(t *testing.T) {
	ctx := context.Background()
	base := vec.LiveBatches()
	for round := 0; round < 200; round++ {
		r := rand.New(rand.NewSource(int64(round)*7919 + 1))
		jc := buildJoinCase(t, r)
		join := plan.NewHashJoinOut(jc.leftP, jc.rightP, jc.lkey, jc.rkey,
			randOutList(r, 3), randOutList(r, 3))
		want := naiveJoin(join, jc.lrows, jc.rrows)

		cols := New(jc.cat, Config{BatchSize: 32})
		join = stripBuildSort(t, cols, join)
		got, err := cols.Execute(ctx, join)
		if err != nil {
			t.Fatalf("round %d: columnar join: %v", round, err)
		}
		if len(want) > 0 && len(join.Schema().Cols) == 0 {
			// Zero-width rows carry only their count.
			if len(got.Rows) != len(want) {
				t.Fatalf("round %d: %d zero-width rows, want %d", round, len(got.Rows), len(want))
			}
		} else {
			mustEqualRows(t, got.Rows, want)
		}
		mustEqualRows(t, refJoin(t, join, jc.lrows, jc.rrows), want)
		// Frames hold no batches: only leaked refs move the gauge.
		waitStagesIdle(t, cols)
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d after the battery, want baseline %d", live, base)
	}
}

// NULL join keys must never match in the typed columnar path — pinned at the
// join index the operator builds, so the NULL→false semantics (the same
// convention expr predicates and zone maps use) cannot regress behind a
// uniformity-flag fast path. NULLs appear on both sides, in otherwise-int
// columns.
func TestColumnarJoinNullKeysNeverMatch(t *testing.T) {
	build := vec.Get(2)
	for _, d := range []types.Datum{
		types.NewInt(1), types.Null, types.NewInt(2), types.Null,
	} {
		build.Col(0).AppendDatum(d)
		build.Col(1).AppendDatum(types.NewString("payload"))
	}
	build.Seal(4)
	defer build.Release()

	tab := dimtab.New(0, 2)
	defer tab.Release()
	tab.Append(build, build.AllSel())
	if err := tab.Seal(); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("NULL build keys inserted: table has %d entries, want 2", tab.Len())
	}

	probe := vec.Get(1)
	for _, d := range []types.Datum{
		types.Null, types.NewInt(1), types.Null, types.NewInt(3),
	} {
		probe.Col(0).AppendDatum(d)
	}
	probe.Seal(4)
	defer probe.Release()

	ml, me := tab.Probe(probe.Col(0), probe.AllSel(), nil, nil)
	if len(ml) != 1 || ml[0] != 1 {
		t.Fatalf("probe matches = %v (rows) %v (entries), want exactly row 1", ml, me)
	}
}

// End-to-end pin of the same invariant through the engine: NULL keys on both
// sides of a plan produce no joined rows beyond the non-NULL matches.
func TestHashJoinNullKeysEndToEnd(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 32)
	mk := func(name string) *storage.Table {
		tab, err := cat.CreateTable(name, types.NewSchema(
			types.Column{Name: name + "k", Kind: types.KindInt},
			types.Column{Name: name + "v", Kind: types.KindString},
		))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	l, r := mk("l"), mk("r")
	lrows := []types.Row{
		{types.Null, types.NewString("ln")},
		{types.NewInt(7), types.NewString("l7")},
	}
	rrows := []types.Row{
		{types.Null, types.NewString("rn")},
		{types.NewInt(7), types.NewString("r7")},
	}
	if err := l.File.Append(lrows...); err != nil {
		t.Fatal(err)
	}
	if err := r.File.Append(rrows...); err != nil {
		t.Fatal(err)
	}
	if err := l.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := r.File.Seal(); err != nil {
		t.Fatal(err)
	}
	e := New(cat, Config{})
	res, err := e.Execute(context.Background(),
		plan.NewHashJoin(plan.NewScan(l), plan.NewScan(r), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, res.Rows, []types.Row{lrows[1].Concat(rrows[1])})
}
