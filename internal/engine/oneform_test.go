package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// shapeWriter records what each published batch carries and holds: its
// rows, the rows of its column batch, and the largest array capacity of its
// columns.
type shapeWriter struct {
	lens, held, caps []int
	rows             []types.Row
}

func (w *shapeWriter) Put(ctx context.Context, b *batch.Batch) error {
	cb, sel := b.Cols()
	c := 0
	for i := range cb.NumCols() {
		v := cb.Col(i)
		c = max(c, cap(v.Kinds), cap(v.I), cap(v.F), cap(v.S))
	}
	w.lens, w.held, w.caps = append(w.lens, len(sel)), append(w.held, cb.Len()), append(w.caps, c)
	w.rows = append(w.rows, b.RowsView()...)
	b.Done()
	return nil
}

func (w *shapeWriter) Close(err error) {}

// checkBatching fails unless n rows came out as ⌈n/size⌉ batches of size rows
// but the last, each holding exactly the rows it carries in arrays reserved
// for them (a size class overshoots by at most an eighth, never below 16).
func (w *shapeWriter) checkBatching(t *testing.T, what string, n, size int) {
	t.Helper()
	if want := (n + size - 1) / size; len(w.lens) != want {
		t.Fatalf("%s: %d rows in %d batches, want %d of at most %d", what, n, len(w.lens), want, size)
	}
	for i, l := range w.lens {
		if want := min(size, n-i*size); l != want || w.held[i] != l || w.caps[i] > max(16, l+l/8) {
			t.Fatalf("%s: batch %d carries %d rows of a %d-row batch, arrays of %d; want %d rows held exactly",
				what, i, l, w.held[i], w.caps[i], want)
		}
	}
}

// sig renders a row exactly — kind and value of every datum — for
// row-for-row comparison.
func sig(r types.Row) string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.SigString()
	}
	return strings.Join(parts, "|")
}

// sortKeyDatum draws a key of one class from a small domain, so keys repeat,
// with NULLs in every class; class 4 mixes the other four in one column.
func sortKeyDatum(r *rand.Rand, class int) types.Datum {
	if r.Intn(7) == 0 {
		return types.Null
	}
	if class == 4 {
		class = r.Intn(4)
	}
	switch class {
	case 0:
		return types.NewInt(int64(r.Intn(4)))
	case 1:
		return types.NewFloat(float64(r.Intn(6)) / 2)
	case 2:
		return types.DateFromYMD(2024, 1, 1+r.Intn(4))
	default:
		return types.NewString(fmt.Sprintf("k%d", r.Intn(4)))
	}
}

// TestSortMatchesStableReference pins opSort's output order, which recorded
// result digests depend on: over random multi-batch inputs (pooled batches
// under random selections, and literals) with many duplicate keys, NULLs and
// int/float/date/string/mixed key columns, sorted on 1–3 keys with mixed
// Desc at BatchSize 1, 3 and 1024, the output equals sort.SliceStable over
// the materialized input row for row — ties keep arrival order, and a unique
// trailing id makes any other tie order visible. Every batch comes back.
func TestSortMatchesStableReference(t *testing.T) {
	ctx := context.Background()
	base := vec.LiveBatches()
	type part struct {
		rows []types.Row
		sel  []int32
		lit  bool
	}
	for round := 0; round < 60; round++ {
		r := rand.New(rand.NewSource(int64(round)*131 + 7))
		nkeys := 1 + r.Intn(3)
		classes := make([]int, nkeys)
		for i := range classes {
			classes[i] = r.Intn(5)
		}
		keys := make([]plan.SortKey, nkeys)
		for i, c := range r.Perm(nkeys) {
			keys[i] = plan.SortKey{Col: c, Desc: r.Intn(2) == 0}
		}
		var parts []part
		var in []types.Row
		for bi, nb, id := 0, 1+r.Intn(5), 0; bi < nb; bi++ {
			p := part{rows: make([]types.Row, 1+r.Intn(200)), lit: r.Intn(3) == 0}
			for i := range p.rows {
				row := make(types.Row, nkeys+1)
				for c, cl := range classes {
					row[c] = sortKeyDatum(r, cl)
				}
				row[nkeys] = types.NewInt(int64(id))
				id++
				p.rows[i] = row
			}
			if !p.lit && r.Intn(2) == 0 {
				p.sel = []int32{}
				for i := range p.rows {
					if r.Intn(3) > 0 {
						p.sel = append(p.sel, int32(i))
					}
				}
			}
			parts = append(parts, p)
			if p.sel == nil {
				in = append(in, p.rows...)
			}
			for _, i := range p.sel {
				in = append(in, p.rows[i])
			}
		}
		want := slices.Clone(in)
		sort.SliceStable(want, func(i, j int) bool {
			for _, k := range keys {
				c := want[i][k.Col].Compare(want[j][k.Col])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for _, size := range []int{1, 3, 1024} {
			batches := make([]*batch.Batch, len(parts))
			for i, p := range parts {
				if p.lit {
					batches[i] = batch.Of(p.rows...)
					continue
				}
				cb := vec.Get(nkeys + 1)
				for _, row := range p.rows {
					cb.AppendRow(row)
				}
				cb.Seal(len(p.rows))
				batches[i] = batch.FromView(cb, p.sel)
			}
			e := &Engine{cfg: (&Config{BatchSize: size}).withDefaults()}
			w := &shapeWriter{}
			if err := e.opSort(ctx, plan.NewSort(nil, keys), &sliceReader{batches: batches}, w, newStage(plan.KindSort, false)); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("round %d, keys %v, BatchSize %d", round, keys, size)
			if len(w.rows) != len(want) {
				t.Fatalf("%s: %d rows out, want %d", what, len(w.rows), len(want))
			}
			for i := range want {
				if g, x := sig(w.rows[i]), sig(want[i]); g != x {
					t.Fatalf("%s: row %d = %s, want %s", what, i, g, x)
				}
			}
			w.checkBatching(t, what, len(want), size)
		}
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d after the battery, want %d", live, base)
	}
}

// TestAggregateEmitsReservedBatches: k groups come out as ⌈k/BatchSize⌉
// batches, each holding exactly the rows it carries — a one-group result is a
// one-row batch, not a BatchSize one.
func TestAggregateEmitsReservedBatches(t *testing.T) {
	ctx := context.Background()
	base := vec.LiveBatches()
	count := []plan.AggSpec{{Func: plan.AggCount, Name: "n"}}
	byG := []plan.GroupCol{{Name: "g", Kind: types.KindInt, Expr: expr.C(0, "g")}}
	for _, size := range []int{1, 3, 1024} {
		for _, k := range []int{0, 1, 2, 7, 1024, 1025, 2500} {
			cb := vec.Get(1)
			for i := 0; i < 2*k; i++ {
				cb.Col(0).AppendDatum(types.NewInt(int64(i % k)))
			}
			cb.Seal(2 * k)
			node, groups := plan.NewAggregate(nil, byG, count), k
			if k == 0 {
				node, groups = plan.NewAggregate(nil, nil, count), 1 // global: one row over no input
			}
			e := &Engine{cfg: (&Config{BatchSize: size}).withDefaults()}
			w := &shapeWriter{}
			if err := e.opAggregate(ctx, node, &sliceReader{batches: []*batch.Batch{batch.FromView(cb, nil)}}, w, newStage(plan.KindAggregate, false)); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%d groups at BatchSize %d", k, size)
			w.checkBatching(t, what, groups, size)
			for i, row := range w.rows {
				if n := row[len(row)-1].I; k > 0 && (n != 2 || row[0].I != int64(i)) {
					t.Fatalf("%s: group %d = %v, want key %d counted twice", what, i, row, i)
				}
			}
		}
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d after the battery, want %d", live, base)
	}
}

// TestPushCloneSharesNoArray: the push model's satellite copy is a column
// copy — no tag or payload array shared with the original the first consumer
// reads, or with another satellite's copy — counted once per satellite.
func TestPushCloneSharesNoArray(t *testing.T) {
	ctx := context.Background()
	base := vec.LiveBatches()
	var copies atomic.Int64
	m := newMultiFIFO(4, &copies)
	host, sats := m.addConsumer(), []*fifo{m.addConsumer(), m.addConsumer()}
	cb := vec.Get(3)
	for i := 0; i < 100; i++ {
		cb.AppendRow(types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) / 4), types.NewString(fmt.Sprint("s", i%7))})
	}
	cb.Seal(100)
	if err := m.Put(ctx, batch.FromView(cb, cb.AllSel()[10:90])); err != nil {
		t.Fatal(err)
	}
	orig, err := host.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ocb, _ := orig.Cols(); ocb != cb {
		t.Fatal("the first consumer must receive the original")
	}
	want := orig.RowsView()
	seen := []*vec.ColBatch{cb}
	for _, f := range sats {
		c, err := f.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ccb, _ := c.Cols()
		for _, o := range seen {
			if &ccb.Col(0).Kinds[0] == &o.Col(0).Kinds[0] || &ccb.Col(0).I[0] == &o.Col(0).I[0] ||
				&ccb.Col(1).F[0] == &o.Col(1).F[0] || &ccb.Col(2).S[0] == &o.Col(2).S[0] {
				t.Fatal("a satellite's copy shares an array with the original or another copy")
			}
		}
		seen = append(seen, ccb)
		got := c.RowsView()
		if len(got) != len(want) {
			t.Fatalf("copy has %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if sig(got[i]) != sig(want[i]) {
				t.Fatalf("copy row %d = %v, want %v", i, got[i], want[i])
			}
		}
		defer c.Done()
	}
	if n := copies.Load(); n != int64(len(sats)) {
		t.Errorf("copies = %d, want one per satellite (%d)", n, len(sats))
	}
	orig.Done()
	m.Close(nil)
	t.Cleanup(func() {
		if live := vec.LiveBatches(); live != base {
			t.Errorf("LiveBatches = %d, want %d", live, base)
		}
	})
}

// TestOneFormLeakOracle: every batch is pooled now, so LiveBatches sees what
// row batches used to hide. Each plan shape, under both SP models, run to
// completion (three identical queries, so satellites attach), cancelled
// mid-stream and closed early, returns every batch reference and leaves the
// shared identity selection and kind runs intact. Under push SP the root
// stage copies each batch it publishes once per satellite it serves.
func TestOneFormLeakOracle(t *testing.T) {
	cat := testDB(t, 3000)
	sales, dept := cat.MustTable("sales"), cat.MustTable("dept")
	scan := func() plan.Node { return plan.NewScan(sales) }
	shapes := []struct {
		name string
		plan func() plan.Node
	}{
		{"limit above sort", func() plan.Node {
			return plan.NewLimit(plan.NewSort(scan(), []plan.SortKey{{Col: 2, Desc: true}, {Col: 0}}), 100)
		}},
		{"global aggregate", func() plan.Node {
			return plan.NewAggregate(scan(), nil, []plan.AggSpec{
				{Func: plan.AggCount, Name: "n"}, {Func: plan.AggAvg, Arg: expr.C(2, "amount"), Name: "avg"}})
		}},
		{"grouped aggregate", func() plan.Node {
			return plan.NewAggregate(scan(), []plan.GroupCol{{Name: "amount", Kind: types.KindFloat, Expr: expr.C(2, "amount")}},
				[]plan.AggSpec{{Func: plan.AggCount, Name: "n"}})
		}},
		{"arithmetic project", func() plan.Node {
			return plan.NewProject(scan(), []plan.ProjCol{
				{Name: "id1", Kind: types.KindInt, Expr: expr.NewArith(expr.Add, expr.C(0, "id"), expr.Int(1))},
				{Name: "twice", Kind: types.KindFloat, Expr: expr.NewArith(expr.Mul, expr.C(2, "amount"), expr.Float(2))}})
		}},
		{"join on an aggregate", func() plan.Node {
			byDept := plan.NewAggregate(scan(), []plan.GroupCol{{Name: "dept", Kind: types.KindInt, Expr: expr.C(1, "dept")}},
				[]plan.AggSpec{{Func: plan.AggSum, Arg: expr.C(2, "amount"), Name: "total"}})
			return plan.NewHashJoin(scan(), byDept, 1, 0)
		}},
	}
	const size = 16
	evict := func() {
		cat.Pool().EvictFile(sales.File.ID())
		cat.Pool().EvictFile(dept.File.ID())
	}
	evict()
	base := vec.LiveBatches()
	settled := func(e *Engine, what string) {
		t.Helper()
		waitStagesIdle(t, e)
		evict()
		for deadline := time.Now().Add(5 * time.Second); vec.LiveBatches() != base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: LiveBatches = %d, want %d", what, vec.LiveBatches(), base)
			}
		}
		if err := vec.CheckIdentity(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := vec.CheckKindRuns(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	drainAll := func(ctx context.Context, rs ...Reader) (batches int) {
		for _, r := range rs {
			for {
				b, err := r.Next(ctx)
				if err != nil {
					break
				}
				batches++
				b.Done()
			}
			r.Close()
		}
		return batches
	}
	for _, sh := range shapes {
		// What the root publishes when it runs alone: the batches a push host
		// copies for each satellite.
		solo := New(cat, Config{BatchSize: size})
		r, err := solo.Stream(context.Background(), sh.plan())
		if err != nil {
			t.Fatal(err)
		}
		published := drainAll(context.Background(), r)
		settled(solo, sh.name+" solo")
		for _, model := range []SPModel{SPPull, SPPush} {
			what := fmt.Sprintf("%s, %v", sh.name, model)
			e := New(cat, Config{SP: true, Model: model, BatchSize: size})
			root := sh.plan()
			results, err := e.ExecuteBatch(context.Background(), []plan.Node{root, sh.plan(), sh.plan()})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for _, res := range results[1:] {
				mustEqualRows(t, res.Rows, results[0].Rows)
			}
			st := e.StageStatsFor(root.Kind())
			want := int64(0)
			if model == SPPush {
				want = st.SPAttached * int64(published)
			}
			if st.SPAttached != 2 || st.Copies != want {
				t.Errorf("%s: root stage attached %d satellites and made %d copies, want 2 and %d",
					what, st.SPAttached, st.Copies, want)
			}
			settled(e, what+", to completion")

			ctx, cancel := context.WithCancel(context.Background())
			r1, err1 := e.Stream(ctx, sh.plan())
			r2, err2 := e.Stream(ctx, sh.plan())
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: %v %v", what, err1, err2)
			}
			if b, err := r1.Next(ctx); err == nil {
				b.Done()
			}
			cancel()
			drainAll(ctx, r1, r2)
			settled(e, what+", cancelled mid-stream")

			r1, err1 = e.Stream(context.Background(), sh.plan())
			r2, err2 = e.Stream(context.Background(), sh.plan())
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: %v %v", what, err1, err2)
			}
			if b, err := r1.Next(context.Background()); err == nil {
				b.Done()
			}
			r1.Close()
			r2.Close()
			settled(e, what+", closed early")
		}
	}
}
