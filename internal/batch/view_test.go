package batch

import (
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

func viewFixture(t *testing.T, nrows int) *vec.ColBatch {
	t.Helper()
	cb := vec.Get(2)
	for i := 0; i < nrows; i++ {
		cb.Col(0).AppendDatum(types.NewInt(int64(i)))
		cb.Col(1).AppendDatum(types.NewString("s"))
	}
	cb.Seal(nrows)
	return cb
}

func TestViewBatchColsAndLen(t *testing.T) {
	cb := viewFixture(t, 8)
	sel := []int32{1, 3, 5}
	b := FromView(cb, sel)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	gcb, gsel := b.Cols()
	if gcb != cb || len(gsel) != 3 {
		t.Fatalf("Cols() = %v sel=%v", gcb, gsel)
	}
	rows := b.RowsView()
	if len(rows) != 3 || rows[1][0].I != 3 {
		t.Fatalf("RowsView = %v", rows)
	}
	// Identity selection covers every row.
	cb2 := viewFixture(t, 4)
	b2 := FromView(cb2, nil)
	if b2.Len() != 4 || len(b2.RowsView()) != 4 {
		t.Fatalf("identity view: len=%d rows=%d", b2.Len(), len(b2.RowsView()))
	}
	b.Done()
	b2.Done()
}

// TestRowsViewOnNarrowedView: a view narrowed by a selection materializes
// exactly the selected rows of its own columns, once.
func TestRowsViewOnNarrowedView(t *testing.T) {
	cb := viewFixture(t, 8)
	sel := []int32{0, 2, 7}
	b := FromView(cb, sel)
	r1 := b.RowsView()
	if len(r1) != len(sel) {
		t.Fatalf("RowsView has %d rows, want %d", len(r1), len(sel))
	}
	for i, r := range sel {
		if !r1[i].Equal(cb.Row(int(r))) {
			t.Fatalf("row %d = %v, want cb.Row(%d) = %v", i, r1[i], r, cb.Row(int(r)))
		}
	}
	if r2 := b.RowsView(); &r1[0][0] != &r2[0][0] {
		t.Fatal("RowsView must return the same materialization")
	}
	b.Done()
}

// TestCloneOutlivesColumnsAndIsPrivate: a push-model clone is a column copy,
// so it must survive the column batch being recycled, and two satellites'
// clones must share no payload array with each other or with the batch.
func TestCloneOutlivesColumnsAndIsPrivate(t *testing.T) {
	for _, sel := range [][]int32{nil, {1, 3}} {
		cb := viewFixture(t, 4)
		b := FromView(cb, sel)
		want := b.RowsView()
		c1, c2 := b.Clone(), b.Clone()
		cb1, _ := c1.Cols()
		cb2, _ := c2.Cols()
		if &cb1.Col(0).I[0] == &cb2.Col(0).I[0] || &cb1.Col(0).I[0] == &cb.Col(0).I[0] ||
			&cb1.Col(1).S[0] == &cb2.Col(1).S[0] || &cb1.Col(1).S[0] == &cb.Col(1).S[0] {
			t.Fatal("clones alias each other's or the batch's payload")
		}
		b.Done() // last reference: cb goes back to the pool
		// Recycle the columns under the clones.
		reuse := vec.Get(2)
		for i := 0; i < 4; i++ {
			reuse.Col(0).AppendDatum(types.NewInt(-1))
			reuse.Col(1).AppendDatum(types.NewString("overwritten"))
		}
		reuse.Seal(4)
		cb1.Col(0).I[0] = 99 // a satellite scribbling on its copy
		got := c2.RowsView()
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("sel=%v: clone row %d = %v after recycle, want %v", sel, i, got[i], want[i])
			}
		}
		reuse.Release()
		c1.Done()
		c2.Done()
	}
}

func TestViewBatchRefcount(t *testing.T) {
	cb := viewFixture(t, 2)
	b := FromView(cb, nil)
	b.Retain()
	b.Retain()
	b.Done()
	b.Done()
	rows := b.RowsView() // still one reference outstanding
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	b.Done() // last reference: cb returns to the pool
	defer func() {
		if recover() == nil {
			t.Fatal("Done past zero must panic")
		}
	}()
	b.Done()
}

func TestViewBatchConcurrentRowsView(t *testing.T) {
	cb := viewFixture(t, 64)
	b := FromView(cb, nil)
	var wg sync.WaitGroup
	rows := make([][]types.Row, 8)
	for i := range rows {
		wg.Add(1)
		b.Retain()
		go func(i int) {
			defer wg.Done()
			rows[i] = b.RowsView()
			b.Done()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(rows); i++ {
		if &rows[i][0][0] != &rows[0][0][0] {
			t.Fatal("concurrent consumers must share one materialization")
		}
	}
	b.Done()
}

// TestViewBatchCloneIsColumnCopy: a clone holds exactly the selected rows in
// a pooled batch of its own, released by its last Done.
func TestViewBatchCloneIsColumnCopy(t *testing.T) {
	live := vec.LiveBatches()
	cb := viewFixture(t, 4)
	b := FromView(cb, []int32{0, 3})
	c := b.Clone()
	ccb, csel := c.Cols()
	if ccb == cb || ccb.Len() != 2 || len(csel) != 2 {
		t.Fatalf("clone: %d rows over %d selected, same batch %v", ccb.Len(), len(csel), ccb == cb)
	}
	if rows := c.RowsView(); rows[1][0].I != 3 {
		t.Fatalf("clone rows = %v", rows)
	}
	if vec.LiveBatches() != live+2 {
		t.Fatalf("LiveBatches = %d, want %d: the clone is pooled", vec.LiveBatches(), live+2)
	}
	b.Done()
	c.Done()
	if vec.LiveBatches() != live {
		t.Fatalf("LiveBatches = %d after both Dones, want %d", vec.LiveBatches(), live)
	}
}

// TestRowBatchViewAccessors: a batch built from rows (a literal) is a view
// like any other, and its Retain/Done are no-ops.
func TestRowBatchViewAccessors(t *testing.T) {
	b := Of(types.Row{types.NewInt(9)})
	if cb, sel := b.Cols(); cb.Len() != 1 || len(sel) != 1 || cb.Col(0).I[0] != 9 {
		t.Fatal("literal's columns do not hold its row")
	}
	if got := b.RowsView(); len(got) != 1 || got[0][0].I != 9 {
		t.Fatalf("RowsView = %v", got)
	}
	b.Retain()
	b.Done()
	b.Done() // all no-ops
	if got := b.RowsView(); got[0][0].I != 9 {
		t.Fatal("literal changed by Done")
	}
}

// TestOfRefusesASecondKind: a literal batch follows the columns' rule, NULL
// or one kind per column, and panics on a row of another kind.
func TestOfRefusesASecondKind(t *testing.T) {
	b := Of(types.Row{types.NewInt(1), types.Null}, types.Row{types.Null, types.NewString("x")})
	if cb, _ := b.Cols(); cb.Col(0).Kind != types.KindInt || cb.Col(1).Kind != types.KindString {
		t.Fatalf("column kinds %v, %v", cb.Col(0).Kind, cb.Col(1).Kind)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a float row in an int column did not panic")
		}
	}()
	Of(types.Row{types.NewInt(1)}, types.Row{types.NewFloat(2)})
}
