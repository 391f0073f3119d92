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
	gcb, gsel, ok := b.Cols()
	if !ok || gcb != cb || len(gsel) != 3 {
		t.Fatalf("Cols() = %v sel=%v ok=%v", gcb, gsel, ok)
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

// TestCloneOutlivesColumnsAndIsPrivate: a push-model clone is built from the
// columns, so it must survive the column batch being recycled, and two
// satellites' clones must share no row storage.
func TestCloneOutlivesColumnsAndIsPrivate(t *testing.T) {
	for _, sel := range [][]int32{nil, {1, 3}} {
		cb := viewFixture(t, 4)
		b := FromView(cb, sel)
		want := b.RowsView()
		c1, c2 := b.Clone(), b.Clone()
		if &c1.Rows[0][0] == &c2.Rows[0][0] || &c1.Rows[0][0] == &want[0][0] {
			t.Fatal("clones alias each other or the batch's own materialization")
		}
		b.Done() // last reference: cb goes back to the pool
		// Recycle the columns under the clones.
		reuse := vec.Get(2)
		for i := 0; i < 4; i++ {
			reuse.Col(0).AppendDatum(types.NewInt(-1))
			reuse.Col(1).AppendDatum(types.NewString("overwritten"))
		}
		reuse.Seal(4)
		c1.Rows[0][0] = types.NewInt(99) // a satellite scribbling on its copy
		for i := range want {
			if !c2.Rows[i].Equal(want[i]) {
				t.Fatalf("sel=%v: clone row %d = %v after recycle, want %v", sel, i, c2.Rows[i], want[i])
			}
		}
		reuse.Release()
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

func TestViewBatchCloneIsRowBatch(t *testing.T) {
	cb := viewFixture(t, 4)
	b := FromView(cb, []int32{0, 3})
	c := b.Clone()
	if len(c.Rows) != 2 || c.Rows[1][0].I != 3 {
		t.Fatalf("clone rows = %v", c.Rows)
	}
	if _, _, ok := c.Cols(); ok {
		t.Fatal("clone must be a plain row batch")
	}
	b.Done()
	c.Done() // no-op on row batches
	if c.Rows[1][0].I != 3 {
		t.Fatal("row batch mutated by Done")
	}
}

func TestRowBatchViewAccessors(t *testing.T) {
	b := Of(types.Row{types.NewInt(9)})
	if _, _, ok := b.Cols(); ok {
		t.Fatal("row batch reports a columnar view")
	}
	if got := b.RowsView(); len(got) != 1 || got[0][0].I != 9 {
		t.Fatalf("RowsView = %v", got)
	}
	b.Retain()
	b.Done()
	b.Done() // all no-ops
}
