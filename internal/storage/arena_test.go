package storage

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/types"
	"repro/internal/vec"
)

// arenaBaseline lets the finalizers of whatever earlier tests dropped run, and
// returns the arena's gauges to compare against.
func arenaBaseline() arena.Stats {
	arena.Settle()
	return arena.Snapshot()
}

// intTable loads a table of three fixed-width columns — a = i, b = 3i,
// f = i/2 — over several pages.
func intTable(t *testing.T, cat *Catalog, rows int) *Table {
	t.Helper()
	tbl, err := cat.CreateTable("t", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(3 * i)), types.NewFloat(float64(i) / 2)}
		if err := tbl.File.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestBorrowedColumnsLiveInTheArena: the fixed-width columns of an opened page
// take nothing from the batch recycler — payloads are ranges of arena pages
// the batch's source owns, the tags of a single-kind column are the shared
// run — and the last Release gives every page back.
func TestBorrowedColumnsLiveInTheArena(t *testing.T) {
	pb := newPageBuilder()
	nrows := 0
	for ; nrows < 1290; nrows++ { // an SSB fact page's row count
		if !pb.tryAppend(types.Row{types.NewInt(int64(nrows)), types.NewDate(int64(nrows % 7)), types.NewFloat(0.5)}) {
			t.Fatal("page full")
		}
	}
	page := pb.finish()
	a0, p0 := arena.Snapshot(), vec.PoolStats()
	cb, err := DecodePageCols(page, 3)
	if err != nil {
		t.Fatal(err)
	}
	a1, p1 := arena.Snapshot(), vec.PoolStats()
	if got := a1.PagesDecoded - a0.PagesDecoded; got != 1 {
		t.Errorf("three %d-row columns took %d arena pages, want 1", nrows, got)
	}
	if p1.BytesOut != p0.BytesOut {
		t.Errorf("decoding fixed-width columns took %d bytes from the recycler", p1.BytesOut-p0.BytesOut)
	}
	if got, want := cb.Bytes(), int64(3*8*nrows); got != want {
		t.Errorf("Bytes() = %d, want the borrowed payloads' %d", got, want)
	}
	k0, k1 := cb.Col(0).Kinds, cb.Col(1).Kinds
	if len(k0) != nrows || cap(k0) != nrows || k0[0] != types.KindInt || k1[nrows-1] != types.KindDate {
		t.Fatalf("tags: len %d cap %d", len(k0), cap(k0))
	}
	other, err := DecodePageCols(page, 3)
	if err != nil {
		t.Fatal(err)
	}
	if &other.Col(0).Kinds[0] != &k0[0] {
		t.Error("two single-kind int columns do not share one kind run")
	}
	if &other.Col(0).I[0] == &cb.Col(0).I[0] {
		t.Error("two batches share one payload")
	}
	other.Release()
	cb.Release()
	if a2, p2 := arena.Snapshot(), vec.PoolStats(); a2.PagesDecoded != a0.PagesDecoded || p2.BytesOut != p0.BytesOut {
		t.Errorf("after the last Release: %d decoded pages and %d recycler bytes still out", a2.PagesDecoded-a0.PagesDecoded, p2.BytesOut-p0.BytesOut)
	}
}

// TestBorrowedColumnsWithNullsAndLongPages: a column with NULLs borrows its
// tags as well; a page of more rows than an arena page holds int64s for falls
// back to the recycler, column by column, and decodes to the same values.
func TestBorrowedColumnsWithNullsAndLongPages(t *testing.T) {
	nullAt := func(i int) bool { return i%97 == 0 && i < 1000 }
	for _, nrows := range []int{700, PageSize/8 + 1, 25000} {
		pb := newPageBuilder()
		for i := 0; i < nrows; i++ {
			row := types.Row{types.NewInt(int64(i % 200)), types.NewInt(7)}
			if nullAt(i) {
				row[1] = types.Null
			}
			if !pb.tryAppend(row) {
				t.Fatalf("%d rows do not fit a page", nrows)
			}
		}
		a0, p0 := arena.Snapshot(), vec.PoolStats()
		cb, err := DecodePageCols(pb.finish(), 2)
		if err != nil {
			t.Fatal(err)
		}
		borrowed := 8*nrows <= PageSize
		if got := arena.Snapshot().PagesDecoded - a0.PagesDecoded; (got > 0) != borrowed {
			t.Errorf("%d rows: %d arena pages taken, borrowed should be %v", nrows, got, borrowed)
		}
		if got := vec.PoolStats().BytesOut - p0.BytesOut; (got == 0) != borrowed {
			t.Errorf("%d rows: %d recycler bytes taken, borrowed should be %v", nrows, got, borrowed)
		}
		a, b := cb.Col(0), cb.Col(1)
		if !a.AllInt() || b.AllInt() {
			t.Fatalf("%d rows: uniformity flags wrong", nrows)
		}
		for i := 0; i < nrows; i++ {
			if a.I[i] != int64(i%200) || nullAt(i) != (b.Kinds[i] == types.KindNull) || (!nullAt(i) && b.I[i] != 7) {
				t.Fatalf("%d rows: row %d decoded wrong", nrows, i)
			}
		}
		cb.Release()
		if a2, p2 := arena.Snapshot(), vec.PoolStats(); a2.PagesDecoded != a0.PagesDecoded || p2.BytesOut != p0.BytesOut {
			t.Errorf("%d rows: leaked after Release: arena %+v recycler %+v", nrows, a2, p2)
		}
	}
}

// TestBorrowedColumnsNeverAliasedByCopies: rows materialised from a page
// batch, columns gathered or appended out of it, and a ProjectCols batch
// derived from it stay right after every other reference is gone — the pool
// closed, the source's pages freed and, in tests, poisoned.
func TestBorrowedColumnsNeverAliasedByCopies(t *testing.T) {
	base := arenaBaseline()
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 4, true)
	tbl := intTable(t, cat, 3000)
	cb, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	n := cb.Len()
	rows := cb.Rows()
	out := vec.Get(2)
	idxs := []int32{0, 5, int32(n - 1)}
	out.Col(0).AppendGather(cb.Col(1), idxs)
	for _, r := range idxs {
		out.Col(1).AppendFrom(cb.Col(2), int(r))
	}
	out.Seal(len(idxs))
	proj := vec.ProjectCols(cb, []int{2, 0})
	cb.Release()
	if err := cat.Pool().Close(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	// Only proj keeps the page's batch alive now.
	if got := arena.Snapshot().PagesDecoded - base.PagesDecoded; got < 1 {
		t.Fatalf("derived batch holds %d decoded pages", got)
	}
	for i := 0; i < n; i++ {
		if proj.Col(0).F[i] != float64(i)/2 || proj.Col(1).I[i] != int64(i) {
			t.Fatalf("projected row %d wrong after the pool closed", i)
		}
	}
	proj.Release()
	if got := arena.Snapshot(); got.PagesInUse != base.PagesInUse || got.Reclaimed != base.Reclaimed {
		t.Fatalf("arena after everything was released: %+v, baseline %+v", got, base)
	}
	for i, r := range rows {
		if r[0].I != int64(i) || r[1].I != int64(3*i) || r[2].F != float64(i)/2 {
			t.Fatalf("materialised row %d changed after its batch was freed: %v", i, r)
		}
	}
	for j, r := range idxs {
		if out.Col(0).I[j] != int64(3*r) || out.Col(1).F[j] != float64(r)/2 {
			t.Fatalf("gathered row %d changed after its source batch was freed", j)
		}
	}
	out.Release()
}

// TestBorrowedColumnCopiesBeforeWrite: appending to a page column, or setting
// one of its rows NULL, copies the tags and the payload out of the shared run
// and the source's page first.
func TestBorrowedColumnCopiesBeforeWrite(t *testing.T) {
	pb := newPageBuilder()
	for i := 0; i < 100; i++ {
		pb.tryAppend(types.Row{types.NewInt(int64(i))})
	}
	cb, err := DecodePageCols(pb.finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	v := cb.Col(0)
	shared, payload := &v.Kinds[0], &v.I[0]
	v.SetNull(3)
	if &v.Kinds[0] == shared {
		t.Fatal("SetNull wrote through the shared kind run")
	}
	if err := vec.CheckKindRuns(); err != nil {
		t.Fatal(err)
	}
	v.AppendDatum(types.NewInt(100))
	if &v.I[0] == payload || v.Len() != 101 || v.I[100] != 100 || v.I[42] != 42 || v.Kinds[3] != types.KindNull {
		t.Fatalf("append to a borrowed column: len %d", v.Len())
	}
}

// TestPoolCloseReleasesFramesAndKeepsHeldBatches: Close frees every frame's
// buffer and batch reference; a batch a reader still holds keeps decoding its
// untouched columns from the page buffer it inherited, and frees that at its
// last Release. Closing twice is harmless and fetches fail afterwards.
func TestPoolCloseReleasesFramesAndKeepsHeldBatches(t *testing.T) {
	base := arenaBaseline()
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 8, true)
	tbl := intTable(t, cat, 20000)
	np := tbl.File.NumPages()
	for p := 0; p < np; p++ { // fill the pool, decode one column of each page
		cb, err := tbl.File.PageCols(p)
		if err != nil {
			t.Fatal(err)
		}
		cb.Col(0)
		cb.Release()
	}
	held, err := tbl.File.PageCols(np - 1) // resident: columns b and f undecoded
	if err != nil {
		t.Fatal(err)
	}
	first := held.Col(0).I[0]
	st := arena.Snapshot()
	if got := st.PagesFrames - base.PagesFrames; got != 8 {
		t.Fatalf("%d frame buffers for a pool of 8", got)
	}
	if got := st.PagesDevice - base.PagesDevice; got != int64(np) {
		t.Fatalf("%d device pages for %d written", got, np)
	}
	if err := cat.Pool().Close(); err != nil {
		t.Fatalf("Close with nothing pinned: %v", err)
	}
	if err := cat.Pool().Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	st = arena.Snapshot()
	if st.PagesFrames != base.PagesFrames || st.PagesHeld-base.PagesHeld != 1 || st.PagesDecoded-base.PagesDecoded != 1 {
		t.Fatalf("after Close with one batch held: %+v, baseline %+v", st, base)
	}
	if _, err := cat.Pool().Fetch(tbl.File.ID(), 0); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Fetch after Close: %v", err)
	}
	if err := disk.Close(); err != nil { // the device's pages go; the held batch reads its own
		t.Fatal(err)
	}
	b, f := held.Col(1), held.Col(2)
	for i := 0; i < held.Len(); i++ {
		if want := first + int64(i); b.I[i] != 3*want || f.F[i] != float64(want)/2 {
			t.Fatalf("row %d decoded after Close: b=%d f=%v", i, b.I[i], f.F[i])
		}
	}
	held.Release()
	if got := arena.Snapshot(); got.PagesInUse != base.PagesInUse || got.Reclaimed != base.Reclaimed {
		t.Fatalf("arena after Close and Release: %+v, baseline %+v", got, base)
	}
}

// TestPoolCloseReportsPinnedFrames: a frame pinned across Close is an error —
// the pool's users should have stopped — and gives its buffer back when its
// holder unpins it.
func TestPoolCloseReportsPinnedFrames(t *testing.T) {
	base := arenaBaseline()
	d := NewMemDisk(DiskProfile{})
	f := makeDiskWithPages(t, d, 4)
	p := NewBufferPool(d, 4)
	fetchAll(t, p, f, 0, 4)
	fr, err := p.Fetch(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close with a pinned frame reported nothing")
	}
	if got := arena.Snapshot().PagesFrames - base.PagesFrames; got != 1 {
		t.Fatalf("%d frame buffers left after Close, want the pinned one", got)
	}
	if fr.Data()[0] != 2 {
		t.Fatal("pinned frame's bytes changed under its holder")
	}
	p.Unpin(fr)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := arena.Snapshot(); got.PagesInUse != base.PagesInUse {
		t.Fatalf("arena after the last Unpin: %+v, baseline %+v", got, base)
	}
}

// TestPoolCloseRacesReaders: readers that open, decode and release pages while
// the pool is closed under them either get their batch or ErrPoolClosed, and
// everything is back in the arena once they are done. Run under -race.
func TestPoolCloseRacesReaders(t *testing.T) {
	base := arenaBaseline()
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 6, true)
	tbl := intTable(t, cat, 20000)
	np := tbl.File.NumPages()
	var wg sync.WaitGroup
	started := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 8 && g == 0 {
					close(started)
				}
				cb, err := tbl.File.PageCols((g + i) % np)
				if err != nil {
					if !errors.Is(err, ErrPoolClosed) {
						t.Errorf("reader %d: %v", g, err)
					}
					return
				}
				a, b := cb.Col(0), cb.Col(1+i%2)
				if b.Len() != a.Len() || (i%2 == 0 && b.I[1] != 3*a.I[1]) {
					t.Errorf("reader %d: page %d decoded wrong", g, (g+i)%np)
				}
				cb.Release()
			}
		}(g)
	}
	<-started
	_ = cat.Pool().Close() // a reader may hold a pin this instant; its Unpin frees the frame
	wg.Wait()
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if got := arena.Snapshot(); got.PagesInUse != base.PagesInUse || got.Reclaimed != base.Reclaimed {
		t.Fatalf("arena after the race: %+v, baseline %+v", got, base)
	}
}

// TestArenaReclaimsWhatNobodyReleased: a disk, a pool and a held batch that
// are dropped without Close or Release give their pages back from finalizers,
// and are counted as reclaimed.
func TestArenaReclaimsWhatNobodyReleased(t *testing.T) {
	base := arenaBaseline()
	live := vec.LiveBatches()
	var np int
	func() {
		cat := NewCatalog(NewMemDisk(DiskProfile{}), 2, true)
		tbl := intTable(t, cat, 20000)
		np = tbl.File.NumPages()
		held, err := tbl.File.PageCols(0)
		if err != nil {
			t.Fatal(err)
		}
		held.Col(0)
		for p := 1; p < 4; p++ { // evict page 0: its buffer goes to the held batch
			cb, err := tbl.File.PageCols(p)
			if err != nil {
				t.Fatal(err)
			}
			cb.Col(1)
			cb.Release()
		}
		if st := arena.Snapshot(); st.PagesHeld-base.PagesHeld != 1 || st.PagesFrames-base.PagesFrames != 2 {
			t.Fatalf("before the leak: %+v, baseline %+v", st, base)
		}
	}()
	arena.Settle()
	st := arena.Snapshot()
	if st.PagesInUse != base.PagesInUse {
		t.Errorf("pages in use after the collector ran: %+v, baseline %+v", st, base)
	}
	// The device's pages, two frames, the held buffer, and the decoded pages
	// of the held batch and of the two batches the frames held.
	if got, want := st.Reclaimed-base.Reclaimed, int64(np+2+1+3); got != want {
		t.Errorf("Reclaimed rose by %d, want %d", got, want)
	}
	if got := vec.LiveBatches() - live; got != 3 {
		t.Errorf("LiveBatches rose by %d, want the three leaked batches", got)
	}
}

// TestSealReleasesBuilder: a sealed file keeps no page builder, and an Append
// after Seal fails as it always did.
func TestSealReleasesBuilder(t *testing.T) {
	c := newTestCatalog(t, 4)
	tbl, err := c.CreateTable("t", kvSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Append(types.Row{types.NewInt(1), types.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if tbl.File.builder == nil {
		t.Fatal("an open file has no builder")
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if tbl.File.builder != nil {
		t.Error("Seal kept the page builder")
	}
	err = tbl.File.Append(types.Row{types.NewInt(2), types.NewString("b")})
	if err == nil || err.Error() != "storage: append to sealed heap file" {
		t.Errorf("Append after Seal: %v", err)
	}
	if err := tbl.File.Seal(); err != nil {
		t.Errorf("second Seal: %v", err)
	}
}
