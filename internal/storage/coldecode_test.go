package storage

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/types"
)

// storedKinds are the kinds a schema may declare: every kind but NULL.
var storedKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindBool}

// randDatum draws a value of kind k.
func randDatum(r *rand.Rand, k types.Kind) types.Datum {
	switch k {
	case types.KindInt:
		return types.NewInt(r.Int63n(1 << 40))
	case types.KindFloat:
		return types.NewFloat(r.NormFloat64() * 1e6)
	case types.KindString:
		b := make([]byte, r.Intn(24))
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		return types.NewString(string(b))
	case types.KindDate:
		return types.NewDate(r.Int63n(30000))
	}
	return types.NewBool(r.Intn(2) == 0)
}

// randSchemaRows derives a random schema and rows under it: every value is
// of its column's declared kind, with occasional NULLs.
func randSchemaRows(r *rand.Rand) (*types.Schema, []types.Row) {
	ncols := 1 + r.Intn(6)
	cols := make([]types.Column, ncols)
	for i := range cols {
		cols[i] = types.Column{Name: string(rune('a' + i)), Kind: storedKinds[r.Intn(len(storedKinds))]}
	}
	schema := types.NewSchema(cols...)
	nrows := r.Intn(400)
	rows := make([]types.Row, nrows)
	for i := range rows {
		row := make(types.Row, ncols)
		for c := range row {
			if r.Intn(15) == 0 {
				row[c] = types.Null
			} else {
				row[c] = randDatum(r, cols[c].Kind)
			}
		}
		rows[i] = row
	}
	return schema, rows
}

// schemaKinds is the column kinds of a schema, as a heap file hands them to
// its page builder.
func schemaKinds(s *types.Schema) []types.Kind {
	kinds := make([]types.Kind, s.Len())
	for i, c := range s.Cols {
		kinds[i] = c.Kind
	}
	return kinds
}

// TestFrameHoldsNoDecode: a frame caches its page, not the page's decode.
// Two readers of one residency open two batches with equal rows (Decoded
// counts both), and once both are released no decoded page is left in the
// arena, while the frame stays resident and the page is not read again.
func TestFrameHoldsNoDecode(t *testing.T) {
	base := arenaBaseline()
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 8)
	tbl, err := cat.CreateTable("t", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}

	cb, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	reads := disk.Stats().PageReads
	cb2, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	if cb2 == cb {
		t.Fatal("two PageCols calls returned one batch: the frame shares a decode")
	}
	if !reflect.DeepEqual(cb.Rows(), cb2.Rows()) {
		t.Fatal("two readers of one page see different rows")
	}
	if d := cat.Pool().DecodeStats().Decoded; d != 2 {
		t.Fatalf("Decoded = %d, want 2: one open per reader", d)
	}
	if got := arena.Snapshot().PagesDecoded - base.PagesDecoded; got != 2 {
		t.Errorf("two readers' int columns hold %d decoded pages, want 2", got)
	}
	cb2.Release()
	cb.Release()
	if got := arena.Snapshot().PagesDecoded - base.PagesDecoded; got != 0 {
		t.Errorf("%d decoded pages left after both readers released", got)
	}
	if !cat.Pool().Contains(tbl.File.ID(), 0) {
		t.Fatal("the frame left the pool with its readers")
	}
	cb3, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cb3.Release()
	if cb3.Len() != 100 || cb3.Col(0).I[10] != 10 {
		t.Fatalf("third reader: len=%d", cb3.Len())
	}
	if got := disk.Stats().PageReads; got != reads {
		t.Errorf("page read %d more times while resident", got-reads)
	}
}

// TestLazyColumnsSurviveEviction: a batch retained past Unpin keeps decoding
// its untouched columns to the right bytes after its frame was evicted and
// refilled with another page, and after the pool and the disk were closed —
// the batch holds a lease of its own on the page — while the lease under a
// batch nobody else holds goes back to the disk.
func TestLazyColumnsSurviveEviction(t *testing.T) {
	base := arenaBaseline()
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 1) // one frame: every other page evicts
	tbl, err := cat.CreateTable("t", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(3 * i)), types.NewFloat(float64(i) / 2)}
		if err := tbl.File.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	np := tbl.File.NumPages()
	if np < 3 {
		t.Fatalf("want at least 3 pages, have %d", np)
	}
	before := cat.Pool().DecodeStats()
	held, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	first := held.Col(0).I[0] // touch one column; b and f stay in the source
	rows := held.Len()
	for p := 1; p < np; p++ { // evict and refill the only frame, repeatedly
		cb, err := tbl.File.PageCols(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := cb.Col(1).I[0]; got != 3*cb.Col(0).I[0] {
			t.Fatalf("page %d: b[0] = %d, a[0] = %d", p, got, cb.Col(0).I[0])
		}
		cb.Release()
	}
	if cat.Pool().Contains(tbl.File.ID(), 0) {
		t.Fatal("page 0 still resident; the test did not evict it")
	}
	if first != 0 {
		t.Fatalf("page 0 a[0] = %d", first)
	}
	if st := arena.Snapshot(); disk.leases() != 2 || st.PagesDevice-base.PagesDevice != int64(np) {
		t.Errorf("two leases (the held batch's, the frame's) on %d device pages expected: %d leases, %+v, baseline %+v", np, disk.leases(), st, base)
	}
	b := held.Col(1)
	if err := cat.Pool().Close(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	f := held.Col(2) // decoded through the lease the batch inherited, after the pool and the disk are gone
	for i := 0; i < rows; i++ {
		if b.I[i] != int64(3*i) || f.F[i] != float64(i)/2 {
			t.Fatalf("row %d decoded after eviction: b=%d f=%v", i, b.I[i], f.F[i])
		}
	}
	held.Release()
	if st := arena.Snapshot(); st.PagesInUse != base.PagesInUse || st.Reclaimed != base.Reclaimed {
		t.Errorf("arena after the last Release: %+v, baseline %+v", st, base)
	}
	after := cat.Pool().DecodeStats()
	if d := after.Decoded - before.Decoded; d != int64(np) {
		t.Errorf("pages opened = %d, want %d", d, np)
	}
	// Page 0: three columns; every other page: the two its reader touched.
	if d := after.ColsDecoded - before.ColsDecoded; d != int64(3+2*(np-1)) {
		t.Errorf("columns decoded = %d, want %d", d, 3+2*(np-1))
	}
	if fr := cat.Pool().Stats().Frames; fr != 1 {
		t.Errorf("pool materialised %d frames, want 1", fr)
	}
}
