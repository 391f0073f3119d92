package storage

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/types"
)

// randSchemaRows derives a random schema and rows under it. Values mostly
// match the declared column kind, with occasional NULLs and kind mismatches
// (the encoding is per-datum tagged, so heterogeneous columns are legal and
// the columnar decoder must preserve them).
func randSchemaRows(r *rand.Rand) (*types.Schema, []types.Row) {
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindBool}
	ncols := 1 + r.Intn(6)
	cols := make([]types.Column, ncols)
	for i := range cols {
		cols[i] = types.Column{Name: string(rune('a' + i)), Kind: kinds[r.Intn(len(kinds))]}
	}
	schema := types.NewSchema(cols...)
	nrows := r.Intn(400)
	rows := make([]types.Row, nrows)
	for i := range rows {
		row := make(types.Row, ncols)
		for c := range row {
			k := cols[c].Kind
			if r.Intn(20) == 0 {
				k = kinds[r.Intn(len(kinds))] // occasional mixed-kind value
			}
			switch {
			case r.Intn(15) == 0:
				row[c] = types.Null
			case k == types.KindInt:
				row[c] = types.NewInt(r.Int63n(1 << 40))
			case k == types.KindFloat:
				row[c] = types.NewFloat(r.NormFloat64() * 1e6)
			case k == types.KindString:
				b := make([]byte, r.Intn(24))
				for j := range b {
					b[j] = byte('a' + r.Intn(26))
				}
				row[c] = types.NewString(string(b))
			case k == types.KindDate:
				row[c] = types.NewDate(r.Int63n(30000))
			default:
				row[c] = types.NewBool(r.Intn(2) == 0)
			}
		}
		rows[i] = row
	}
	return schema, rows
}

// TestFrameSharesOneDecode checks the per-frame columnar cache: every reader
// of one residency gets the same batch from one decode, and the batch
// survives the reader's own reference being dropped (the frame holds one).
func TestFrameSharesOneDecode(t *testing.T) {
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 8, true)
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
	cb2, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	if cb2 != cb {
		t.Fatal("two PageCols calls returned different batches for one residency")
	}
	if d := cat.Pool().DecodeStats().Decoded; d != 1 {
		t.Fatalf("Decoded = %d, want 1 for one residency", d)
	}
	cb2.Release()
	cb.Release()
	// The frame still holds its own reference: a third reader sees the data.
	cb3, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cb3.Release()
	if cb3.Len() != 100 || cb3.Col(0).I[10] != 10 {
		t.Fatalf("cached batch corrupted after readers released: len=%d", cb3.Len())
	}
}

// TestLazyColumnsSurviveEviction: a batch retained past Unpin keeps decoding
// its untouched columns to the right bytes after its frame was evicted and
// refilled with another page, and after the pool and the disk were closed —
// the frame leaves the page buffer to a batch that readers still hold — while
// a batch nobody else holds gives the buffer back to the frame.
func TestLazyColumnsSurviveEviction(t *testing.T) {
	base := arenaBaseline()
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 1, true) // one frame: every other page evicts
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
	if st := arena.Snapshot(); st.PagesHeld-base.PagesHeld != 1 || st.PagesFrames-base.PagesFrames != 1 {
		t.Errorf("one held page buffer and one frame expected: %+v, baseline %+v", st, base)
	}
	b := held.Col(1)
	if err := cat.Pool().Close(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	f := held.Col(2) // decoded from the held buffer, after the pool is gone
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
