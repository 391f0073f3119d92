package storage

import (
	"math/rand"
	"testing"

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
