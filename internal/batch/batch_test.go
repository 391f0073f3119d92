package batch

import (
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// TestCloneIsDeep: a clone's columns are its own, so writing them leaves the
// original alone.
func TestCloneIsDeep(t *testing.T) {
	b := Of(types.Row{types.NewInt(1), types.NewString("x")})
	c := b.Clone()
	cb, _ := c.Cols()
	cb.Col(0).I[0] = 42
	cb.Col(1).S[0] = "y"
	if got := b.RowsView()[0]; got[0].I != 1 || got[1].S != "x" {
		t.Errorf("original = %v after writing the clone's columns", got)
	}
	if c.Len() != 1 || b.Len() != 1 {
		t.Errorf("Len: clone %d, original %d", c.Len(), b.Len())
	}
	c.Done()
}

// TestLiteralIsOutsideThePool: a literal is not counted by LiveBatches, and
// any number of Retain/Done calls leave it readable — the SPL benchmark
// publishes one literal thousands of times to readers that all call Done.
func TestLiteralIsOutsideThePool(t *testing.T) {
	live := vec.LiveBatches()
	b := Of(types.Row{types.NewInt(7), types.Null}, types.Row{types.NewInt(8), types.NewFloat(1.5)})
	if vec.LiveBatches() != live {
		t.Fatalf("LiveBatches %d → %d: a literal was counted", live, vec.LiveBatches())
	}
	for i := 0; i < 100; i++ {
		b.Retain()
		b.Done()
		b.Done()
	}
	rows := b.RowsView()
	if len(rows) != 2 || rows[0][0].I != 7 || !rows[0][1].IsNull() || rows[1][1].F != 1.5 {
		t.Fatalf("rows = %v", rows)
	}
	if empty := Of(); empty.Len() != 0 || len(empty.RowsView()) != 0 {
		t.Fatalf("empty literal: Len %d", empty.Len())
	}
}
