package engine

import (
	"context"
	"io"
	"time"

	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/types"
)

// opHashJoinRows is the row-materializing hash join the columnar operator
// replaced, kept here as the reference the columnar join is compared against
// (the equivalence tests and BenchmarkHashJoin's line=rows); no production
// code can select it. It honours the node's output lists the obvious way:
// concatenate the matching rows, then project.
func (e *Engine) opHashJoinRows(ctx context.Context, n *plan.HashJoin, left, right Reader, w Writer, st *Stage) error {
	// Build phase.
	ht := make(map[uint64][]types.Row)
	for {
		b, err := right.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, r := range b.RowsView() {
			k := r[n.RightCol]
			if k.IsNull() {
				continue
			}
			h := k.Hash(hashSeed)
			ht[h] = append(ht[h], r)
		}
		b.Done()
		st.addBusy(time.Since(t0))
	}
	// Probe phase.
	leftW := n.Left.Schema().Len()
	for {
		b, err := left.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		var joined []types.Row
		for _, l := range b.RowsView() {
			k := l[n.LeftCol]
			if k.IsNull() {
				continue
			}
			for _, r := range ht[k.Hash(hashSeed)] {
				if r[n.RightCol].Equal(k) {
					wide := l.Concat(r)
					out := make(types.Row, 0, len(n.LeftOut)+len(n.RightOut))
					for _, c := range n.LeftOut {
						out = append(out, wide[c])
					}
					for _, c := range n.RightOut {
						out = append(out, wide[leftW+c])
					}
					joined = append(joined, out)
				}
			}
		}
		b.Done()
		st.addBusy(time.Since(t0))
		if len(joined) == 0 {
			continue
		}
		if err := w.Put(ctx, batch.Of(joined...)); err != nil {
			return err
		}
	}
}
