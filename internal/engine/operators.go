package engine

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/dimtab"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// hashSeed seeds the group tables' key hashes (FNV-1a offset basis).
const hashSeed uint64 = 14695981039346656037

// runOperator executes the packet's operator to completion, reading inputs
// and writing w. A nil return is a normal end of stream.
func (e *Engine) runOperator(ctx context.Context, p *Packet, inputs []Reader, w Writer) error {
	switch n := p.node.(type) {
	case *plan.Scan:
		return e.opScan(ctx, n, w, p.stage)
	case *plan.Filter:
		return e.opFilter(ctx, n, inputs[0], w, p.stage)
	case *plan.Project:
		return e.opProject(ctx, n, inputs[0], w, p.stage)
	case *plan.HashJoin:
		return e.opHashJoin(ctx, n, inputs[0], inputs[1], w, p.stage)
	case *plan.Aggregate:
		return e.opAggregate(ctx, n, inputs[0], w, p.stage)
	case *plan.Sort:
		return e.opSort(ctx, n, inputs[0], w, p.stage)
	case *plan.Limit:
		return e.opLimit(ctx, n, inputs[0], w, p.stage)
	case *plan.CJoin:
		return e.opCJoin(ctx, n, w, p.stage)
	default:
		return fmt.Errorf("engine: no operator for %T", p.node)
	}
}

// opScan delivers every row of the table via a circular shared scan, one
// batch per storage page, applying any pushed-down predicate inside the
// stage (as QPipe's tscan does). Predicates are evaluated vectorized over
// the page's columnar cache into a selection vector, and the page is
// published as (column batch, surviving selection) with no row
// materialization.
func (e *Engine) opScan(ctx context.Context, n *plan.Scan, w Writer, st *Stage) error {
	cur := n.Table.Attach()
	defer cur.Close()
	var vpred expr.VecPred
	var prune expr.PruneCheck
	var scr vec.Scratch
	if n.Pred != nil {
		vpred = expr.CompileVec(n.Pred)
		if !e.cfg.NoPrune {
			prune = expr.CompilePrune(n.Pred)
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		cb, _, ok, err := cur.NextColsPruned(prune)
		if err != nil {
			st.addBusy(time.Since(t0))
			return err
		}
		if !ok {
			st.addBusy(time.Since(t0))
			return nil
		}
		var sel []int32
		if vpred != nil {
			// The selection is handed downstream on the batch, so it is
			// allocated per page rather than reused (a reused scratch would
			// alias live batches).
			sel = vpred(cb, cb.AllSel(), make([]int32, cb.Len()), &scr)
			if len(sel) == 0 {
				st.addBusy(time.Since(t0))
				cb.Release()
				continue
			}
		} else if cb.Len() == 0 {
			st.addBusy(time.Since(t0))
			cb.Release()
			continue
		}
		st.addBusy(time.Since(t0))
		if err := w.Put(ctx, batch.FromView(cb, sel)); err != nil {
			return err
		}
	}
}

// opLimit forwards the first N rows, then detaches from its input, which
// cancels the upstream sub-plan (unless other queries share it). A batch
// crossing the cap is forwarded as a truncated view of the same columns.
func (e *Engine) opLimit(ctx context.Context, n *plan.Limit, in Reader, w Writer, st *Stage) error {
	remaining := n.N
	for remaining > 0 {
		b, err := in.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		if b.Len() > remaining {
			cb, sel := b.Cols()
			cb.Retain()
			nb := batch.FromView(cb, sel[:remaining])
			b.Done()
			b = nb
		}
		remaining -= b.Len()
		st.addBusy(time.Since(t0))
		if err := w.Put(ctx, b); err != nil {
			return err
		}
	}
	return nil
}

// emit publishes n rows of ncols columns in pooled batches of at most size
// rows, each reserved for exactly the rows it carries: fill appends rows
// [lo, hi) to cb's columns. A one-row result is a one-row batch.
func emit(ctx context.Context, w Writer, ncols, n, size int, fill func(cb *vec.ColBatch, lo, hi int)) error {
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		cb := vec.Get(ncols)
		cb.Reserve(hi - lo)
		fill(cb, lo, hi)
		cb.Seal(hi - lo)
		if err := w.Put(ctx, batch.FromView(cb, nil)); err != nil {
			return err
		}
	}
	return nil
}

// opFilter keeps rows satisfying the predicate, compiled once per packet
// into a vectorized kernel: it narrows the batch's selection and the same
// column batch is republished under the narrowed selection — no rows are
// touched.
func (e *Engine) opFilter(ctx context.Context, n *plan.Filter, in Reader, w Writer, st *Stage) error {
	vpred := expr.CompileVec(n.Pred)
	var scr vec.Scratch
	for {
		b, err := in.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		cb, sel := b.Cols()
		// The output selection is handed downstream; allocated per batch.
		out := vpred(cb, sel, make([]int32, len(sel)), &scr)
		st.addBusy(time.Since(t0))
		if len(out) == 0 {
			b.Done()
			continue
		}
		cb.Retain()
		nb := batch.FromView(cb, out)
		b.Done()
		if err := w.Put(ctx, nb); err != nil {
			return err
		}
	}
}

// opProject computes the output expressions for every row. When every
// output is a plain column reference the projection is zero-copy: a derived
// column batch remaps the columns in place (vec.ProjectCols) and is
// republished under the input's selection. Otherwise each output column is
// its compiled kernel's result (expr.CompileNum) gathered over the selection
// into a pooled batch of the selected row count.
func (e *Engine) opProject(ctx context.Context, n *plan.Project, in Reader, w Writer, st *Stage) error {
	exprs := make([]expr.Expr, len(n.Cols))
	kernels := make([]*expr.VecNum, len(n.Cols))
	for i, c := range n.Cols {
		exprs[i] = c.Expr
		kernels[i] = expr.CompileNum(c.Expr)
	}
	colIdx, colsOnly := expr.ColRefs(exprs)
	for {
		b, err := in.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		cb, sel := b.Cols()
		var nb *batch.Batch
		switch {
		case colsOnly:
			nb = batch.FromView(vec.ProjectCols(cb, colIdx), sel)
		case len(sel) > 0:
			out := vec.Get(len(kernels))
			out.Reserve(len(sel))
			for j, k := range kernels {
				out.Col(j).AppendGather(k.Eval(cb, sel), sel)
			}
			out.Seal(len(sel))
			nb = batch.FromView(out, nil)
		}
		b.Done()
		st.addBusy(time.Since(t0))
		if nb == nil {
			continue
		}
		if err := w.Put(ctx, nb); err != nil {
			return err
		}
	}
}

// opHashJoin is the columnar hash join (single-column equi-join): the right
// input is appended to a dimtab.Table — the join key and the RightOut
// columns, gathered column-wise — which is sealed once the input ends, and
// each left batch probes it in one vectorized call that resolves matches as
// (probe row, build entry) pairs. Output is a pooled ColBatch of exactly the
// node's output lists: LeftOut gathered from the left batch, RightOut from
// the table's entry batch (vec.AppendGather). Columns nothing above the join
// reads are never copied; a full-width join is the identity lists through
// the same path. No Row is materialized on either side, duplicate build keys
// chain in arrival order, and NULL join keys never match.
func (e *Engine) opHashJoin(ctx context.Context, n *plan.HashJoin, left, right Reader, w Writer, st *Stage) error {
	tab := dimtab.New(n.RightCol, n.RightOut)
	defer tab.Release()
	// Build phase.
	for {
		b, err := right.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		cb, sel := b.Cols()
		tab.Append(cb, sel)
		b.Done()
		st.addBusy(time.Since(t0))
	}
	t0 := time.Now()
	if err := tab.Seal(); err != nil {
		return err
	}
	st.addBusy(time.Since(t0))
	// Probe phase. Matches accumulate into a pending output batch reserved
	// for, and published at, exactly the configured batch size — like the
	// CJOIN distributor's pending columns — so no output column ever regrows.
	nl, size := len(n.LeftOut), e.cfg.BatchSize
	var pend *vec.ColBatch
	var ml, me []int32 // match arenas: probe row, build entry
	pendN := 0
	// A faulted probe-side read (or a detached consumer) returns mid-loop;
	// the accumulated-but-unflushed output batch must go back to the pool.
	defer func() {
		if pend != nil {
			pend.Seal(pendN)
			pend.Release()
		}
	}()
	flush := func() error {
		if pendN == 0 {
			return nil
		}
		cb := pend
		cb.Seal(pendN)
		pend, pendN = nil, 0
		return w.Put(ctx, batch.FromView(cb, nil))
	}
	for {
		b, err := left.Next(ctx)
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		if tab.Len() == 0 { // empty build side: nothing can match, just drain
			b.Done()
			st.addBusy(time.Since(t0))
			continue
		}
		cb, sel := b.Cols()
		ml, me = tab.Probe(cb.Col(n.LeftCol), sel, ml[:0], me[:0])
		for ml, me := ml, me; len(ml) > 0; {
			if pend == nil {
				pend = vec.Get(nl + len(n.RightOut))
				pend.Reserve(size)
			}
			k := min(len(ml), size-pendN)
			for c, lc := range n.LeftOut {
				pend.Col(c).AppendGather(cb.Col(lc), ml[:k])
			}
			for c := range n.RightOut {
				pend.Col(nl+c).AppendGather(tab.Batch().Col(c), me[:k])
			}
			pendN += k
			ml, me = ml[k:], me[k:]
			if pendN == size {
				st.addBusy(time.Since(t0))
				if err := flush(); err != nil {
					b.Done()
					return err
				}
				t0 = time.Now()
			}
		}
		b.Done()
		st.addBusy(time.Since(t0))
	}
}

// aggAcc accumulates one aggregate of one group.
type aggAcc struct {
	count int64
	sum   float64
	min   types.Datum
	max   types.Datum
	seen  bool
}

// updateDatum folds one evaluated argument into the accumulator: the per-row
// arm of the column folds.
func (a *aggAcc) updateDatum(spec plan.AggSpec, v types.Datum) {
	if v.IsNull() {
		return
	}
	a.count++
	switch spec.Func {
	case plan.AggSum, plan.AggAvg:
		a.sum += v.Float()
	case plan.AggMin:
		if !a.seen || v.Compare(a.min) < 0 {
			a.min = v
		}
	case plan.AggMax:
		if !a.seen || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
	a.seen = true
}

// updateCol folds a whole column selection into the accumulator: one batch-
// sized update per aggregate instead of one interface call per row. Sum and
// avg over homogeneous numeric columns run as tight typed loops; everything
// else folds per-row datums through updateDatum (identical semantics, no
// expression dispatch).
func (a *aggAcc) updateCol(spec plan.AggSpec, v *vec.Vec, sel []int32) {
	switch {
	case (spec.Func == plan.AggSum || spec.Func == plan.AggAvg) && v.AllInt():
		s := 0.0
		for _, r := range sel {
			s += float64(v.I[r])
		}
		a.sum += s
		a.count += int64(len(sel))
		a.seen = a.seen || len(sel) > 0
	case (spec.Func == plan.AggSum || spec.Func == plan.AggAvg) && v.AllFloat():
		s := 0.0
		for _, r := range sel {
			s += v.F[r]
		}
		a.sum += s
		a.count += int64(len(sel))
		a.seen = a.seen || len(sel) > 0
	default:
		for _, r := range sel {
			a.updateDatum(spec, v.Datum(int(r)))
		}
	}
}

func (a *aggAcc) result(spec plan.AggSpec) types.Datum {
	switch spec.Func {
	case plan.AggCount:
		return types.NewInt(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sum)
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sum / float64(a.count))
	case plan.AggMin:
		if !a.seen {
			return types.Null
		}
		return a.min
	default:
		if !a.seen {
			return types.Null
		}
		return a.max
	}
}

// opAggregate is a hash group-by over the open-addressing groupTable.
// Output group order is unspecified; plans that need an order add a Sort
// node above. Every group-by key and aggregate argument is a compiled kernel
// (expr.CompileNum) evaluated over the batch's selection into a vector — a
// plain column is its own result — and aggregateCols folds them column-wise:
// key hashing, in-place group resolution and one accumulator fold per
// (aggregate, batch); dictionary-coded group columns hash each distinct
// string once per page instead of once per row. Groups are emitted as pooled
// batches of at most BatchSize rows.
func (e *Engine) opAggregate(ctx context.Context, n *plan.Aggregate, in Reader, w Writer, st *Stage) error {
	naggs, nkeys := len(n.Aggs), len(n.GroupBy)
	gt := newGroupTable(naggs)
	keyKernels := make([]*expr.VecNum, nkeys)
	for i, g := range n.GroupBy {
		keyKernels[i] = expr.CompileNum(g.Expr)
	}
	argKernels := make([]*expr.VecNum, naggs) // nil for COUNT(*)
	for i, spec := range n.Aggs {
		if spec.Arg != nil {
			argKernels[i] = expr.CompileNum(spec.Arg)
		}
	}
	keys := make([]*vec.Vec, nkeys)
	args := make([]*vec.Vec, naggs)
	var scr aggScratch
	for {
		b, err := in.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		cb, sel := b.Cols()
		for i, k := range keyKernels {
			keys[i] = k.Eval(cb, sel)
		}
		for i, k := range argKernels {
			if k != nil {
				args[i] = k.Eval(cb, sel)
			}
		}
		aggregateCols(gt, n.Aggs, args, keys, sel, &scr)
		b.Done()
		st.addBusy(time.Since(t0))
	}
	// A global aggregate over empty input still yields one row.
	if gt.len() == 0 && nkeys == 0 {
		gt.findOrAdd(hashSeed, nil, 0)
	}
	return emit(ctx, w, nkeys+naggs, gt.len(), e.cfg.BatchSize, func(cb *vec.ColBatch, lo, hi int) {
		for g := lo; g < hi; g++ {
			for j, k := range gt.keys[g] {
				cb.Col(j).AppendDatum(k)
			}
			for i, a := range gt.entryAccs(int32(g)) {
				cb.Col(nkeys + i).AppendDatum(a.result(n.Aggs[i]))
			}
		}
	})
}

// opSort gathers its input into one column batch and emits it ordered by the
// sort keys: a stable sort of a row permutation (ties keep arrival order),
// gathered out batch by batch.
func (e *Engine) opSort(ctx context.Context, n *plan.Sort, in Reader, w Writer, st *Stage) error {
	var all *vec.ColBatch
	rows := 0
	defer func() {
		if all != nil {
			all.Release()
		}
	}()
	for {
		b, err := in.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		cb, sel := b.Cols()
		if all == nil {
			all = vec.Get(cb.NumCols())
		}
		for c := range all.NumCols() {
			all.Col(c).AppendGather(cb.Col(c), sel)
		}
		rows += len(sel)
		b.Done()
	}
	if rows == 0 {
		return nil
	}
	t0 := time.Now()
	perm := make([]int32, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		for _, k := range n.Keys {
			v := all.Col(k.Col)
			c := v.Datum(int(perm[i])).Compare(v.Datum(int(perm[j])))
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
	st.addBusy(time.Since(t0))
	return emit(ctx, w, all.NumCols(), rows, e.cfg.BatchSize, func(cb *vec.ColBatch, lo, hi int) {
		for c := range cb.NumCols() {
			cb.Col(c).AppendGather(all.Col(c), perm[lo:hi])
		}
	})
}

// opCJoin hands the star query to the shared Global Query Plan runner and
// forwards its joined batches downstream.
func (e *Engine) opCJoin(ctx context.Context, n *plan.CJoin, w Writer, st *Stage) error {
	if e.cfg.Star == nil {
		return fmt.Errorf("engine: CJoin node but no StarRunner configured")
	}
	return e.cfg.Star.Run(ctx, n.Star, func(b *batch.Batch) error {
		return w.Put(ctx, b)
	})
}
