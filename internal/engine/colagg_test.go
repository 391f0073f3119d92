package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// ---------------------------------------------------------------------------
// Harness: drive opAggregate over an in-memory batch stream.

type sliceReader struct {
	batches []*batch.Batch
	i       int
}

func (r *sliceReader) Next(ctx context.Context) (*batch.Batch, error) {
	if r.i >= len(r.batches) {
		return nil, io.EOF
	}
	b := r.batches[r.i]
	r.i++
	return b, nil
}

func (r *sliceReader) Close() {}

type collectWriter struct {
	rows []types.Row
}

func (w *collectWriter) Put(ctx context.Context, b *batch.Batch) error {
	w.rows = append(w.rows, b.RowsView()...)
	b.Done()
	return nil
}

func (w *collectWriter) Close(err error) {}

func runAggregate(t testing.TB, n *plan.Aggregate, batches []*batch.Batch) []types.Row {
	t.Helper()
	e := &Engine{cfg: (&Config{}).withDefaults()}
	st := newStage(plan.KindAggregate, false)
	w := &collectWriter{}
	if err := e.opAggregate(context.Background(), n, &sliceReader{batches: batches}, w, st); err != nil {
		t.Fatalf("opAggregate: %v", err)
	}
	return w.rows
}

// rowOnly hides an expression from the typed loops of expr.CompileNum, so
// that its kernel evaluates it row by row through Eval.
type rowOnly struct{ expr.Expr }

// rowPath returns n with every group-by key and aggregate argument hidden:
// the reference whose keys and arguments are Eval's, row by row.
func rowPath(n *plan.Aggregate) *plan.Aggregate {
	groupBy, aggs := slices.Clone(n.GroupBy), slices.Clone(n.Aggs)
	for i := range groupBy {
		groupBy[i].Expr = rowOnly{groupBy[i].Expr}
	}
	for i := range aggs {
		if aggs[i].Arg != nil {
			aggs[i].Arg = rowOnly{aggs[i].Arg}
		}
	}
	return plan.NewAggregate(n.Input, groupBy, aggs)
}

// ---------------------------------------------------------------------------
// Random column batches mixing int, float, string, dictionary-coded and
// NULL-bearing columns.

// colStyle picks how one column of the random batch is generated.
type colStyle int

const (
	styleInt colStyle = iota
	styleFloat
	styleStr
	styleDict
	styleMixed // mixed kinds with NULLs — defeats every uniformity flag
	numStyles
)

// buildRandomBatch generates nrows of ncols columns in columnar form.
// Dictionary columns are built exactly as the v2 page decoder builds them:
// a sorted duplicate-free dictionary with per-row codes in I.
func buildRandomBatch(r *rand.Rand, nrows, ncols int, styles []colStyle) *vec.ColBatch {
	cb := vec.Get(ncols)
	for c := 0; c < ncols; c++ {
		v := cb.Col(c)
		switch styles[c] {
		case styleInt:
			for i := 0; i < nrows; i++ {
				v.AppendDatum(types.NewInt(int64(r.Intn(7))))
			}
		case styleFloat:
			for i := 0; i < nrows; i++ {
				v.AppendDatum(types.NewFloat(math.Round(r.Float64()*8) / 2))
			}
		case styleStr:
			for i := 0; i < nrows; i++ {
				v.AppendDatum(types.NewString(strings.Repeat("k", r.Intn(5)+1)))
			}
		case styleDict:
			ndict := r.Intn(5) + 1
			dict := v.BulkDict(ndict)
			for d := range dict {
				dict[d] = fmt.Sprintf("brand-%02d", d)
			}
			v.AppendKindRun(types.KindString, nrows)
			codes := v.BulkI(nrows)
			strs := v.BulkS(nrows)
			for i := range codes {
				codes[i] = int64(r.Intn(ndict))
				strs[i] = dict[codes[i]]
			}
		case styleMixed:
			for i := 0; i < nrows; i++ {
				switch r.Intn(4) {
				case 0:
					v.AppendDatum(types.Null)
				case 1:
					v.AppendDatum(types.NewInt(int64(r.Intn(5))))
				case 2:
					v.AppendDatum(types.NewFloat(float64(r.Intn(5))))
				default:
					v.AppendDatum(types.NewString(strings.Repeat("x", r.Intn(3))))
				}
			}
		}
	}
	cb.Seal(nrows)
	return cb
}

// canonical renders result rows order-insensitively with float rounding (the
// columnar global path folds batch-locally, so float sums may differ in the
// last few bits from a reference's strict per-row order).
func canonical(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for j, d := range r {
			if j > 0 {
				sb.WriteByte('|')
			}
			if d.K == types.KindFloat {
				fmt.Fprintf(&sb, "f:%.6g", d.F)
			} else {
				sb.WriteString(d.SigString())
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// TestGroupedAggregateColsMatchesRows is the result-equivalence property
// test of the vectorized grouped-aggregation path: over random plans
// (random group-by arity, NULL-bearing keys, int/float/string/dict columns,
// random selections) it must produce exactly the groups and aggregates of the
// reference — the same plan with every key and argument evaluated by Eval row
// by row (rowPath) over literal batches of the same rows.
func TestGroupedAggregateColsMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		ncols := r.Intn(4) + 1
		styles := make([]colStyle, ncols)
		for c := range styles {
			styles[c] = colStyle(r.Intn(int(numStyles)))
		}
		// Random plan: group-by arity 0..min(2,ncols), 1..2 aggregates.
		ngroup := r.Intn(3)
		if ngroup > ncols {
			ngroup = ncols
		}
		groupBy := make([]plan.GroupCol, ngroup)
		for g := range groupBy {
			idx := r.Intn(ncols)
			groupBy[g] = plan.GroupCol{
				Name: fmt.Sprintf("g%d", g), Kind: types.KindInt,
				Expr: expr.C(idx, fmt.Sprintf("c%d", idx)),
			}
		}
		naggs := r.Intn(2) + 1
		aggs := make([]plan.AggSpec, naggs)
		for a := range aggs {
			fn := plan.AggFunc(r.Intn(5))
			var arg expr.Expr
			if fn != plan.AggCount || r.Intn(2) == 0 {
				arg = expr.C(r.Intn(ncols), "a")
			}
			aggs[a] = plan.AggSpec{Func: fn, Arg: arg, Name: fmt.Sprintf("a%d", a), ArgKind: types.KindInt}
		}
		node := plan.NewAggregate(nil, groupBy, aggs)

		// Shared data: a few batches, each with a random selection.
		nbatches := r.Intn(3) + 1
		var colBatches, rowBatches []*batch.Batch
		for bi := 0; bi < nbatches; bi++ {
			nrows := r.Intn(96) + 4
			cb := buildRandomBatch(r, nrows, ncols, styles)
			var sel []int32
			if r.Intn(2) == 0 {
				for i := 0; i < nrows; i++ {
					if r.Intn(3) > 0 {
						sel = append(sel, int32(i))
					}
				}
			}
			rows := []types.Row{}
			if sel != nil {
				for _, ri := range sel {
					rows = append(rows, cb.Row(int(ri)))
				}
			} else {
				rows = cb.Rows()
			}
			colBatches = append(colBatches, batch.FromView(cb, sel))
			rowBatches = append(rowBatches, batch.Of(rows...))
		}

		gotCols := canonical(runAggregate(t, node, colBatches))
		gotRows := canonical(runAggregate(t, rowPath(node), rowBatches))
		if len(gotCols) != len(gotRows) {
			t.Fatalf("trial %d: columnar path %d groups, row path %d groups\ncols: %v\nrows: %v",
				trial, len(gotCols), len(gotRows), gotCols, gotRows)
		}
		for i := range gotCols {
			if gotCols[i] != gotRows[i] {
				t.Fatalf("trial %d row %d:\ncols: %s\nrows: %s", trial, i, gotCols[i], gotRows[i])
			}
		}
	}
}

// TestHashFoldMatchesHashKey pins HashFold's typed arms to its per-datum
// arm: for every column shape, HashFold must produce exactly
// (h ^ Datum.HashKey) * prime per row — a key column uniform in one batch and
// mixed in the next feeds one group table.
func TestHashFoldMatchesHashKey(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		styles := []colStyle{colStyle(trial % int(numStyles))}
		nrows := r.Intn(64) + 1
		cb := buildRandomBatch(r, nrows, 1, styles)
		sel := cb.AllSel()
		h := make([]uint64, nrows)
		for i := range h {
			h[i] = hashSeed
		}
		vec.HashFold(cb.Col(0), sel, h, nil)
		for i := 0; i < nrows; i++ {
			want := (hashSeed ^ cb.Col(0).Datum(i).HashKey()) * vec.HashPrime
			if h[i] != want {
				t.Fatalf("trial %d (style %d) row %d: HashFold %x, want %x", trial, styles[0], i, h[i], want)
			}
		}
		cb.Release()
	}
}

// TestHashFoldZeroAlloc: the column hash kernels must not allocate in
// steady state (the dictionary LUT is caller-amortized).
func TestHashFoldZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cb := buildRandomBatch(r, 1024, 2, []colStyle{styleInt, styleDict})
	defer cb.Release()
	sel := cb.AllSel()
	h := make([]uint64, 1024)
	var lut []uint64
	lut = vec.HashFold(cb.Col(1), sel, h, lut) // warm the LUT
	allocs := testing.AllocsPerRun(100, func() {
		for i := range h {
			h[i] = hashSeed
		}
		vec.HashFold(cb.Col(0), sel, h, nil)
		lut = vec.HashFold(cb.Col(1), sel, h, lut)
	})
	if allocs != 0 {
		t.Fatalf("HashFold allocates %v per run, want 0", allocs)
	}
}

// TestAggregateColsSteadyStateZeroAlloc: once the group table and scratch
// have warmed, folding further batches through the vectorized grouped path
// must be allocation-free.
func TestAggregateColsSteadyStateZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cb := buildRandomBatch(r, 1024, 3, []colStyle{styleInt, styleDict, styleInt})
	defer cb.Release()
	sel := cb.AllSel()
	aggs := []plan.AggSpec{
		{Func: plan.AggSum, Arg: expr.C(2, "v"), Name: "s"},
		{Func: plan.AggCount, Name: "c"},
	}
	args := []*vec.Vec{cb.Col(2), nil}
	keys := []*vec.Vec{cb.Col(0), cb.Col(1)}
	gt := newGroupTable(len(aggs))
	var scr aggScratch
	aggregateCols(gt, aggs, args, keys, sel, &scr) // warm
	allocs := testing.AllocsPerRun(100, func() {
		aggregateCols(gt, aggs, args, keys, sel, &scr)
	})
	if allocs != 0 {
		t.Fatalf("aggregateCols steady state allocates %v per run, want 0", allocs)
	}
}

// TestColumnarEmitterConstantAllocs: publishing a filtered view of a page
// downstream (the columnar emitter) must cost a constant few allocations
// per batch — the batch shell and its view — independent of the row count,
// with the underlying ColBatch recycling deterministically through Done.
func TestColumnarEmitterConstantAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cb := buildRandomBatch(r, 4096, 2, []colStyle{styleInt, styleInt})
	defer cb.Release()
	sel := cb.AllSel()
	allocs := testing.AllocsPerRun(100, func() {
		cb.Retain()
		nb := batch.FromView(cb, sel)
		if got, _ := nb.Cols(); got != cb {
			t.Fatal("view lost")
		}
		nb.Done()
	})
	if allocs > 3 {
		t.Fatalf("columnar emit costs %v allocs per 4096-row batch, want <= 3", allocs)
	}
}
