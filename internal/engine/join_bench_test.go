package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// drainWriter consumes join output without materializing rows, so the
// benchmark measures the operator, not the test harness's row conversion.
type drainWriter struct{ n int }

func (w *drainWriter) Put(ctx context.Context, b *batch.Batch) error {
	w.n += b.Len()
	b.Done()
	return nil
}

func (w *drainWriter) Close(err error) {}

// runJoin drives a hash join operator over in-memory probe batches: the
// columnar opHashJoin, which probes its build table's shared index, or, given
// build batches, the row-materializing reference over them.
func runJoin(t testing.TB, e *Engine, n *plan.HashJoin, left, right []*batch.Batch) int {
	t.Helper()
	st := newStage(plan.KindHashJoin, false)
	w := &drainWriter{}
	ctx, in := context.Background(), &sliceReader{batches: left}
	var err error
	if right != nil {
		err = e.opHashJoinRows(ctx, n, in, &sliceReader{batches: right}, w, st)
	} else {
		err = e.opHashJoin(ctx, n, in, w, st)
	}
	if err != nil {
		t.Fatalf("hash join: %v", err)
	}
	return w.n
}

// BenchmarkHashJoin measures the per-tuple probe cost of the hash join on
// the exchange's native currency — view batches — across build cardinalities
// (64 = a tiny dimension, 4096 = an SSB-sized dimension), key shapes (dense
// surrogate keys take the join index's direct form; "-sparse" keys, spread
// like SSB's yyyymmdd date keys, the hashed one) and probe match rates:
//
//   - line=rows: the row-materializing reference operator (map of boxed Row
//     slices, per-row Datum hashing, Concat per output row) — the baseline
//     the acceptance criterion compares against.
//   - line=cols: the columnar opHashJoin probing the build table's shared
//     index with AppendGather output assembly. The benchmark holds the
//     index across iterations, as concurrent queries over one table do, so
//     this line is the probe alone.
//
// The ns/tuple metric is the acceptance number: cols must be >= 2x better
// than rows at dimension-sized build sides. The perf-smoke CI job
// additionally gates line=cols allocs/op (a per-batch budget — steady-state
// probing allocates output shells and arena growth, never per row).
func BenchmarkHashJoin(b *testing.B) {
	const nrows, nbatches = 1024, 32
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 32)
	lt, err := cat.CreateTable("bl", types.NewSchema(
		types.Column{Name: "lk", Kind: types.KindInt},
		types.Column{Name: "lv", Kind: types.KindInt},
		types.Column{Name: "ls", Kind: types.KindString},
	))
	if err != nil {
		b.Fatal(err)
	}

	for _, shape := range []struct {
		build  int
		stride int64 // key i of the build side is i*stride
		name   string
	}{{64, 1, "64"}, {4096, 1, "4096"}, {4096, 1_000_003, "4096-sparse"}} {
		build := shape.build
		for _, hit := range []int{100, 25} {
			r := rand.New(rand.NewSource(int64(build*1000 + hit)))

			// Build side: distinct int keys i*stride, i < build, with a dict
			// payload, in page-sized view batches like a scanned dimension.
			var buildCBs []*vec.ColBatch
			for done := 0; done < build; done += nrows {
				n := min(nrows, build-done)
				cb := vec.Get(3)
				dict := cb.Col(1).BulkDict(16)
				for d := range dict {
					dict[d] = fmt.Sprintf("nation-%02d", d)
				}
				cb.Col(1).SetRows(types.KindString, n)
				codes := cb.Col(1).BulkI(n)
				for i := 0; i < n; i++ {
					cb.Col(0).AppendDatum(types.NewInt(int64(done+i) * shape.stride))
					codes[i] = int64(i % 16)
					cb.Col(2).AppendDatum(types.NewInt(int64(i)))
				}
				cb.Seal(n)
				buildCBs = append(buildCBs, cb)
			}
			// The same rows stored: the cols line probes their index.
			rt, err := cat.CreateTable(fmt.Sprintf("br-%s-%d", shape.name, hit), types.NewSchema(
				types.Column{Name: "rk", Kind: types.KindInt},
				types.Column{Name: "rs", Kind: types.KindString},
				types.Column{Name: "rv", Kind: types.KindInt},
			))
			if err != nil {
				b.Fatal(err)
			}
			for _, cb := range buildCBs {
				if err := rt.File.Append(cb.Rows()...); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.File.Seal(); err != nil {
				b.Fatal(err)
			}
			ix, err := rt.Indexes.Acquire(context.Background(), rt.File, 0)
			if err != nil {
				b.Fatal(err)
			}
			node := plan.NewHashJoin(plan.NewScan(lt), plan.NewScan(rt), 0, 0)
			// Probe side: keys drawn from a domain sized so `hit` percent of
			// probes land on a build key (each hit joins exactly one row).
			domain := build * 100 / hit
			probeCBs := make([]*vec.ColBatch, nbatches)
			for bi := range probeCBs {
				cb := vec.Get(3)
				for i := 0; i < nrows; i++ {
					cb.Col(0).AppendDatum(types.NewInt(int64(r.Intn(domain)) * shape.stride))
					cb.Col(1).AppendDatum(types.NewInt(int64(i)))
					cb.Col(2).AppendDatum(types.NewString("pad"))
				}
				cb.Seal(nrows)
				probeCBs[bi] = cb
			}
			views := func(cbs []*vec.ColBatch) []*batch.Batch {
				out := make([]*batch.Batch, len(cbs))
				for i, cb := range cbs {
					cb.Retain()
					out[i] = batch.FromView(cb, nil)
				}
				return out
			}
			tuples := float64(nrows * nbatches)

			for _, line := range []struct {
				name    string
				rowJoin bool
			}{{"rows", true}, {"cols", false}} {
				name := fmt.Sprintf("line=%s/build=%s/hit=%d", line.name, shape.name, hit)
				b.Run(name, func(b *testing.B) {
					e := &Engine{cfg: (&Config{}).withDefaults()}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						l, rr := views(probeCBs), []*batch.Batch(nil)
						if line.rowJoin {
							rr = views(buildCBs)
						}
						b.StartTimer()
						runJoin(b, e, node, l, rr)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples/float64(b.N), "ns/tuple")
				})
			}
			ix.Release()
			for _, cb := range buildCBs {
				cb.Release()
			}
			for _, cb := range probeCBs {
				cb.Release()
			}
		}
	}
}

// footprintWriter keeps every output batch, as an SPL or a slow consumer
// would, and adds up what the batches hold against what their rows fill.
type footprintWriter struct {
	held           []*batch.Batch
	bytes, filled  int64
	bytesPerRowCol int64
}

func (w *footprintWriter) Put(ctx context.Context, b *batch.Batch) error {
	cb, _ := b.Cols()
	w.held = append(w.held, b)
	w.bytes += cb.Bytes()
	w.filled += int64(cb.Len()*cb.NumCols()) * w.bytesPerRowCol
	return nil
}

func (w *footprintWriter) Close(err error) {}

// BenchmarkJoinOutputFootprint pins what a join output batch retains: after a
// 3 000-row dimension page of string columns has been decoded and released —
// the shape that used to ratchet every recycled batch to (widest column
// count) × (longest page) × (int + string) — a 32-batch Q2.1-shaped probe
// (four int fact columns out, one int dimension column) must hold about what
// it fills. retained/filled is the gated metric (perf-smoke: <= 1.25).
func BenchmarkJoinOutputFootprint(b *testing.B) {
	const nrows, nbatches, build = 1024, 32, 2556
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 32)
	dim, err := cat.CreateTable("dim", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "s1", Kind: types.KindString},
		types.Column{Name: "s2", Kind: types.KindString},
		types.Column{Name: "s3", Kind: types.KindString},
		types.Column{Name: "s4", Kind: types.KindString},
	))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		s := types.NewString(fmt.Sprintf("v%d", i%25))
		if err := dim.File.Append(types.Row{types.NewInt(int64(i)), s, s, s, s}); err != nil {
			b.Fatal(err)
		}
	}
	if err := dim.File.Seal(); err != nil {
		b.Fatal(err)
	}
	fact, err := cat.CreateTable("fact", types.NewSchema(
		types.Column{Name: "date", Kind: types.KindInt},
		types.Column{Name: "part", Kind: types.KindInt},
		types.Column{Name: "supp", Kind: types.KindInt},
		types.Column{Name: "rev", Kind: types.KindInt},
	))
	if err != nil {
		b.Fatal(err)
	}
	node := plan.NewHashJoin(plan.NewScan(fact), plan.NewScan(dim), 0, 0)
	node.LeftOut, node.RightOut = []int{0, 1, 2, 3}, []int{0}

	r := rand.New(rand.NewSource(21))
	ix, err := dim.Indexes.Acquire(context.Background(), dim.File, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Release()
	probeCBs := make([]*vec.ColBatch, nbatches)
	for bi := range probeCBs {
		cb := vec.Get(4)
		for i := 0; i < nrows; i++ {
			cb.AppendRow(types.Row{types.NewInt(int64(r.Intn(build))), types.NewInt(int64(i)), types.NewInt(int64(bi)), types.NewInt(int64(i * bi))})
		}
		cb.Seal(nrows)
		probeCBs[bi] = cb
	}
	e := &Engine{cfg: (&Config{}).withDefaults()}
	var ratio float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		page, err := dim.File.PageCols(0)
		if err != nil {
			b.Fatal(err)
		}
		if page.Len() < 2500 {
			b.Fatalf("dimension page holds %d rows, want a long page", page.Len())
		}
		_ = page.Rows() // every column decoded
		page.Release()  // the only reference: arrays back to the recycler
		left := make([]*batch.Batch, nbatches)
		for j, cb := range probeCBs {
			cb.Retain()
			left[j] = batch.FromView(cb, nil)
		}
		w := &footprintWriter{bytesPerRowCol: 8 + 1}
		b.StartTimer()
		st := newStage(plan.KindHashJoin, false)
		if err := e.opHashJoin(context.Background(), node, &sliceReader{batches: left}, w, st); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(w.held) != nbatches {
			b.Fatalf("%d output batches, want %d", len(w.held), nbatches)
		}
		ratio = max(ratio, float64(w.bytes)/float64(w.filled))
		for _, ob := range w.held {
			ob.Done()
		}
		b.StartTimer()
	}
	b.ReportMetric(ratio, "retained/filled")
	for _, cb := range probeCBs {
		cb.Release()
	}
}
