package engine

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestResultCacheHitBitIdentical: an exact repeat template must be served
// from the cache (same shared *Result) and match a cache-off engine's cold
// run bit-for-bit.
func TestResultCacheHitBitIdentical(t *testing.T) {
	cat := testDB(t, 2000)
	warm := newTestEngine(cat, Config{ResultCache: true})
	cold := newTestEngine(cat, Config{})
	ctx := context.Background()

	first, err := warm.Execute(ctx, q1Plan(cat, 3))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh plan node with the same shape must fingerprint identically.
	second, err := warm.Execute(ctx, q1Plan(cat, 3))
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("repeat template not served from cache: got distinct *Result")
	}
	ref, err := cold.Execute(ctx, q1Plan(cat, 3))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, second.Rows, ref.Rows)

	st := warm.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", st.CacheHits, st.CacheMisses)
	}

	// A different constant is a different template: no false hit.
	other, err := warm.Execute(ctx, q1Plan(cat, 4))
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("different template served the cached result")
	}
}

// TestResultCacheEviction: with capacity 2, a third template evicts the LRU
// entry; the evicted template re-misses cleanly and recomputes correctly.
func TestResultCacheEviction(t *testing.T) {
	cat := testDB(t, 1500)
	e := newTestEngine(cat, Config{ResultCache: true, ResultCacheSize: 2})
	off := newTestEngine(cat, Config{})
	ctx := context.Background()

	for _, hi := range []int64{1, 2, 3} {
		if _, err := e.Execute(ctx, q1Plan(cat, hi)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CacheEvictions == 0 {
		t.Fatal("expected at least one eviction with capacity 2")
	}
	// hi=1 was LRU and must have been evicted: re-miss, recompute, re-cache.
	res, err := e.Execute(ctx, q1Plan(cat, 1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := off.Execute(ctx, q1Plan(cat, 1))
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRows(t, res.Rows, ref.Rows)
	st := e.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("unexpected hit after eviction: %+v", st)
	}
	again, err := e.Execute(ctx, q1Plan(cat, 1))
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Fatal("re-cached template not served from cache")
	}
}

// growDB builds an unsealed single-table catalog the test can keep appending
// to (scans see all flushed pages as of attach time).
func growDB(t *testing.T, r *rand.Rand, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 256)
	tbl, err := cat.CreateTable("facts", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	appendRandRows(t, r, tbl, n)
	return cat
}

func appendRandRows(t *testing.T, r *rand.Rand, tbl *storage.Table, n int) {
	t.Helper()
	pad := strings.Repeat("y", 40)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(r.Intn(16))),
			types.NewFloat(float64(r.Intn(1000)) / 4),
			types.NewString(pad + strconv.Itoa(r.Int())),
		}
	}
	if err := tbl.File.Append(rows...); err != nil {
		t.Fatal(err)
	}
}

func growQuery(cat *storage.Catalog, lo int64) plan.Node {
	tbl := cat.MustTable("facts")
	f := plan.NewFilter(plan.NewScan(tbl), expr.NewCmp(expr.GE, expr.C(0, "k"), expr.Int(lo)))
	return plan.NewAggregate(f,
		[]plan.GroupCol{{Name: "k", Kind: types.KindInt, Expr: expr.C(0, "k")}},
		[]plan.AggSpec{{Func: plan.AggSum, Arg: expr.C(1, "v"), Name: "total"}})
}

// TestResultCacheAppendInvalidatesRandom: property test over random
// append/query interleavings — a cache-on engine must stay equivalent to a
// cache-off engine over the same growing table, and appends must actually
// invalidate (no stale hit ever observed, invalidation counter advances).
func TestResultCacheAppendInvalidatesRandom(t *testing.T) {
	r := rand.New(rand.NewSource(977))
	cat := growDB(t, r, 600)
	on := newTestEngine(cat, Config{ResultCache: true})
	off := newTestEngine(cat, Config{})
	ctx := context.Background()
	tbl := cat.MustTable("facts")

	for step := 0; step < 120; step++ {
		if r.Intn(10) < 3 {
			// Large enough to flush pages, so repeats really change.
			appendRandRows(t, r, tbl, 200+r.Intn(200))
			continue
		}
		lo := int64(r.Intn(6))
		got, err := on.Execute(ctx, growQuery(cat, lo))
		if err != nil {
			t.Fatal(err)
		}
		want, err := off.Execute(ctx, growQuery(cat, lo))
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRows(t, got.Rows, want.Rows)
	}
	st := on.Stats()
	if st.CacheHits == 0 {
		t.Fatal("interleaving produced no cache hits")
	}
	if st.CacheInvalidations == 0 {
		t.Fatal("appends produced no invalidations")
	}
}

// TestResultCacheBatchMixedHits: ExecuteBatch must serve cached slots
// without dispatching them and still run the misses.
func TestResultCacheBatchMixedHits(t *testing.T) {
	cat := testDB(t, 1500)
	e := newTestEngine(cat, Config{ResultCache: true, SP: true, Model: SPPull})
	off := newTestEngine(cat, Config{})
	ctx := context.Background()

	if _, err := e.Execute(ctx, q1Plan(cat, 2)); err != nil {
		t.Fatal(err)
	}
	roots := []plan.Node{q1Plan(cat, 2), q1Plan(cat, 4), q1Plan(cat, 2), q1Plan(cat, 4)}
	results, err := e.ExecuteBatch(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	for i, hi := range []int64{2, 4, 2, 4} {
		ref, err := off.Execute(ctx, q1Plan(cat, hi))
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRows(t, results[i].Rows, ref.Rows)
	}
	st := e.Stats()
	if st.CacheHits < 2 {
		t.Fatalf("batch hits = %d, want >= 2", st.CacheHits)
	}
}

// TestResultCacheHitZeroAlloc: the hit fast path (fingerprint, probe,
// version check) must not allocate.
func TestResultCacheHitZeroAlloc(t *testing.T) {
	cat := testDB(t, 1000)
	e := newTestEngine(cat, Config{ResultCache: true})
	ctx := context.Background()
	root := q1Plan(cat, 3)
	if _, err := e.Execute(ctx, root); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Execute(ctx, root); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkResultCacheHit is the CI-gated hot path: repeat-template answer
// straight from the cache. Must stay 0 allocs/op.
func BenchmarkResultCacheHit(b *testing.B) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 256)
	tbl, err := cat.CreateTable("sales", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "dept", Kind: types.KindInt},
		types.Column{Name: "amount", Kind: types.KindFloat},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, 512)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 5)),
			types.NewFloat(float64(i)),
			types.NewString("p" + strconv.Itoa(i)),
		}
	}
	if err := tbl.File.Append(rows...); err != nil {
		b.Fatal(err)
	}
	if err := tbl.File.Seal(); err != nil {
		b.Fatal(err)
	}
	e := New(cat, Config{ResultCache: true})
	ctx := context.Background()
	root := q1Plan(cat, 3)
	if _, err := e.Execute(ctx, root); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(ctx, root); err != nil {
			b.Fatal(err)
		}
	}
}
