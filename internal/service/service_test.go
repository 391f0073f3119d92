package service

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// testCatalog builds a memory-resident catalog with one date-clustered fact
// table: facts(k int, v int), k strictly increasing so per-page zone maps
// carry tight disjoint ranges and narrow BETWEEN predicates provably touch
// few pages.
func testCatalog(t *testing.T, rows int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 256)
	facts, err := cat.CreateTable("facts", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Unique pads defeat the page dictionary so the table spans many pages.
	pad := strings.Repeat("x", 60)
	for i := 0; i < rows; i++ {
		if err := facts.File.Append(types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 7)),
			types.NewString(pad + strconv.Itoa(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := facts.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if facts.File.NumPages() < 8 {
		t.Fatalf("facts spans %d pages; need >= 8 for classification tests",
			facts.File.NumPages())
	}
	return cat
}

// narrowScan is a plan touching only the first sliver of the key space.
func narrowScan(cat *storage.Catalog) plan.Node {
	tbl := cat.MustTable("facts")
	return &plan.Scan{Table: tbl, Pred: expr.NewBetween(
		expr.C(0, "k"), expr.Int(0), expr.Int(10))}
}

// fullScan is a plan that must visit every page.
func fullScan(cat *storage.Catalog) plan.Node {
	return &plan.Scan{Table: cat.MustTable("facts")}
}

// blockingExec is a fake Executor whose Execute parks until released (or ctx
// ends). It makes slot occupancy deterministic.
type blockingExec struct {
	gate    chan struct{} // close to release every parked Execute
	started atomic.Int64
}

func newBlockingExec() *blockingExec {
	return &blockingExec{gate: make(chan struct{})}
}

func (f *blockingExec) Execute(ctx context.Context, root plan.Node) (*engine.Result, error) {
	f.started.Add(1)
	select {
	case <-f.gate:
		return &engine.Result{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *blockingExec) Stream(ctx context.Context, root plan.Node) (engine.Reader, error) {
	return nil, errors.New("blockingExec: no stream")
}

// sleepExec completes after a fixed duration (service-time seeding).
type sleepExec struct{ d time.Duration }

func (f sleepExec) Execute(ctx context.Context, root plan.Node) (*engine.Result, error) {
	select {
	case <-time.After(f.d):
		return &engine.Result{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f sleepExec) Stream(ctx context.Context, root plan.Node) (engine.Reader, error) {
	return nil, errors.New("sleepExec: no stream")
}

// sliceReader is a canned engine.Reader over literal batches.
type sliceReader struct {
	batches []*batch.Batch
	pos     int
	closed  bool
}

func (r *sliceReader) Next(ctx context.Context) (*batch.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.pos >= len(r.batches) {
		return nil, io.EOF
	}
	b := r.batches[r.pos]
	r.pos++
	return b, nil
}

func (r *sliceReader) Close() { r.closed = true }

// streamExec serves canned batches through Stream.
type streamExec struct{ r *sliceReader }

func (f *streamExec) Execute(ctx context.Context, root plan.Node) (*engine.Result, error) {
	return nil, errors.New("streamExec: no execute")
}

func (f *streamExec) Stream(ctx context.Context, root plan.Node) (engine.Reader, error) {
	return f.r, nil
}

func TestClassifyShortVersusLong(t *testing.T) {
	cat := testCatalog(t, 4000)
	g := NewGateway(newBlockingExec(), Config{})

	if class, frac := g.Classify(narrowScan(cat)); class != ClassShort {
		t.Fatalf("narrow scan classified %s (coverage %.2f), want short", class, frac)
	} else if frac > 0.3 {
		t.Fatalf("narrow scan coverage %.2f, want <= 0.3", frac)
	}
	if class, frac := g.Classify(fullScan(cat)); class != ClassLong || frac != 1.0 {
		t.Fatalf("full scan classified %s (coverage %.2f), want long/1.0", class, frac)
	}
	// A filter above a bare scan contributes its predicate.
	filtered := &plan.Filter{Input: fullScan(cat), Pred: expr.NewBetween(
		expr.C(0, "k"), expr.Int(0), expr.Int(10))}
	if class, _ := g.Classify(filtered); class != ClassShort {
		t.Fatalf("filtered scan classified %s, want short", class)
	}
	// Cached path returns the same answer.
	if class, _ := g.Classify(narrowScan(cat)); class != ClassShort {
		t.Fatalf("cached classification flipped to %s", class)
	}
}

// TestShortBypassesLongQueue proves the head-of-line property: with every
// long slot occupied and long arrivals queued, a short query is admitted
// immediately.
func TestShortBypassesLongQueue(t *testing.T) {
	cat := testCatalog(t, 4000)
	exec := newBlockingExec()
	g := NewGateway(exec, Config{ShortSlots: 1, LongSlots: 1, QueueDepth: 8, HighWater: 100})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // 1 running + 2 queued longs
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Submit(context.Background(), fullScan(cat)); err != nil {
				t.Errorf("long submit: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return g.state[ClassLong].q.queued() == 2 })

	// One long is running, two are parked; the short must start immediately.
	done := make(chan error, 1)
	go func() {
		_, err := g.Submit(context.Background(), narrowScan(cat))
		done <- err
	}()
	waitFor(t, func() bool { return exec.started.Load() == 2 })

	close(exec.gate)
	if err := <-done; err != nil {
		t.Fatalf("short submit blocked behind long queue: %v", err)
	}
	wg.Wait()
}

func TestOverloadShedding(t *testing.T) {
	cat := testCatalog(t, 4000)
	exec := newBlockingExec()
	g := NewGateway(exec, Config{ShortSlots: 1, LongSlots: 1, QueueDepth: 8, HighWater: 2})

	errs := make(chan error, 9)
	for i := 0; i < 3; i++ { // 1 running + 2 queued = at high-water
		go func() {
			_, err := g.Submit(context.Background(), fullScan(cat))
			errs <- err
		}()
	}
	waitFor(t, func() bool { return g.totalQueued() == 2 })

	// Normal arrival past high-water is shed with the typed overload error.
	_, err := g.Submit(context.Background(), fullScan(cat))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("overload error %#v lacks a Retry-After hint", err)
	}

	// High-priority arrivals still queue past high-water, up to the hard
	// depth bound (8): six more fill the line.
	for i := 0; i < 6; i++ {
		go func() {
			_, err := g.SubmitOpts(context.Background(), fullScan(cat), High)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return g.state[ClassLong].q.queued() == 8 })

	// At the bound even High arrivals are shed.
	_, err = g.SubmitOpts(context.Background(), fullScan(cat), High)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full high-priority arrival got %v, want ErrOverloaded", err)
	}

	if st := g.Stats(); st.Long.ShedOverload != 2 {
		t.Fatalf("ShedOverload = %d, want 2", st.Long.ShedOverload)
	}
	close(exec.gate)
	for i := 0; i < 9; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued submit failed: %v", err)
		}
	}
}

func TestWouldMissDeadline(t *testing.T) {
	cat := testCatalog(t, 4000)
	g := NewGateway(sleepExec{d: 20 * time.Millisecond}, Config{})

	// No service evidence yet: a tight deadline is admitted, not pre-judged.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := g.Submit(ctx, fullScan(cat)); err != nil {
		t.Fatalf("seeding submit: %v", err)
	}

	// Now p95 ≈ 20ms; a 1ms budget is provably unmeetable.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	_, err := g.Submit(ctx2, fullScan(cat))
	if !errors.Is(err, ErrWouldMiss) {
		t.Fatalf("got %v, want ErrWouldMiss", err)
	}
	var wm *WouldMissError
	if !errors.As(err, &wm) || wm.Need <= 0 {
		t.Fatalf("would-miss error %#v lacks the p95 estimate", err)
	}
	if got := g.Stats().Long.ShedWouldMiss; got != 1 {
		t.Fatalf("ShedWouldMiss = %d, want 1", got)
	}
	// A roomy deadline still goes through.
	ctx3, cancel3 := context.WithTimeout(context.Background(), time.Second)
	defer cancel3()
	if _, err := g.Submit(ctx3, fullScan(cat)); err != nil {
		t.Fatalf("roomy-deadline submit: %v", err)
	}
}

// TestCancelWhileQueued is the context-propagation regression: a caller
// canceled while parked in the admission queue must unblock promptly,
// release nothing it doesn't hold, and leave the queue consistent so later
// arrivals still get the slot.
func TestCancelWhileQueued(t *testing.T) {
	cat := testCatalog(t, 4000)
	exec := newBlockingExec()
	g := NewGateway(exec, Config{ShortSlots: 1, LongSlots: 1, QueueDepth: 8, HighWater: 100})

	before := runtime.NumGoroutine()

	holdDone := make(chan error, 1)
	go func() { // occupy the single long slot
		_, err := g.Submit(context.Background(), fullScan(cat))
		holdDone <- err
	}()
	waitFor(t, func() bool { return exec.started.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := g.Submit(ctx, fullScan(cat))
		queuedDone <- err
	}()
	waitFor(t, func() bool { return g.state[ClassLong].q.queued() == 1 })

	cancel()
	select {
	case err := <-queuedDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled-while-queued submit returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled-while-queued submit did not unblock")
	}
	if q := g.state[ClassLong].q.queued(); q != 0 {
		t.Fatalf("queue length %d after cancel, want 0", q)
	}
	if got := g.Stats().Long.CanceledQueued; got != 1 {
		t.Fatalf("CanceledQueued = %d, want 1", got)
	}

	// The slot was never the canceled caller's to lose: releasing the holder
	// must leave it grantable to a fresh arrival.
	close(exec.gate)
	if err := <-holdDone; err != nil {
		t.Fatalf("holder failed: %v", err)
	}
	if _, err := g.Submit(context.Background(), fullScan(cat)); err != nil {
		t.Fatalf("post-cancel submit: %v", err)
	}

	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

func TestStreamDeliversAndPropagatesEmitError(t *testing.T) {
	cat := testCatalog(t, 4000)
	mk := func(n int) []*batch.Batch {
		out := make([]*batch.Batch, n)
		for i := range out {
			out[i] = batch.Of(types.Row{types.NewInt(int64(i))})
		}
		return out
	}

	r := &sliceReader{batches: mk(3)}
	g := NewGateway(&streamExec{r: r}, Config{})
	var got int
	err := g.Stream(context.Background(), fullScan(cat), func(b *batch.Batch) error {
		got += b.Len()
		return nil
	})
	if err != nil || got != 3 {
		t.Fatalf("stream delivered %d rows, err=%v; want 3, nil", got, err)
	}
	if !r.closed {
		t.Fatal("reader not closed after EOF")
	}

	// A failing emit (e.g. disconnected client write) aborts the stream and
	// closes the reader.
	boom := errors.New("client went away")
	r2 := &sliceReader{batches: mk(3)}
	g2 := NewGateway(&streamExec{r: r2}, Config{})
	err = g2.Stream(context.Background(), fullScan(cat), func(*batch.Batch) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if !r2.closed {
		t.Fatal("reader not closed after emit failure")
	}
	st := g2.Stats()
	if st.Long.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Long.Failed)
	}
}

func TestStatsAccounting(t *testing.T) {
	cat := testCatalog(t, 4000)
	g := NewGateway(sleepExec{d: 2 * time.Millisecond}, Config{ShortSlots: 2, LongSlots: 2})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			root := fullScan(cat)
			if i%2 == 0 {
				root = narrowScan(cat)
			}
			if _, err := g.Submit(context.Background(), root); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	wg.Wait()

	st := g.Stats()
	for _, cs := range []ClassStats{st.Short, st.Long} {
		if cs.Arrived != 4 || cs.Admitted != 4 || cs.Completed != 4 {
			t.Fatalf("%s: arrived/admitted/completed = %d/%d/%d, want 4/4/4",
				cs.Class, cs.Arrived, cs.Admitted, cs.Completed)
		}
		if cs.ServiceP50 <= 0 {
			t.Fatalf("%s: service p50 not recorded", cs.Class)
		}
		if cs.NsSweep <= 0 {
			t.Fatalf("%s: sweep time not recorded", cs.Class)
		}
		if cs.DrainPerSec <= 0 {
			t.Fatalf("%s: drain rate not derived", cs.Class)
		}
		if cs.Queued != 0 || cs.Running != 0 {
			t.Fatalf("%s: gauges not drained: queued=%d running=%d",
				cs.Class, cs.Queued, cs.Running)
		}
	}
	if st.TotalQueued != 0 {
		t.Fatalf("TotalQueued = %d after drain", st.TotalQueued)
	}
}

// TestGatewayWithRealEngine runs real plans end to end through the gateway.
func TestGatewayWithRealEngine(t *testing.T) {
	cat := testCatalog(t, 4000)
	e := engine.New(cat, engine.Config{})
	g := NewGateway(e, Config{Pool: cat.Pool()})
	if st := g.Stats(); st.PoolPages != cat.Pool().Size() || st.PoolFrames != 0 {
		t.Fatalf("before any fetch: pool_pages = %d, pool_frames = %d, want %d and 0",
			st.PoolPages, st.PoolFrames, cat.Pool().Size())
	}

	res, err := g.Submit(context.Background(), narrowScan(cat))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 { // k BETWEEN 0 AND 10 inclusive
		t.Fatalf("narrow scan returned %d rows, want 11", len(res.Rows))
	}

	var rows int
	err = g.Stream(context.Background(), fullScan(cat), func(b *batch.Batch) error {
		rows += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 4000 {
		t.Fatalf("streamed %d rows, want 4000", rows)
	}
	// The full scan touched every page once: the pool holds that many
	// frames, not its capacity.
	pages := cat.MustTable("facts").File.NumPages()
	if st := g.Stats(); st.PoolFrames != pages || st.PoolFrames >= st.PoolPages {
		t.Fatalf("after a full scan of %d pages: pool_frames = %d of pool_pages = %d",
			pages, st.PoolFrames, st.PoolPages)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
