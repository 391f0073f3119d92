// Package service is the overload-safe front door to the query engine: an
// admission-controlled gateway that classifies arriving plans into latency
// classes (plan fingerprint + zone-map selectivity estimate), queues them in
// bounded per-class FIFOs with separate concurrency limits, sheds load past
// high-water with typed errors and Retry-After hints, rejects queries whose
// deadline provably cannot cover their class's p95 service time, and accounts
// for where every query spends its time (queued → admitted → sweeping →
// delivering).
//
// The paper's sharing machinery (CJOIN, simultaneous pipelining) makes
// *execution* survive high concurrency; this tier makes *admission* survive
// it, so offered load past capacity degrades goodput proportionally instead
// of collapsing into unbounded queueing.
package service

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/batch"
	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Priority orders arrivals for shedding purposes only (it never reorders the
// FIFO): past high-water, Normal arrivals are shed while High arrivals still
// queue until the hard depth bound.
type Priority int

const (
	// Normal arrivals are shed first under backpressure.
	Normal Priority = iota
	// High arrivals queue past the high-water mark, up to the hard bound.
	High
)

// Executor runs classified plans. *engine.Engine satisfies it; tests inject
// fakes to hold slots open deterministically.
type Executor interface {
	Execute(ctx context.Context, root plan.Node) (*engine.Result, error)
	Stream(ctx context.Context, root plan.Node) (engine.Reader, error)
}

// Config sizes the gateway.
type Config struct {
	// ShortSlots and LongSlots are per-class concurrency limits.
	ShortSlots int // default 4
	LongSlots  int // default 2

	// QueueDepth is the hard per-class bound on parked arrivals; at the
	// bound every arrival is shed regardless of priority. Default 64.
	QueueDepth int

	// HighWater is the total queued count (across classes) past which Normal
	// arrivals are shed. Default QueueDepth/2.
	HighWater int

	// ShortPageFrac is the zone-map page-coverage threshold at or below
	// which a query is classified short. Default 0.3.
	ShortPageFrac float64

	// SampleZonePages bounds how many pages the classifier samples per
	// estimate. Default 64; <0 samples every page.
	SampleZonePages int

	// CJoin and Pool, when set, contribute their counters to Stats.
	CJoin *cjoin.Operator
	Pool  *storage.BufferPool
}

func (c Config) withDefaults() Config {
	if c.ShortSlots <= 0 {
		c.ShortSlots = 4
	}
	if c.LongSlots <= 0 {
		c.LongSlots = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.HighWater <= 0 {
		c.HighWater = c.QueueDepth / 2
		if c.HighWater < 1 {
			c.HighWater = 1
		}
	}
	if c.ShortPageFrac <= 0 {
		c.ShortPageFrac = 0.3
	}
	if c.SampleZonePages == 0 {
		c.SampleZonePages = 64
	}
	return c
}

// classState is one latency class's queue, estimators, and counters.
type classState struct {
	slots int
	q     *classQueue

	wait    latRing // queued → admitted
	service latRing // admitted → done (Submit) or admitted → EOF (Stream)

	arrived        atomic.Int64
	admitted       atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	shedOverload   atomic.Int64
	shedWouldMiss  atomic.Int64
	canceledQueued atomic.Int64

	nsQueued  atomic.Int64 // cumulative queue-wait
	nsSweep   atomic.Int64 // admitted → first batch (Stream) / completion (Submit)
	nsDeliver atomic.Int64 // first batch → EOF (Stream only)
}

// Gateway is the admission-controlled query service tier. Queries execute on
// the caller's goroutine once admitted, so context cancellation and streaming
// delivery need no hand-off machinery; the gateway only decides *when* (and
// whether) the caller may proceed.
type Gateway struct {
	cfg   Config
	exec  Executor
	cls   *classifier
	state [numClasses]*classState
	start time.Time
}

// NewGateway wraps exec in an admission-controlled gateway.
func NewGateway(exec Executor, cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:   cfg,
		exec:  exec,
		cls:   newClassifier(cfg.ShortPageFrac, cfg.SampleZonePages),
		start: time.Now(),
	}
	g.state[ClassShort] = &classState{slots: cfg.ShortSlots,
		q: newClassQueue(cfg.ShortSlots, cfg.QueueDepth)}
	g.state[ClassLong] = &classState{slots: cfg.LongSlots,
		q: newClassQueue(cfg.LongSlots, cfg.QueueDepth)}
	return g
}

// Classify reports the latency class and estimated page-coverage fraction the
// gateway would assign to root.
func (g *Gateway) Classify(root plan.Node) (Class, float64) {
	return g.cls.classify(root)
}

// totalQueued is the queue length summed across classes (the high-water
// shedding signal).
func (g *Gateway) totalQueued() int {
	n := 0
	for _, s := range g.state {
		n += s.q.queued()
	}
	return n
}

// retryAfter derives the backoff hint from the class's observed drain rate:
// queued work divided by slot throughput. Before any completion there is no
// drain evidence, so a fixed 100ms hint stands in.
func (g *Gateway) retryAfter(s *classState) time.Duration {
	mean := s.service.meanEstimate()
	if mean <= 0 {
		return 100 * time.Millisecond
	}
	queued := s.q.queued()
	if queued < 1 {
		queued = 1
	}
	return time.Duration(queued) * mean / time.Duration(s.slots)
}

// admit classifies root and blocks until an execution slot is granted (or
// sheds/rejects). On nil error the caller holds a slot and MUST call
// g.finish for the same class exactly once.
func (g *Gateway) admit(ctx context.Context, root plan.Node, pri Priority) (Class, error) {
	class, _ := g.cls.classify(root)
	s := g.state[class]
	s.arrived.Add(1)

	// Backpressure: past high-water, Normal arrivals are shed immediately
	// while queued and in-flight work (and High arrivals) proceed.
	if pri != High && g.totalQueued() >= g.cfg.HighWater {
		s.shedOverload.Add(1)
		return class, &OverloadError{Class: class, Queued: s.q.queued(),
			RetryAfter: g.retryAfter(s)}
	}

	// Deadline-aware admission: reject now if the remaining budget provably
	// cannot cover the class's observed p95 service time. p95 is zero until
	// the first completion, which disables the check until evidence exists.
	if dl, ok := ctx.Deadline(); ok {
		if need := s.service.p95Estimate(); need > 0 {
			if remaining := time.Until(dl); remaining < need {
				s.shedWouldMiss.Add(1)
				return class, &WouldMissError{Class: class,
					Remaining: remaining, Need: need}
			}
		}
	}

	enq := time.Now()
	if err := s.q.acquire(ctx); err != nil {
		if err == errQueueFull {
			s.shedOverload.Add(1)
			return class, &OverloadError{Class: class, Queued: s.q.queued(),
				RetryAfter: g.retryAfter(s)}
		}
		s.canceledQueued.Add(1)
		return class, err
	}
	waited := time.Since(enq)
	s.wait.add(waited)
	s.nsQueued.Add(int64(waited))

	// Re-check the deadline after the queue wait: time spent parked may have
	// consumed the budget that looked sufficient at arrival.
	if dl, ok := ctx.Deadline(); ok {
		if need := s.service.p95Estimate(); need > 0 {
			if remaining := time.Until(dl); remaining < need {
				s.q.release()
				s.shedWouldMiss.Add(1)
				return class, &WouldMissError{Class: class,
					Remaining: remaining, Need: need}
			}
		}
	}
	s.admitted.Add(1)
	return class, nil
}

// finish releases the slot and records the service outcome.
func (g *Gateway) finish(class Class, started time.Time, firstBatch time.Time, err error) {
	s := g.state[class]
	s.q.release()
	took := time.Since(started)
	s.service.add(took)
	if firstBatch.IsZero() {
		s.nsSweep.Add(int64(took))
	} else {
		s.nsSweep.Add(int64(firstBatch.Sub(started)))
		s.nsDeliver.Add(int64(time.Since(firstBatch)))
	}
	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
}

// Submit admits root under Normal priority and runs it to completion,
// materializing the result. The query executes on the caller's goroutine;
// ctx cancellation is honored both while queued and while running.
func (g *Gateway) Submit(ctx context.Context, root plan.Node) (*engine.Result, error) {
	return g.SubmitOpts(ctx, root, Normal)
}

// SubmitOpts is Submit with an explicit shedding priority.
func (g *Gateway) SubmitOpts(ctx context.Context, root plan.Node, pri Priority) (*engine.Result, error) {
	class, err := g.admit(ctx, root, pri)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	res, err := g.exec.Execute(ctx, root)
	g.finish(class, started, time.Time{}, err)
	return res, err
}

// Stream admits root under Normal priority and invokes emit for every result
// batch as it is produced, without buffering the full result. emit owns each
// batch only for the duration of the call (the gateway calls Done after emit
// returns); a non-nil emit error cancels the query. ctx cancellation — e.g. a
// disconnected HTTP client — is honored while queued, while sweeping, and
// between batches.
func (g *Gateway) Stream(ctx context.Context, root plan.Node, emit func(*batch.Batch) error) error {
	return g.StreamOpts(ctx, root, Normal, emit)
}

// StreamOpts is Stream with an explicit shedding priority.
func (g *Gateway) StreamOpts(ctx context.Context, root plan.Node, pri Priority, emit func(*batch.Batch) error) error {
	class, err := g.admit(ctx, root, pri)
	if err != nil {
		return err
	}
	started := time.Now()
	var firstBatch time.Time
	err = func() error {
		r, err := g.exec.Stream(ctx, root)
		if err != nil {
			return err
		}
		defer r.Close()
		for {
			b, err := r.Next(ctx)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if firstBatch.IsZero() {
				firstBatch = time.Now()
			}
			emitErr := emit(b)
			b.Done()
			if emitErr != nil {
				return emitErr
			}
		}
	}()
	g.finish(class, started, firstBatch, err)
	return err
}

// ---------------------------------------------------------------------------
// Stats

// ClassStats snapshots one latency class.
type ClassStats struct {
	Class string `json:"class"`

	// Gauges.
	Slots   int `json:"slots"`
	Queued  int `json:"queued"`
	Running int `json:"running"`

	// Arrival outcomes.
	Arrived        int64 `json:"arrived"`
	Admitted       int64 `json:"admitted"`
	Completed      int64 `json:"completed"`
	Failed         int64 `json:"failed"`
	ShedOverload   int64 `json:"shed_overload"`
	ShedWouldMiss  int64 `json:"shed_would_miss"`
	CanceledQueued int64 `json:"canceled_queued"`

	// Queue-wait and service-time quantiles over the observation window.
	WaitP50    time.Duration `json:"wait_p50_ns"`
	WaitP95    time.Duration `json:"wait_p95_ns"`
	WaitP99    time.Duration `json:"wait_p99_ns"`
	ServiceP50 time.Duration `json:"service_p50_ns"`
	ServiceP95 time.Duration `json:"service_p95_ns"`
	ServiceP99 time.Duration `json:"service_p99_ns"`

	// Cumulative wait-state time: queued → admitted → sweeping → delivering.
	NsQueued  int64 `json:"ns_queued"`
	NsSweep   int64 `json:"ns_sweep"`
	NsDeliver int64 `json:"ns_deliver"`

	// DrainPerSec is the estimated class drain rate (slots / mean service
	// time), the basis of the Retry-After hint.
	DrainPerSec float64 `json:"drain_per_sec"`
}

// Stats snapshots the gateway plus the engine-side counters it fronts.
type Stats struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Short         ClassStats           `json:"short"`
	Long          ClassStats           `json:"long"`
	TotalQueued   int                  `json:"total_queued"`
	HighWater     int                  `json:"high_water"`
	QueueDepth    int                  `json:"queue_depth"`
	Batches       vec.PoolSnapshot     `json:"batches"`
	Arena         arena.Stats          `json:"arena"` // buffer memory: no byte is in both this and Batches
	Engine        *engine.EngineStats  `json:"engine,omitempty"`
	CJoin         *cjoin.Stats         `json:"cjoin,omitempty"`
	Storage       *storage.DecodeStats `json:"storage,omitempty"`
	// PoolPages is the buffer pool's capacity and PoolFrames how many of its
	// frames (PageSize bytes each) have been materialised so far.
	PoolPages  int `json:"pool_pages,omitempty"`
	PoolFrames int `json:"pool_frames,omitempty"`
}

// snapshotClass renders one class's counters.
func (g *Gateway) snapshotClass(class Class) ClassStats {
	s := g.state[class]
	out := ClassStats{
		Class:          class.String(),
		Slots:          s.slots,
		Queued:         s.q.queued(),
		Running:        s.q.running(s.slots),
		Arrived:        s.arrived.Load(),
		Admitted:       s.admitted.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		ShedOverload:   s.shedOverload.Load(),
		ShedWouldMiss:  s.shedWouldMiss.Load(),
		CanceledQueued: s.canceledQueued.Load(),
		NsQueued:       s.nsQueued.Load(),
		NsSweep:        s.nsSweep.Load(),
		NsDeliver:      s.nsDeliver.Load(),
	}
	out.WaitP50, out.WaitP95, out.WaitP99 = s.wait.quantiles()
	out.ServiceP50, out.ServiceP95, out.ServiceP99 = s.service.quantiles()
	if mean := s.service.meanEstimate(); mean > 0 {
		out.DrainPerSec = float64(s.slots) / mean.Seconds()
	}
	return out
}

// Stats snapshots every gateway counter, plus engine, CJOIN, and buffer-pool
// counters when their sources are wired in. The snapshot is internally
// consistent per counter, not across counters (each is read atomically).
func (g *Gateway) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(g.start).Seconds(),
		Short:         g.snapshotClass(ClassShort),
		Long:          g.snapshotClass(ClassLong),
		TotalQueued:   g.totalQueued(),
		HighWater:     g.cfg.HighWater,
		QueueDepth:    g.cfg.QueueDepth,
		Batches:       vec.PoolStats(),
		Arena:         arena.Snapshot(),
	}
	if e, ok := g.exec.(*engine.Engine); ok {
		es := e.Stats()
		st.Engine = &es
	}
	if g.cfg.CJoin != nil {
		cs := g.cfg.CJoin.Stats()
		st.CJoin = &cs
	}
	if g.cfg.Pool != nil {
		ds := g.cfg.Pool.DecodeStats()
		st.Storage = &ds
		st.PoolPages = g.cfg.Pool.Size()
		st.PoolFrames = g.cfg.Pool.Stats().Frames
	}
	return st
}
