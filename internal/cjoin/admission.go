package cjoin

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vec"
)

// routeCol is one precomputed output column of a subscription: a fact column
// (dim == -1) or a payload column of the joined dimension row.
type routeCol struct {
	dim int // operator dimension index, or -1 for the fact row
	col int
}

// subscription is one admitted query. The package doc names the goroutine
// that owns each field.
type subscription struct {
	q       *plan.StarQuery
	factVec expr.VecPred    // vectorized fact predicate (nil = every fact row qualifies)
	prune   expr.PruneCheck // page-level can-match check (nil = every page)
	dimIdx  []int           // operator dim index per q.Dims entry

	// Per-operator-dimension admission plan, applied by every worker
	// replica: dimRef[d] reports whether the query references dimension d;
	// dimPredVec[d] is its vectorized dimension predicate (nil = every
	// dimension row qualifies), evaluated over the dimension table's cached
	// column batch at admission time.
	dimRef     []bool
	dimPredVec []expr.VecPred

	// Precomputed distributor route: output width and flat column map,
	// derived once at subscription time instead of per routed tuple.
	outWidth int
	route    []routeCol

	id        int // bitmap slot
	pagesLeft int // fact pages remaining in this query's sweep

	// Fold (predicate-subsumption graft) state. factPredE/dimPredE keep the
	// raw predicate expressions so admission can prove implication
	// (expr.Subsumes) and dimension equality (expr.Equal) against running
	// queries. A grafted query shares its host's bitmap slot: hostSub points
	// at the host, and residual (the vectorized leftover of its fact
	// predicate, nil when the predicates match exactly) is evaluated by the
	// distributor per routed tuple over a one-row selection of the fact
	// page's batch.
	factPredE expr.Expr
	dimPredE  []expr.Expr // per operator dimension; nil = unconstrained

	hostSub  *subscription
	residual expr.VecPred

	// Host side of a fold: grafts are the live grafted readers fed from this
	// query's bits, graftsLeft how many have not finished their sweep;
	// holdBits marks a host finished while grafts still read its bits, and
	// closed a host whose own delivery has ended. Whether a canceled host
	// must keep annotating for live grafts is tracked per worker
	// (worker.held), because only epoch-ordered state is safe to consult
	// against in-flight pages.
	grafts     []*subscription
	graftsLeft int
	finished   bool
	holdBits   bool
	closed     bool

	// deadline is the query's context deadline (zero = none); the scanner
	// retires past-deadline queries between pages through the epoch
	// protocol, so a stuck or slow consumer never holds its bitmap slot
	// beyond its budget.
	deadline time.Time

	out      chan *batch.Batch
	cancelCh chan struct{}
	canceled atomic.Bool
	err      error // set before out is closed

	// Asynchronous failure (a panicking compiled predicate, observed on a
	// worker or the distributor), promoted to err at retirement.
	failOnce  sync.Once
	failCause error

	// Routed tuples are appended column-wise into a pooled ColBatch and
	// delivered as a batch over it, so the engine's grouped aggregation
	// above the CJOIN stage consumes the GQP's output vectorized.
	pendCols *vec.ColBatch
	pendN    int
	// cut records that a delivery was dropped because the operator was
	// closing: a query that lost rows to the shutdown must not retire clean
	// even if its finish tick was already in flight.
	cut bool
}

// fail marks the subscription failed with cause, exactly once. Safe from any
// pipeline goroutine: the cause write happens-before the canceled flag it is
// observed through, and the scanner retires the query on its next tick.
func (s *subscription) fail(cause error) {
	s.failOnce.Do(func() {
		s.failCause = cause
		s.canceled.Store(true)
	})
}

// abandon cancels the query from its consumer's side, then drains its
// output until the pipeline retires it, recycling the undeliverable
// batches.
func (s *subscription) abandon() {
	s.canceled.Store(true)
	close(s.cancelCh)
	for b := range s.out {
		b.Done()
	}
}

// Run admits the star query into the Global Query Plan, streams its joined
// tuples to emit, and returns when the query's circular sweep completes.
// It implements engine.StarRunner.
func (op *Operator) Run(ctx context.Context, q *plan.StarQuery, emit func(*batch.Batch) error) error {
	sub, err := op.newSubscription(q)
	if err != nil {
		return err
	}
	// A context dead on arrival never enters the admission select: the
	// select below would otherwise race a ready admitCh against the closed
	// Done channel and sometimes admit work nobody will consume.
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok {
		// Honored server-side: the scanner retires the query between pages
		// once the deadline passes, whether or not the consumer is reading.
		sub.deadline = dl
	}
	select {
	case op.admitCh <- sub:
	case <-op.closeCh:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	for {
		select {
		case b, ok := <-sub.out:
			if !ok {
				return sub.err
			}
			if err := emit(b); err != nil {
				sub.abandon()
				return err
			}
		case <-ctx.Done():
			sub.abandon()
			return ctx.Err()
		}
	}
}

// newSubscription validates the query against the operator's chain and
// precomputes everything the pipeline needs per tuple: the compiled fact and
// dimension predicates (shared read-only by every worker replica) and the
// distributor's output row layout.
func (op *Operator) newSubscription(q *plan.StarQuery) (*subscription, error) {
	if q.Fact != op.fact {
		return nil, fmt.Errorf("cjoin: query fact table %q does not match GQP fact table %q",
			q.Fact.Name, op.fact.Name)
	}
	sub := &subscription{
		q:          q,
		out:        make(chan *batch.Batch, outBuffer),
		cancelCh:   make(chan struct{}),
		dimIdx:     make([]int, len(q.Dims)),
		dimRef:     make([]bool, len(op.specs)),
		dimPredVec: make([]expr.VecPred, len(op.specs)),
		factPredE:  q.FactPred,
		dimPredE:   make([]expr.Expr, len(op.specs)),
	}
	for i, d := range q.Dims {
		idx, ok := op.byName[d.Table.Name]
		if !ok {
			return nil, fmt.Errorf("cjoin: dimension %q is not part of the GQP chain", d.Table.Name)
		}
		spec := op.specs[idx]
		if spec.FactKeyCol != d.FactKeyCol || spec.DimKeyCol != d.DimKeyCol {
			return nil, fmt.Errorf("cjoin: dimension %q join keys (%d=%d) do not match GQP chain (%d=%d)",
				d.Table.Name, d.FactKeyCol, d.DimKeyCol, spec.FactKeyCol, spec.DimKeyCol)
		}
		sub.dimIdx[i] = idx
		sub.dimRef[idx] = true
		sub.dimPredE[idx] = d.Pred
		if d.Pred != nil {
			sub.dimPredVec[idx] = expr.CompileVec(d.Pred)
		}
	}
	if q.FactPred != nil {
		sub.factVec = expr.CompileVec(q.FactPred)
		if !op.cfg.DisablePrune {
			sub.prune = expr.CompilePrune(q.FactPred)
		}
	}
	sub.outWidth = len(q.FactCols)
	for _, d := range q.Dims {
		sub.outWidth += len(d.PayloadCols)
	}
	sub.route = make([]routeCol, 0, sub.outWidth)
	for _, c := range q.FactCols {
		sub.route = append(sub.route, routeCol{dim: -1, col: c})
	}
	for i, d := range q.Dims {
		for _, c := range d.PayloadCols {
			sub.route = append(sub.route, routeCol{dim: sub.dimIdx[i], col: c})
		}
	}
	return sub, nil
}

// admit places sub in the plan at the scanner's current position and
// returns its admission message. The query grafts onto a running host that
// subsumes it, or takes a bitmap slot of its own; either way it joins the
// active list and the registry of open queries.
func (s *scanner) admit(sub *subscription) ctlMsg {
	if h := s.graftHost(sub); h != nil {
		// Fold: share the host's bitmap slot; the distributor applies the
		// residual predicate per routed tuple. Compiling here is fine —
		// admission is off the per-page hot path.
		sub.hostSub = h
		sub.id = h.id
		if re := expr.Residual(h.factPredE, sub.factPredE); re != nil {
			sub.residual = expr.CompileVec(re)
		}
		h.graftsLeft++
		s.op.stats.grafted.Add(1)
	} else {
		sub.id = s.slot()
	}
	sub.pagesLeft = s.npages
	s.active = append(s.active, sub)
	s.op.openMu.Lock()
	s.op.open[sub] = struct{}{}
	s.op.openMu.Unlock()
	s.op.stats.admitted.Add(1)
	return ctlMsg{kind: ctlAdmit, sub: sub}
}

// graftHost returns a running query that sub can fold onto: an ungrafted,
// uncanceled host over the same dimension set with structurally equal
// dimension predicates whose fact predicate is implied by sub's
// (expr.Subsumes is conservative, so a nil answer only costs a fresh
// bitmap slot, never correctness).
func (s *scanner) graftHost(sub *subscription) *subscription {
	if s.op.cfg.DisableFold {
		return nil
	}
	for _, h := range s.active {
		if h.hostSub != nil || h.canceled.Load() {
			continue
		}
		if !sameDims(h, sub) {
			continue
		}
		if !expr.Subsumes(h.factPredE, sub.factPredE) {
			continue
		}
		return h
	}
	return nil
}

// sameDims reports whether two queries constrain the dimension chain
// identically: same referenced dimensions, structurally equal predicates.
// The shared bitmap already folds in the host's dimension semijoins, so a
// graft is only sound when they coincide exactly.
func sameDims(a, b *subscription) bool {
	for d := range a.dimRef {
		if a.dimRef[d] != b.dimRef[d] || !expr.Equal(a.dimPredE[d], b.dimPredE[d]) {
			return false
		}
	}
	return true
}
