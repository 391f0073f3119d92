package cjoin

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/dimtab"
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

// subscription is one admitted query and the bitmap slot it owns: the bit
// the workers annotate and probe, the predicates that produce it, and the
// query's delivery state. The package doc names the goroutine that owns
// each field.
type subscription struct {
	q  *plan.StarQuery
	id int // bitmap bit

	factVec expr.VecPred // vectorized fact predicate (nil = every fact row qualifies)
	// prune is the page-level can-match check (nil = every page): the
	// query's zone skip, and its blast radius on a quarantined page.
	prune expr.PruneCheck

	// Per-operator-dimension admission plan: dimRef[d] reports whether the
	// query references dimension d; dimKeep[d] holds the entries its
	// predicate on d selects (nil = every entry), evaluated once at
	// admission (Operator.selectDim). The slot's entry bits are set, and on
	// the id's reuse cleared, on exactly these entries.
	dimRef  []bool
	dimKeep []*dimtab.Keep

	// Precomputed distributor route: output width and flat column map,
	// derived once at subscription time instead of per routed tuple.
	outWidth int
	route    []routeCol

	pagesLeft int // fact pages remaining in this query's sweep

	// deadline is the query's context deadline (zero = none); the scanner
	// retires past-deadline queries between pages through the epoch
	// protocol, so a stuck or slow consumer never holds its slot beyond its
	// budget.
	deadline time.Time

	out      chan *batch.Batch
	cancelCh chan struct{}
	canceled atomic.Bool
	err      error // set before out is closed

	// failed is the first panic of one of the query's predicates or its
	// zone check, promoted to err at retirement.
	failed atomic.Pointer[PanicError]

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

// fail marks the query failed with its first panic. Safe from any pipeline
// goroutine: the cause is stored before the canceled flag it is observed
// through, and the scanner retires the query on its next tick.
func (s *subscription) fail(r any) {
	s.failed.CompareAndSwap(nil, &PanicError{Recovered: r})
	s.canceled.Store(true)
}

// cause is the panic the query retires with; nil when none of its
// predicates failed.
func (s *subscription) cause() error {
	if pe := s.failed.Load(); pe != nil {
		return pe
	}
	return nil
}

// contain is deferred around every call of a compiled predicate: it turns a
// panic into a typed failure of the query the predicate belongs to, so the
// process and every other query survive. The call returns its zero result.
func (op *Operator) contain(s *subscription) {
	if r := recover(); r != nil {
		op.stats.panicFailures.Add(1)
		s.fail(r)
	}
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
// precomputes everything the pipeline needs per tuple: the compiled fact
// predicate and zone check of the query's slot, the dimensions it
// references, and the distributor's output row layout.
func (op *Operator) newSubscription(q *plan.StarQuery) (*subscription, error) {
	if q.Fact != op.fact {
		return nil, fmt.Errorf("cjoin: query fact table %q does not match GQP fact table %q",
			q.Fact.Name, op.fact.Name)
	}
	sub := &subscription{
		q:        q,
		dimRef:   make([]bool, len(op.specs)),
		dimKeep:  make([]*dimtab.Keep, len(op.specs)),
		out:      make(chan *batch.Batch, outBuffer),
		cancelCh: make(chan struct{}),
	}
	dimIdx := make([]int, len(q.Dims))
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
		dimIdx[i] = idx
		sub.dimRef[idx] = true
	}
	if q.FactPred != nil {
		sub.factVec = expr.CompileVec(q.FactPred)
		if !op.cfg.NoPrune {
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
			sub.route = append(sub.route, routeCol{dim: dimIdx[i], col: c})
		}
	}
	return sub, nil
}

// admit places sub in the plan at the scanner's current position: it makes
// the query's dimension selections, opens its bitmap slot and sets the
// slot's entry bits, and returns its admission message. Setting the bits
// before the admission tick is safe: no tuple carries the slot's bit until
// a page dealt after the tick. The query joins the active list and the
// registry of open queries.
func (s *scanner) admit(sub *subscription) ctlMsg {
	t0 := time.Now()
	for _, t := range s.op.tables {
		s.op.selectDim(sub, t, &s.scr)
	}
	if sub.failed.Load() != nil {
		s.scr = vec.Scratch{} // the panic skipped the selection's Drops
	}
	sub.id = s.slotID()
	for _, t := range s.op.tables {
		t.writeBits(sub, true)
	}
	s.op.addBusy(time.Since(t0))
	sub.pagesLeft = s.npages
	s.active = append(s.active, sub)
	s.op.openMu.Lock()
	s.op.open[sub] = struct{}{}
	s.op.openMu.Unlock()
	s.op.stats.admitted.Add(1)
	return ctlMsg{kind: ctlAdmit, sub: sub}
}

// selectDim sets sub's Keep of dimension t to the entries its predicates on
// t select, evaluated once (nil without a predicate). A query that names t
// more than once keeps the entries all its predicates on t hold for: every
// one of its joins with t reaches the same entry of a fact tuple. A panic
// fails the query and leaves its Keep nil; annotate never sets a failed
// query's bit, and the query retires on the scanner's next tick. scr holds
// the selection's temporaries.
func (op *Operator) selectDim(sub *subscription, t *dimTable, scr *vec.Scratch) {
	defer op.contain(sub)
	var preds []expr.Expr
	for _, d := range sub.q.Dims {
		if d.Pred != nil && op.byName[d.Table.Name] == t.idx {
			preds = append(preds, d.Pred)
		}
	}
	if len(preds) > 0 {
		sub.dimKeep[t.idx], _ = t.tab.Select(expr.CompileVec(expr.NewAnd(preds...)), scr)
	}
}
