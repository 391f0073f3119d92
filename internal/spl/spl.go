// Package spl implements the Shared Pages List, the data structure that
// turns Simultaneous Pipelining from push-based to pull-based (§3 of the
// paper, introduced in the authors' VLDB 2013 work).
//
// In the push-based model the single producer copies every result page into
// every satellite's own buffer — a serialization point whose cost grows with
// the number of consumers. The SPL instead lets the producer append each
// immutable page exactly once; consumers pull at their own pace with only a
// short critical section, so adding consumers adds no work to the producer.
// The engine uses the List as its only exchange buffer: a push-SP packet or
// a private edge gives each consumer a List of its own, a pull-SP packet
// shares one List among all of them.
//
// Pages are released once every attached consumer has read past them
// (watermark reclamation), and the producer blocks when the list holds its
// depth of unreclaimed pages (New's maxPages), which bounds memory and
// provides backpressure. The depth bounds memory only: a consumer can attach
// while page 0 is unreclaimed, so the sharing window is how long the slowest
// attached reader stays at page 0, whatever the depth.
//
// Above the CJOIN global plan, the SPL is how deliveries are shared. SP on
// the CJOIN stage shares *identical* star sub-plans: one admission,
// satellites pulling the host packet's joined tuples through an SPL.
// Inside the operator (internal/cjoin) every admitted query owns a bitmap
// slot of its own, so queries share the scan and the probes there but
// never a delivery.
package spl

import (
	"errors"
	"io"
	"sync"

	"repro/internal/batch"
)

// ErrNoConsumers is returned by Append when every consumer has detached:
// the producer's work has no audience and it should abort.
var ErrNoConsumers = errors.New("spl: all consumers detached")

// ErrTooLate is returned by NewReader when early pages have already been
// reclaimed, so a late-attaching consumer could no longer observe the full
// stream. The SP registry treats this as a closed sharing window.
var ErrTooLate = errors.New("spl: early pages already reclaimed")

// List is a single-producer, multi-consumer shared pages list.
type List struct {
	mu   sync.Mutex
	cond *sync.Cond

	pages    []*batch.Batch // pages[i] is logical page base+i
	base     int            // logical index of pages[0]
	appended int            // total pages ever appended
	maxPages int

	closed   bool
	err      error
	readers  map[*Reader]struct{}
	attached int // total readers ever attached
}

// New creates a list that holds at most maxPages unreclaimed pages; the
// engine passes its one exchange depth. A maxPages below 1 selects 64 pages,
// the depth the benchmark module's SPL phase measures through New(0).
func New(maxPages int) *List {
	if maxPages < 1 {
		maxPages = 64
	}
	l := &List{maxPages: maxPages, readers: make(map[*Reader]struct{})}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Reader is one consumer's cursor into the list.
type Reader struct {
	list      *List
	next      int // logical index of the next page to read
	closed    bool
	cancelErr error // set by Cancel; delivered by the next (or blocked) Next
}

// NewReader attaches a consumer that will observe the stream from the first
// page. It fails with ErrTooLate once page 0 has been reclaimed (i.e. when
// some consumer has already made progress and memory was released).
func (l *List) NewReader() (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.base > 0 {
		return nil, ErrTooLate
	}
	r := &Reader{list: l}
	l.readers[r] = struct{}{}
	l.attached++
	return r, nil
}

// Append publishes a page to all consumers. The page must not be modified
// afterwards. Append blocks while maxPages unreclaimed pages are pending;
// it returns ErrNoConsumers when every consumer has detached.
//
// The list inherits the producer's batch reference: each consumer takes its
// own reference as it pulls the page (Next), and the list drops its
// reference when watermark reclamation retires the page. On error the
// producer's reference is released — the batch was not published.
func (l *List) Append(b *batch.Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			b.Done()
			return errors.New("spl: append after close")
		}
		if l.attached > 0 && len(l.readers) == 0 {
			b.Done()
			return ErrNoConsumers
		}
		if len(l.pages) < l.maxPages {
			break
		}
		l.cond.Wait()
	}
	l.pages = append(l.pages, b)
	l.appended++
	l.cond.Broadcast()
	return nil
}

// Close ends the stream. A nil err is a normal end-of-stream; a non-nil err
// is delivered to every consumer in place of further pages.
func (l *List) Close(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.err = err
	l.cond.Broadcast()
}

// Retained returns the number of unreclaimed pages (testing/metrics).
func (l *List) Retained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pages)
}

// Readers returns the number of currently attached consumers.
func (l *List) Readers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.readers)
}

// reclaimLocked drops pages every attached reader has consumed and wakes a
// blocked producer.
func (l *List) reclaimLocked() {
	min := l.appended
	for r := range l.readers {
		if r.next < min {
			min = r.next
		}
	}
	if min > l.base {
		drop := min - l.base
		// Drop the list's batch reference and clear the slot so the batches
		// can be collected even while the slice header is reused.
		for i := 0; i < drop; i++ {
			l.pages[i].Done()
			l.pages[i] = nil
		}
		l.pages = l.pages[drop:]
		l.base = min
		l.cond.Broadcast()
	}
}

// Next returns the consumer's next page. It blocks until a page is
// available, the stream ends (io.EOF), the producer failed (its error), or
// this reader is canceled (its Cancel error).
func (r *Reader) Next() (*batch.Batch, error) {
	l := r.list
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if r.closed {
			return nil, errors.New("spl: read after reader close")
		}
		if r.cancelErr != nil {
			return nil, r.cancelErr
		}
		if l.err != nil {
			return nil, l.err
		}
		if r.next < l.appended {
			b := l.pages[r.next-l.base]
			// The reader's own reference: it may process the page after
			// advancing past it (which can reclaim the list's reference).
			b.Retain()
			r.next++
			l.reclaimLocked()
			return b, nil
		}
		if l.closed {
			return nil, io.EOF
		}
		l.cond.Wait()
	}
}

// Cancel unblocks this consumer: a blocked (or any later) Next returns err.
// Only this reader is affected — the producer and every other consumer keep
// streaming, which is what makes one abandoned or past-deadline query's
// cancellation invisible to the queries sharing its packet. A nil err
// cancels with io.EOF.
func (r *Reader) Cancel(err error) {
	if err == nil {
		err = io.EOF
	}
	l := r.list
	l.mu.Lock()
	if r.cancelErr == nil && !r.closed {
		r.cancelErr = err
	}
	l.mu.Unlock()
	// Broadcast wakes every waiter; only this reader observes cancelErr.
	l.cond.Broadcast()
}

// Close detaches the consumer. Remaining pages are reclaimed as if the
// consumer had read them; if it was the last consumer the producer's next
// Append fails with ErrNoConsumers.
func (r *Reader) Close() {
	l := r.list
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	delete(l.readers, r)
	l.reclaimLocked()
	l.cond.Broadcast()
}
