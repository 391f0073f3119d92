package engine

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/spl"
)

// ErrCanceled is returned to a producer when every consumer of its output
// has detached; the producer aborts the rest of its work.
var ErrCanceled = errors.New("engine: all consumers canceled")

// Writer is the producer side of an inter-packet buffer: one producer's
// batches go to every consumer — the same batch to all of them over an SPL,
// a column copy per satellite over push FIFOs.
type Writer interface {
	// Put publishes a batch. The batch must not be modified afterwards. Put
	// consumes the producer's batch reference whether it succeeds or fails
	// (see batch.Batch.Done): on success ownership moves downstream, on
	// error the reference is released.
	Put(ctx context.Context, b *batch.Batch) error
	// Close ends the stream; err != nil propagates the failure to consumers.
	Close(err error)
}

// Reader is the consumer side of an inter-packet buffer.
type Reader interface {
	// Next returns the next batch, io.EOF at a normal end of stream, or the
	// producer's error. The consumer owns one reference on the batch (the
	// original, or a satellite's private column copy) and calls Done on it.
	Next(ctx context.Context) (*batch.Batch, error)
	// Close detaches the consumer; producers with no remaining consumers
	// abort.
	Close()
}

// ---------------------------------------------------------------------------
// FIFO: the page-based exchange buffer of the original push-only QPipe model.

// fifo is a bounded single-producer single-consumer batch queue.
type fifo struct {
	ch   chan *batch.Batch
	done chan struct{} // closed when the consumer detaches

	cancelOnce sync.Once
	err        error // read after ch is closed (happens-before via close)
}

func newFIFO(capacity int) *fifo {
	if capacity <= 0 {
		capacity = 8
	}
	return &fifo{ch: make(chan *batch.Batch, capacity), done: make(chan struct{})}
}

// Put enqueues a batch, failing if the consumer detached or ctx ended. Per
// the Writer contract it consumes the reference either way: on failure the
// batch is released here, so faulted producers cannot leak it.
func (f *fifo) Put(ctx context.Context, b *batch.Batch) error {
	select {
	case f.ch <- b:
		return nil
	case <-f.done:
		b.Done()
		return ErrCanceled
	case <-ctx.Done():
		b.Done()
		return ctx.Err()
	}
}

// closeProducer ends the stream from the producer side. If the consumer has
// already detached, nobody will ever read the queued batches, so their
// references are released here (the channel is closed first, so the drain
// terminates).
func (f *fifo) closeProducer(err error) {
	f.err = err
	close(f.ch)
	select {
	case <-f.done:
		for b := range f.ch {
			b.Done()
		}
	default:
	}
}

// Next dequeues the next batch.
func (f *fifo) Next(ctx context.Context) (*batch.Batch, error) {
	select {
	case b, ok := <-f.ch:
		if !ok {
			if f.err != nil {
				return nil, f.err
			}
			return nil, io.EOF
		}
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close detaches the consumer, releasing whatever is queued: those batches
// will never be read. A Put racing the detach can still enqueue once more
// (the buffered send and the done case are both ready); closeProducer
// sweeps such stragglers when the producer aborts.
func (f *fifo) Close() {
	f.cancelOnce.Do(func() {
		close(f.done)
		for {
			select {
			case b, ok := <-f.ch:
				if !ok {
					return
				}
				b.Done()
			default:
				return
			}
		}
	})
}

// ---------------------------------------------------------------------------
// multiFIFO: push-based SP. One producer copies every batch into every
// satellite's FIFO — the serialization point Scenario I demonstrates.

type multiFIFO struct {
	capacity int

	mu       sync.Mutex
	outs     []*fifo
	closed   bool
	closeErr error

	// copies counts the batch copies made for satellites; it points at the
	// owning stage's counter.
	copies *atomic.Int64
}

func newMultiFIFO(capacity int, copies *atomic.Int64) *multiFIFO {
	return &multiFIFO{capacity: capacity, copies: copies}
}

// addConsumer creates and registers a new consumer FIFO. A consumer added
// after Close (possible when a satellite races packet completion on an
// empty result) observes the final stream state immediately.
func (m *multiFIFO) addConsumer() *fifo {
	f := newFIFO(m.capacity)
	m.mu.Lock()
	closed, err := m.closed, m.closeErr
	if !closed {
		m.outs = append(m.outs, f)
	}
	m.mu.Unlock()
	if closed {
		f.closeProducer(err)
	}
	return f
}

// Put forwards the batch to every live consumer. The first consumer receives
// the original; each satellite receives a column copy (batch.Clone: a pooled
// ColBatch sharing no array with the original), made serially by the
// producer — this loop is the push-model bottleneck.
func (m *multiFIFO) Put(ctx context.Context, b *batch.Batch) error {
	m.mu.Lock()
	outs := make([]*fifo, len(m.outs))
	copy(outs, m.outs)
	m.mu.Unlock()

	// Hold the batch across the loop: the first consumer may process (and
	// Done) the original while we are still cloning it for satellites.
	b.Retain()
	defer b.Done()

	alive := 0
	handed := false // the original's reference was handed to a fifo.Put
	var failure error
	for i, f := range outs {
		out := b
		if i > 0 {
			out = b.Clone()
			m.copies.Add(1)
		} else {
			handed = true
		}
		// fifo.Put consumes out's reference whether it succeeds or fails.
		if err := f.Put(ctx, out); err != nil {
			if err == ErrCanceled {
				continue // this consumer detached; keep serving the others
			}
			failure = err
			break
		}
		alive++
	}
	if !handed {
		b.Done() // no consumers: the producer's reference was never transferred
	}
	if failure != nil {
		return failure
	}
	if alive == 0 {
		return ErrCanceled
	}
	return nil
}

// Close ends the stream for every consumer.
func (m *multiFIFO) Close(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.closeErr = err
	outs := make([]*fifo, len(m.outs))
	copy(outs, m.outs)
	m.mu.Unlock()
	for _, f := range outs {
		f.closeProducer(err)
	}
}

// ---------------------------------------------------------------------------
// SPL adapters: pull-based SP. The producer appends once; consumers share
// the immutable pages.

type splWriter struct {
	list *spl.List
}

// Put appends the batch to the shared pages list. spl.List.Append releases
// the producer's reference itself on failure.
func (w splWriter) Put(ctx context.Context, b *batch.Batch) error {
	if err := ctx.Err(); err != nil {
		b.Done()
		return err
	}
	if err := w.list.Append(b); err != nil {
		if err == spl.ErrNoConsumers {
			return ErrCanceled
		}
		return err
	}
	return nil
}

// Close ends the stream.
func (w splWriter) Close(err error) { w.list.Close(err) }

type splReader struct {
	r *spl.Reader

	// Reader-side cancellation: the first Next arms a context.AfterFunc
	// that cancels THIS reader only (spl.Reader.Cancel), so an abandoned
	// or past-deadline consumer unblocks immediately without touching the
	// producer or the other consumers of the shared list. Arming once
	// keeps the steady-state Next allocation-free.
	armed bool
	stop  func() bool
}

// Next pulls the consumer's next shared page.
func (r *splReader) Next(ctx context.Context) (*batch.Batch, error) {
	if !r.armed {
		r.armed = true
		if ctx.Done() != nil {
			r.stop = context.AfterFunc(ctx, func() { r.r.Cancel(ctx.Err()) })
		}
	}
	return r.r.Next()
}

// Close detaches the consumer.
func (r *splReader) Close() {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
	r.r.Close()
}
