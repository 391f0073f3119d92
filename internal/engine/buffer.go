package engine

// The exchange between packets is one buffer type, the Shared Pages List
// (internal/spl). A packet's producer appends to its lists and each consumer
// pulls from one with its own cursor; the list bounds the pages it holds,
// which is the backpressure, and reclaims a page once every reader passed it.
// The sharing model only decides how many lists a packet has: one shared
// list under pull SP, one list per consumer otherwise (see Packet).

import (
	"context"
	"errors"

	"repro/internal/batch"
	"repro/internal/spl"
)

// ErrCanceled is returned to a producer when every consumer of its output
// has detached; the producer aborts the rest of its work.
var ErrCanceled = errors.New("engine: all consumers canceled")

// Writer is the producer side of an inter-packet buffer: one producer's
// batches go to every consumer — the same batch to all of them over a shared
// list, a column copy per satellite under push SP.
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

// packetWriter is the producer endpoint of a packet: it closes the push
// sharing window at the first emission and appends to the packet's lists.
type packetWriter struct{ p *Packet }

// Put appends the batch to every list whose consumer is still attached: the
// original to the first list, a column copy (batch.Clone: a pooled ColBatch
// sharing no array with the original) to each other one. Only push SP has
// other lists, and the serial copy loop is its bottleneck.
func (w packetWriter) Put(ctx context.Context, b *batch.Batch) error {
	p := w.p
	p.mu.Lock()
	p.emitted = true
	lists := p.lists // no list is added once a batch was emitted
	p.mu.Unlock()
	if err := ctx.Err(); err != nil {
		b.Done()
		return err
	}
	if len(lists) > 1 {
		// Hold the batch across the loop: the first consumer may process
		// (and Done) the original while it is still being cloned.
		b.Retain()
		defer b.Done()
	}
	served := 0
	for i, l := range lists {
		out := b
		if i > 0 {
			if l.Readers() == 0 {
				continue // this satellite detached: no copy for it
			}
			out = b.Clone()
			p.stage.copies.Add(1)
		}
		// Append consumes out's reference whether it succeeds or fails.
		switch err := l.Append(out); err {
		case nil:
			served++
		case spl.ErrNoConsumers:
			// This consumer detached; keep serving the others.
		default:
			// The list was closed under us: the query's context ended.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return err
		}
	}
	if served == 0 {
		return ErrCanceled
	}
	return nil
}

// Close ends the stream for all consumers.
func (w packetWriter) Close(err error) { w.p.close(err) }

// splReader is one consumer's cursor into a packet's list.
type splReader struct {
	r *spl.Reader

	// Reader-side cancellation: the first Next arms a context.AfterFunc
	// that cancels THIS reader only (spl.Reader.Cancel), so an abandoned
	// or past-deadline consumer unblocks immediately without touching the
	// producer or the other consumers of the list. Arming once keeps the
	// steady-state Next allocation-free.
	armed bool
	stop  func() bool
}

// Next pulls the consumer's next page.
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
