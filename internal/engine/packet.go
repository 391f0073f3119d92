package engine

import (
	"context"
	"sync"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/spl"
)

// SPModel selects how a host packet shares its output with satellites.
type SPModel uint8

const (
	// SPPush is the original push-based model: the producer copies every
	// output page into every satellite's FIFO (serialization point).
	SPPush SPModel = iota
	// SPPull is the improved pull-based model over the Shared Pages List:
	// the producer appends each page once and consumers pull concurrently.
	SPPull
)

// String names the model.
func (m SPModel) String() string {
	if m == SPPull {
		return "pull(SPL)"
	}
	return "push(FIFO)"
}

// Packet is the unit of work of one operator of one query. When SP is
// active a packet can serve several queries: the first becomes the host and
// later arrivals attach as satellites, receiving the host's output instead
// of re-evaluating the common sub-plan.
type Packet struct {
	node  plan.Node
	stage *Stage
	fp    expr.Fp // SP registry key; zero when the stage does not share
	model SPModel

	mu      sync.Mutex
	emitted bool // a batch has been produced (closes the push window)

	// Exactly one of the two is used, by model.
	multi *multiFIFO
	list  *spl.List

	consumers int // attached consumers (including the primary)

	closeOnce sync.Once
}

// close ends the packet's output stream exactly once (the operator's normal
// completion and the context-cancellation AfterFunc may race here).
func (p *Packet) close(err error) {
	p.closeOnce.Do(func() {
		if p.model == SPPull {
			p.list.Close(err)
			return
		}
		p.multi.Close(err)
	})
}

// newPacket builds a packet and its primary consumer endpoint.
func newPacket(node plan.Node, stage *Stage, fp expr.Fp, model SPModel, fifoCap, splMax int) (*Packet, Reader) {
	p := &Packet{node: node, stage: stage, fp: fp, model: model}
	if model == SPPull {
		p.list = spl.New(splMax)
		r, err := p.list.NewReader()
		if err != nil {
			// Impossible: nothing has been appended yet.
			panic("engine: fresh SPL rejected its first reader")
		}
		p.consumers = 1
		return p, &splReader{r: r}
	}
	p.multi = newMultiFIFO(fifoCap, &stage.copies)
	p.consumers = 1
	return p, p.multi.addConsumer()
}

// addConsumer attaches a satellite, returning ok=false when the sharing
// window has closed. Push model: the window closes at the first emitted
// batch (results already flowed past). Pull model: the window stays open
// while the SPL still retains the first page, so slow consumers and batched
// arrivals widen it — one of the SPL's practical advantages.
func (p *Packet) addConsumer() (Reader, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.model == SPPull {
		r, err := p.list.NewReader()
		if err != nil {
			return nil, false
		}
		p.consumers++
		return &splReader{r: r}, true
	}
	if p.emitted {
		return nil, false
	}
	p.consumers++
	return p.multi.addConsumer(), true
}

// Consumers returns the number of queries served by this packet.
func (p *Packet) Consumers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consumers
}

// writer returns the producer endpoint used by the operator goroutine.
func (p *Packet) writer() Writer { return packetWriter{p: p} }

// packetWriter marks the sharing window closed on first emission and
// forwards to the model-specific buffer.
type packetWriter struct{ p *Packet }

// Put publishes a batch, closing the push-model sharing window first.
func (w packetWriter) Put(ctx context.Context, b *batch.Batch) error {
	p := w.p
	p.mu.Lock()
	if !p.emitted {
		p.emitted = true
	}
	p.mu.Unlock()
	if p.model == SPPull {
		return splWriter{list: p.list}.Put(ctx, b)
	}
	return p.multi.Put(ctx, b)
}

// Close ends the stream for all consumers.
func (w packetWriter) Close(err error) { w.p.close(err) }
