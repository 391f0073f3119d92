package engine

import (
	"sync"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/spl"
)

// SPModel selects how a host packet shares its output with satellites.
type SPModel uint8

const (
	// SPPush is the original push-based model: every consumer has its own
	// list and the producer copies every output page into each satellite's
	// (serialization point).
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
	return "push(copy)"
}

// fifoDepth is the page bound of every list the engine creates (the original
// QPipe FIFO depth): a private edge, each consumer's list under push SP and
// the one shared list under pull SP. It bounds what an edge holds, not the
// pull-SP sharing window, which stays open while page 0 is unreclaimed.
const fifoDepth = 8

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
	closed  bool
	err     error // the close cause, for a push consumer attached after close

	// lists are the packet's output buffers: under pull SP one shared list
	// every consumer reads, otherwise one list per consumer, the primary's
	// first. A list is added only before the first emission.
	lists []*spl.List
}

// close ends the packet's output stream exactly once (the operator's normal
// completion and the context-cancellation AfterFunc may race here).
func (p *Packet) close(err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed, p.err = true, err
	lists := p.lists
	p.mu.Unlock()
	for _, l := range lists {
		l.Close(err)
	}
}

// newPacket builds a packet and its primary consumer endpoint.
func newPacket(node plan.Node, stage *Stage, fp expr.Fp, model SPModel) (*Packet, Reader) {
	p := &Packet{node: node, stage: stage, fp: fp, model: model, lists: []*spl.List{spl.New(fifoDepth)}}
	return p, firstReader(p.lists[0])
}

// firstReader attaches the one consumer a fresh list can never refuse.
func firstReader(l *spl.List) Reader {
	r, err := l.NewReader()
	if err != nil {
		panic("engine: fresh SPL rejected its first reader") // nothing was appended yet
	}
	return &splReader{r: r}
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
		r, err := p.lists[0].NewReader()
		if err != nil {
			return nil, false
		}
		return &splReader{r: r}, true
	}
	if p.emitted {
		return nil, false
	}
	l := spl.New(fifoDepth)
	if p.closed {
		l.Close(p.err) // the stream ended empty: the satellite sees its end at once
	}
	p.lists = append(p.lists, l)
	return firstReader(l), true
}

// writer returns the producer endpoint used by the operator goroutine.
func (p *Packet) writer() Writer { return packetWriter{p: p} }
