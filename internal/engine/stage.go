package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plan"
)

// Stage is a QPipe stage: the home of one relational operator. In the
// original system each stage owns a worker pool and a queue of packets; here
// packets run on goroutines, and the stage keeps the run-time state that
// matters for sharing — the in-flight packet registry keyed by sub-plan
// signature, which is how Simultaneous Pipelining detects common sub-plans
// among concurrent queries.
type Stage struct {
	kind plan.Kind
	sp   bool // SP enabled for this stage

	mu       sync.Mutex
	inflight map[string]*Packet

	executed   atomic.Int64 // packets run by this stage
	spAttached atomic.Int64 // satellites attached to a host packet
	spMissed   atomic.Int64 // matching sub-plan found but window closed
	copies     atomic.Int64 // push-model batch copies (column copies) for satellites
	busyNanos  atomic.Int64 // time spent processing (not blocked)
	active     atomic.Int64 // currently running packets
	panics     atomic.Int64 // operator panics recovered at the packet boundary
}

func newStage(kind plan.Kind, sp bool) *Stage {
	return &Stage{kind: kind, sp: sp, inflight: make(map[string]*Packet)}
}

// Kind returns the operator kind this stage runs.
func (s *Stage) Kind() plan.Kind { return s.kind }

// lookupOrRegister returns (host, nil) when an in-flight packet with the
// same signature exists, otherwise registers p (when SP is on) and returns
// (nil, p). Callers must attempt attachment to the returned host and fall
// back to dispatching their own packet if the window has closed.
func (s *Stage) lookupOrRegister(sig string, mk func() *Packet) (host, fresh *Packet) {
	if !s.sp {
		return nil, mk()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.inflight[sig]; ok {
		return h, nil
	}
	p := mk()
	s.inflight[sig] = p
	return nil, p
}

// register inserts a packet built after a failed attach (window closed). It
// only installs p if no other packet holds the slot.
func (s *Stage) register(sig string, p *Packet) {
	if !s.sp {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.inflight[sig]; !ok {
		s.inflight[sig] = p
	}
}

// unregister removes p from the in-flight table if it still owns its slot.
func (s *Stage) unregister(sig string, p *Packet) {
	if !s.sp {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[sig] == p {
		delete(s.inflight, sig)
	}
}

// addBusy accounts processing time.
func (s *Stage) addBusy(d time.Duration) { s.busyNanos.Add(int64(d)) }

// StageStats is a snapshot of one stage's counters.
type StageStats struct {
	Kind       plan.Kind
	Executed   int64
	SPAttached int64
	SPMissed   int64
	Copies     int64
	Panics     int64
	Busy       time.Duration
}

// Stats snapshots the stage counters.
func (s *Stage) Stats() StageStats {
	return StageStats{
		Kind:       s.kind,
		Executed:   s.executed.Load(),
		SPAttached: s.spAttached.Load(),
		SPMissed:   s.spMissed.Load(),
		Copies:     s.copies.Load(),
		Panics:     s.panics.Load(),
		Busy:       time.Duration(s.busyNanos.Load()),
	}
}
