package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded at a call site of the harness. Spans
// of one query share its Query id; Parent is the span that caused this one
// (-1 for a root). Times are nanoseconds since the trace began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"` // -1 outside a query
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same call sites at no cost.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	queries atomic.Int32 // query ids handed out
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// spanRef names an open span. The nil spanRef is valid and inert.
type spanRef struct {
	t     *tracer
	id    int32
	query int32
}

func (t *tracer) open(name string, parent, query int32) *spanRef {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: now})
	t.mu.Unlock()
	return &spanRef{t: t, id: id, query: query}
}

// query opens the root span of one more query.
func (t *tracer) query() *spanRef {
	if t == nil {
		return nil
	}
	return t.open("query", -1, t.queries.Add(1)-1)
}

// phase opens a root span outside any query.
func (t *tracer) phase(name string) *spanRef { return t.open(name, -1, -1) }

func (s *spanRef) child(name string) *spanRef {
	if s == nil {
		return nil
	}
	return s.t.open(name, s.id, s.query)
}

func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// selfRow is one line of the self-time table: for every span of a name, its
// duration minus the part of it that its child spans cover.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func selfTimes(spans []span) []selfRow {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfRow)
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			byName[s.Name] = row
		}
		// Children of one span may overlap (emit callbacks of concurrent
		// phases), so subtract the union of their intervals, not the sum.
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		row.Count++
		row.TotalMs += float64(s.End-s.Start) / 1e6
		row.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows
}

// write stores the spans and their self-time table.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	data, err := json.Marshal(struct {
		SelfTime []selfRow `json:"self_time"`
		Spans    []span    `json:"spans"`
	}{selfTimes(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
