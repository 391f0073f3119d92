package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// reply is what a query brought back: rows from an in-process engine, or an
// NDJSON body from the server. Hashing it is verification work and happens
// after the latency timestamp.
type reply struct {
	rows []types.Row
	body []byte
	cols []string
	ttfb time.Duration
}

func (r reply) digest() (digest, error) {
	if r.cols != nil {
		return digestNDJSON(r.body, r.cols)
	}
	return digestRows(r.rows), nil
}

// sample is one query of a closed-loop client.
type sample struct {
	done  time.Time
	lat   time.Duration
	ttfb  time.Duration
	bytes int
	ok    bool // replied without error and matched the reference
}

// requests holds a workload's seeded request sequences, one per client or a
// single one that all clients share, and how far each has been consumed: a
// drive continues where the one before it stopped, so that warm-up, window
// and replays walk one sequence and never meet the same cache state twice.
type requests struct {
	seqs [][]int
	next []atomic.Int64
}

func newRequests(seqs [][]int) *requests {
	return &requests{seqs: seqs, next: make([]atomic.Int64, len(seqs))}
}

// take returns the client's next query. Clients that share a sequence take
// its entries in the order they come to ask.
func (r *requests) take(client int) int {
	i := client % len(r.seqs)
	seq := r.seqs[i]
	return seq[int(r.next[i].Add(1)-1)%len(seq)]
}

// driveSpec bounds one drive: it ends after dur, or once maxQueries have
// been issued if that is not zero.
type driveSpec struct {
	dur        time.Duration
	maxQueries int
	tr         *tracer
}

// window is what one drive measured.
type window struct {
	wall      time.Duration
	samples   []sample // those that completed inside the window
	attempted int
	failed    int
	firstErr  error
	cpu       time.Duration // CPU of the process under test over the window
	peakRSS   int64         // bytes, highest sampled resident set of that process
	before    counters
	after     counters
}

// drive runs the workload's clients against t. Each client takes its next
// request, waits for the reply, and verifies it against refs after noting
// the latency. Queries still in flight when the window closes are completed
// but not counted.
func drive(ctx context.Context, t *target, clients int, reqs *requests, refs []digest, spec driveSpec) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = t.counters(); err != nil {
		return nil, err
	}
	cpu0, err := processCPU(t.pid)
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	var issued atomic.Int64
	perClient := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				n := issued.Add(1)
				if spec.maxQueries > 0 && n > int64(spec.maxQueries) {
					return
				}
				q := reqs.take(c)
				sp := spec.tr.query()
				t0 := time.Now()
				rep, err := t.do(ctx, c, q, sp)
				done := time.Now()
				s := sample{done: done, lat: done.Sub(t0), ttfb: rep.ttfb, bytes: len(rep.body)}
				if err == nil {
					v := sp.child("verify")
					var got digest
					if got, err = rep.digest(); err == nil && got != refs[q] {
						err = fmt.Errorf("query %d: result digest %+v, reference %+v", q, got, refs[q])
					}
					v.end()
				}
				sp.end()
				s.ok = err == nil
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}

	// The main goroutine samples the resident set until the window closes,
	// then snapshots CPU and counters at that instant.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(spec.dur)
sampling:
	for {
		select {
		case <-tick.C:
			if rss, err := processRSS(t.pid); err == nil && rss > w.peakRSS {
				w.peakRSS = rss
			}
		case <-deadline:
			break sampling
		case <-finished:
			break sampling
		case <-ctx.Done():
			break sampling
		}
	}
	end := time.Now()
	stop.Store(true)
	cpu1, cpuErr := processCPU(t.pid)
	w.after, err = t.counters()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: the caller unwinds and stops the server
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	if err != nil {
		return nil, err
	}
	w.wall = end.Sub(start)
	w.cpu = cpu1 - cpu0
	for c, ss := range perClient {
		for _, s := range ss {
			if s.done.After(end) {
				continue
			}
			w.attempted++
			if !s.ok {
				w.failed++
				continue
			}
			w.samples = append(w.samples, s)
		}
		if w.firstErr == nil {
			w.firstErr = errs[c]
		}
	}
	return w, nil
}

// qps is the window's verified queries per second.
func (w *window) qps() float64 { return ratio(float64(len(w.samples)), w.wall.Seconds()) }

// mergeWindows joins consecutive drives into one window: times and counts
// add up, and the Stats diff runs from the first snapshot to the last.
func mergeWindows(ws []*window) *window {
	m := &window{before: ws[0].before, after: ws[len(ws)-1].after}
	for _, w := range ws {
		m.wall += w.wall
		m.cpu += w.cpu
		m.samples = append(m.samples, w.samples...)
		m.attempted += w.attempted
		m.failed += w.failed
		m.peakRSS = max(m.peakRSS, w.peakRSS)
		if m.firstErr == nil {
			m.firstErr = w.firstErr
		}
	}
	return m
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latenciesMs returns the window's verified latencies in ms, sorted.
func (w *window) latenciesMs() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = float64(s.lat) / 1e6
	}
	sort.Float64s(out)
	return out
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// processCPU reads the user+system CPU time a process has used, for the
// harness itself and for the server subprocess alike.
func processCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is parenthesised and may hold spaces.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:])) // f[0] is field 3
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// processRSS reads a process's resident set size in bytes.
func processRSS(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/%d/statm: short line", pid)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}
