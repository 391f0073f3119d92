package storage

import (
	"sync"

	"repro/internal/vec"
)

// ScanGroup coordinates circular shared scans over one heap file — the
// storage-layer sharing primitive of both QPipe and CJOIN ("both techniques
// use shared scans", §1). A cursor attaching while other scans are active
// starts at the position of the most advanced active cursor, so trailing
// cursors hit buffer-pool-resident pages and k concurrent scans cost roughly
// one disk sweep instead of k.
type ScanGroup struct {
	hf       *HeapFile
	shared   bool
	prefetch bool

	// demandFirst orders each pruning cursor's fetches demand-first: pages
	// that are both relevant (not zone-pruned) and pool-resident are served
	// before cold ones, which move to the tail of the sweep. A selective
	// query riding behind a 100%-selectivity sweep consumes the resident
	// pages it needs and detaches without waiting for the full circle.
	demandFirst bool

	mu      sync.Mutex
	cursors map[*ScanCursor]struct{}
	// attaches counts Attach calls; attachShared counts those that joined an
	// in-progress sweep (reported by the harness as shared-scan hits).
	attaches     int64
	attachShared int64
	pruned       int64 // pages skipped by zone-map pruning
}

// NewScanGroup creates a scan coordinator for hf. If shared is false every
// cursor starts at page zero (the query-centric baseline for the shared-scan
// ablation).
func NewScanGroup(hf *HeapFile, shared bool) *ScanGroup {
	return &ScanGroup{hf: hf, shared: shared, cursors: make(map[*ScanCursor]struct{})}
}

// SetShared toggles shared-scan behaviour (ablation hook; affects future
// attaches only).
func (g *ScanGroup) SetShared(v bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shared = v
}

// SetPrefetch toggles scan readahead: cursors request their next page in
// the background while the current page is being processed, hiding disk
// latency on sequential sweeps.
func (g *ScanGroup) SetPrefetch(v bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.prefetch = v
}

// prefetchOn reads the toggle under the group lock.
func (g *ScanGroup) prefetchOn() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.prefetch
}

// SetDemandFirst toggles demand-first fetch ordering for pruning cursors
// (enabled by disk-resident environments; affects future NextColsPruned
// calls).
func (g *ScanGroup) SetDemandFirst(v bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.demandFirst = v
}

func (g *ScanGroup) demandFirstOn() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.demandFirst
}

func (g *ScanGroup) notePruned() {
	g.mu.Lock()
	g.pruned++
	g.mu.Unlock()
}

// ScanCursor delivers every page of the file exactly once, starting at the
// attach position and wrapping circularly.
type ScanCursor struct {
	group     *ScanGroup
	numPages  int
	next      int
	remaining int
	served    int64 // pages delivered, used to find the most advanced cursor

	// deferred holds relevant-but-cold pages pushed to the tail of the
	// sweep by demand-first ordering; each page is deferred at most once.
	deferred []int
}

// Attach registers a new circular scan over the file.
func (g *ScanGroup) Attach() *ScanCursor {
	n := g.hf.NumPages()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attaches++
	start := 0
	if g.shared && n > 0 {
		// Join the most advanced in-progress sweep, if any.
		var lead *ScanCursor
		for c := range g.cursors {
			if c.remaining > 0 && (lead == nil || c.served > lead.served) {
				lead = c
			}
		}
		if lead != nil {
			start = lead.next
			g.attachShared++
		}
	}
	c := &ScanCursor{group: g, numPages: n, next: start, remaining: n}
	g.cursors[c] = struct{}{}
	return c
}

// NumPages returns the number of pages this cursor will deliver.
func (c *ScanCursor) NumPages() int { return c.numPages }

// Next returns the index of the next page to read, or ok=false when the
// circular sweep has delivered every page.
func (c *ScanCursor) Next() (idx int, ok bool) {
	g := c.group
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.remaining == 0 {
		return 0, false
	}
	idx = c.next
	c.next = (c.next + 1) % c.numPages
	c.remaining--
	c.served++
	return idx, true
}

// NextCols fetches the next page's columnar batch and reports the page
// index, or ok=false at end of sweep. With readahead enabled the cursor's
// following page is requested in the background before this one is decoded.
// The caller owns one reference on the batch and must Release it.
func (c *ScanCursor) NextCols() (cb *vec.ColBatch, idx int, ok bool, err error) {
	idx, ok = c.Next()
	if !ok {
		return nil, 0, false, nil
	}
	if c.numPages > 1 && c.group.prefetchOn() {
		c.group.hf.Prefetch((idx + 1) % c.numPages)
	}
	cb, err = c.group.hf.PageCols(idx)
	if err != nil {
		return nil, 0, false, err
	}
	return cb, idx, true, nil
}

// PageCheck is a page-level can-match check over per-column zone maps
// (compiled from a pushed-down predicate by expr.CompilePrune). A nil
// zones slice means "unknown" and the check is not consulted.
type PageCheck func(zones []ZoneMap) bool

// NextColsPruned is NextCols with zone-map pruning and (when the group has
// demand-first ordering enabled) demand-first fetch ordering. Pages whose
// zone maps cannot satisfy check are skipped without being fetched or
// decoded; under demand-first ordering, relevant pages that are not
// pool-resident are pushed to the tail of the sweep so resident pages are
// consumed first. Every non-pruned page is still delivered exactly once.
// A nil check only applies the ordering.
func (c *ScanCursor) NextColsPruned(check PageCheck) (cb *vec.ColBatch, idx int, ok bool, err error) {
	hf := c.group.hf
	demandFirst := c.group.demandFirstOn()
	for {
		idx, ok = c.Next()
		inSweep := ok
		if !ok {
			// Main sweep exhausted: drain the deferred cold pages.
			if len(c.deferred) == 0 {
				return nil, 0, false, nil
			}
			idx = c.deferred[0]
			c.deferred = c.deferred[1:]
		}
		if check != nil {
			if z := hf.PageZones(idx); z != nil && !check(z) {
				hf.NotePruned()
				c.group.notePruned()
				continue
			}
		}
		if inSweep && demandFirst && !hf.PageResident(idx) {
			c.deferred = append(c.deferred, idx)
			continue
		}
		if c.group.prefetchOn() {
			if !inSweep && len(c.deferred) > 0 {
				hf.Prefetch(c.deferred[0])
			} else if inSweep && c.numPages > 1 {
				hf.Prefetch((idx + 1) % c.numPages)
			}
		}
		cb, err = hf.PageCols(idx)
		if err != nil {
			return nil, 0, false, err
		}
		return cb, idx, true, nil
	}
}

// Close detaches the cursor from its group.
func (c *ScanCursor) Close() {
	g := c.group
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.cursors, c)
}

// ScanGroupStats reports sharing effectiveness counters.
type ScanGroupStats struct {
	Attaches       int64
	AttachedShared int64
	PagesPruned    int64 // pages skipped by zone-map pruning across cursors
}

// Stats returns cumulative attach counters.
func (g *ScanGroup) Stats() ScanGroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return ScanGroupStats{Attaches: g.attaches, AttachedShared: g.attachShared, PagesPruned: g.pruned}
}
