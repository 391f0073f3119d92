package storage

import (
	"sync"

	"repro/internal/vec"
)

// ScanGroup coordinates circular shared scans over one heap file — QPipe's
// storage-layer sharing primitive (the paper's "both techniques use shared
// scans", §1: CJOIN shares its scan too, but its scanner runs one circular
// scan of its own over HeapFile.PageCols and attaches no cursor here). A
// cursor attaching while other scans are active
// starts at the position of the most advanced active cursor, so trailing
// cursors hit buffer-pool-resident pages and k concurrent scans cost roughly
// one disk sweep instead of k.
type ScanGroup struct {
	hf *HeapFile

	mu      sync.Mutex
	cursors map[*ScanCursor]struct{}
}

// NewScanGroup creates a scan coordinator for hf.
func NewScanGroup(hf *HeapFile) *ScanGroup {
	return &ScanGroup{hf: hf, cursors: make(map[*ScanCursor]struct{})}
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
	// sweep by NextColsPruned's demand-first ordering; each page is deferred
	// at most once.
	deferred []int
}

// Attach registers a new circular scan over the file.
func (g *ScanGroup) Attach() *ScanCursor {
	n := g.hf.NumPages()
	g.mu.Lock()
	defer g.mu.Unlock()
	start := 0
	if n > 0 {
		// Join the most advanced in-progress sweep, if any.
		var lead *ScanCursor
		for c := range g.cursors {
			if c.remaining > 0 && (lead == nil || c.served > lead.served) {
				lead = c
			}
		}
		if lead != nil {
			start = lead.next
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
// index, or ok=false at end of sweep. The caller owns one reference on the
// batch and must Release it.
func (c *ScanCursor) NextCols() (cb *vec.ColBatch, idx int, ok bool, err error) {
	idx, ok = c.Next()
	if !ok {
		return nil, 0, false, nil
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

// NextColsPruned is NextCols with zone-map pruning and demand-first fetch
// ordering. Pages whose zone maps cannot satisfy check are skipped without
// being fetched or decoded. Relevant pages that are not pool-resident are
// pushed to the tail of the sweep so resident pages are consumed first: a
// selective query riding behind a full sweep consumes the resident pages it
// needs and detaches without waiting for the full circle. Every non-pruned
// page is still delivered exactly once. A nil check only applies the
// ordering.
func (c *ScanCursor) NextColsPruned(check PageCheck) (cb *vec.ColBatch, idx int, ok bool, err error) {
	hf := c.group.hf
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
				continue
			}
		}
		if inSweep && !hf.PageResident(idx) {
			c.deferred = append(c.deferred, idx)
			continue
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
