package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/vec"
)

// ErrNoFreeFrames is returned when every frame in the pool is pinned and a
// new page must be brought in.
var ErrNoFreeFrames = errors.New("storage: buffer pool exhausted (all frames pinned)")

// ErrPoolClosed is returned by fetches from a pool after its Close.
var ErrPoolClosed = errors.New("storage: buffer pool closed")

// Fetch retry policy defaults: a transient read error is retried up to
// DefaultFetchRetries times with jittered exponential backoff starting at
// DefaultRetryBackoff before it becomes permanent and the page is
// quarantined. The disarmed path costs nothing — no clock reads, no
// allocations (BenchmarkFetchRetryDisarmed gates this in CI).
const (
	DefaultFetchRetries = 3
	DefaultRetryBackoff = 250 * time.Microsecond
)

type pageKey struct {
	file FileID
	idx  int
}

// Frame is a buffer-pool slot holding one page. Callers receive pinned
// frames from Fetch and must Unpin them when done; the page bytes must not
// be accessed after Unpin.
//
// The buffer is an arena page the frame takes when it first loads a page and
// keeps across evictions. It leaves the frame in two ways: the pool's Close
// frees it, and an eviction (or Close) that finds readers still holding the
// page's batch with columns undecoded hands it to the batch's source, which
// frees it at the batch's last Release; the frame takes a fresh buffer for its
// next page.
type Frame struct {
	pool    *BufferPool // owning pool (quarantine and decode stats)
	slot    int         // index in pool.frames and pool.bufs.pages
	key     pageKey
	data    []byte // nil between giving the buffer away and the next load
	pins    int
	ref     bool
	valid   bool
	loading chan struct{} // non-nil while the page is being read from disk
	loadErr error

	// The frame's one decoded form: a page is opened at most once per
	// residency into a pooled ColBatch that every reader of the residency
	// shares (circular scans re-read the same resident pages every sweep).
	// Opening validates the whole page and decodes its dictionary and raw
	// segments; a fixed-width column is decoded, once, by the first reader
	// that asks the batch for it, straight from data. The frame owns one
	// reference; eviction drops it, and leaves data to the batch when other
	// readers still hold it with columns undecoded (dropDecoded).
	decMu  sync.Mutex
	cb     *vec.ColBatch
	src    *pageSource // cb's column source (nil for an empty page)
	decErr error       // sticky decode failure (corrupt page) for this residency
}

// frameBufs lists the arena pages under a pool's frames, one per frame (nil
// while the frame has none), for the one purpose of giving them back when the
// pool is collected without Close: frames point at their pool, so a finalizer
// on the pool itself would never run.
type frameBufs struct{ pages [][]byte }

func (b *frameBufs) reclaim() {
	for _, pg := range b.pages {
		if pg != nil {
			arena.Reclaim(pg)
		}
	}
}

// setData gives the frame a buffer, or none.
func (fr *Frame) setData(page []byte) {
	fr.data = page
	fr.pool.bufs.pages[fr.slot] = page
}

// Data returns the page bytes. Valid only while the frame is pinned.
func (fr *Frame) Data() []byte { return fr.data }

// DecodedCols returns the frame's page as a columnar batch, opening it
// (openPage: validate everything, decode what can fail) on first use per
// residency; a corrupt page fails here, whichever column is corrupt and
// whichever columns the caller will read. Must be called with the frame
// pinned. The caller receives its own reference and must Release it; the
// batch may be retained past Unpin, past the frame's eviction and past the
// pool's Close, and decodes a column nobody has read yet whenever its Col is
// first called.
func (fr *Frame) DecodedCols(ncols int) (*vec.ColBatch, error) {
	fr.decMu.Lock()
	if fr.cb == nil && fr.decErr == nil {
		if fr.cb, fr.src, fr.decErr = openPage(fr.data, ncols, fr.pool.colsDecoded); fr.decErr == nil {
			fr.pool.decoded.Add(1)
		}
	}
	if err := fr.decErr; err != nil {
		fr.decMu.Unlock()
		// A page that read fine but fails to decode is corrupt on disk:
		// permanent, quarantined alongside unreadable pages.
		return nil, fr.pool.quarantine(fr.key, MarkPermanent(err))
	}
	fr.cb.Retain()
	fr.decMu.Unlock()
	return fr.cb, nil
}

// PoolStats are cumulative buffer pool counters, plus one gauge: Frames is
// the number of frames materialised so far (each holds PageSize bytes), at
// most the capacity Size reports.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Frames    int
}

// DecodeStats are the pool's page-level counters. Fetched/Pruned/Decoded are
// the zone-map pruning counters: Pruned pages were ruled out by zone maps
// before any fetch, so on a selective clustered sweep Fetched+Pruned ≈ pages
// touched logically while Fetched (and Decoded) stay proportional to the
// relevant pages only.
type DecodeStats struct {
	Fetched int64 // demand fetches served (pool hits + disk reads)
	Pruned  int64 // page fetches avoided by zone-map pruning
	Decoded int64 // pages opened (at most once per pool residency)

	// ColsDecoded counts columns materialised: at open for dictionary and
	// raw segments, on first touch for fixed-width ones. Decode cost per
	// decoded column is read against this, not against Decoded × width.
	ColsDecoded int64

	// Fault-handling counters. Retries counts transient read errors that
	// were retried (with backoff) before the page loaded or quarantined;
	// Quarantined counts pages settled into a permanent PageError.
	Retries     int64
	Quarantined int64
}

// BufferPool caches disk pages in at most a fixed number of frames with clock
// eviction. The capacity is a cap, not a reservation: a frame (and its
// PageSize bytes) is materialised by the first miss that needs one, so a pool
// sized generously for a small database holds only what was fetched. Frame
// buffers are arena pages (arena.Frame): Close gives back every one the pool
// still owns and drops the frames' references on their batches; batches that
// readers retained live on, with the page buffers they still decode from. It is
// safe for concurrent use; a page requested by several scanners at once is
// read from disk exactly once (single-flight loading) — this is the mechanism
// through which circular shared scans turn k concurrent table scans into
// roughly one disk sweep.
type BufferPool struct {
	disk     Disk
	capacity int

	mu     sync.Mutex
	frames []*Frame   // materialised frames, in the order the clock visits them
	bufs   *frameBufs // frames[i]'s buffer
	free   []*Frame   // the invalid frames (every frame with valid == false)
	table  map[pageKey]*Frame
	hand   int
	closed bool

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	prefetched atomic.Int64

	decoded atomic.Int64
	// colsDecoded is its own object: page sources count into it, and a source
	// pointing into the pool would close a cycle (pool, frame, batch, source)
	// through an object with a finalizer, which the collector never frees.
	colsDecoded *atomic.Int64
	fetched     atomic.Int64
	pruned      atomic.Int64
	retries     atomic.Int64
	quarCount   atomic.Int64

	// Retry policy for transient read errors (SetRetryPolicy overrides).
	retryMax  int
	retryBase time.Duration

	// quar holds permanently failed pages: a fetch of a quarantined page
	// fails fast with its PageError, without touching the disk. nil until
	// the first quarantine, so the fault-free path never pays for it beyond
	// one nil-map length check under the lock it already holds.
	quar map[pageKey]*PageError

	// names maps file ids to table names for PageError attribution.
	nmu   sync.RWMutex
	names map[FileID]string

	// Per-page zone maps, keyed like the frame table but never evicted
	// (a few dozen bytes per page versus a 32KiB frame). Populated by the
	// heap-file writer at flush time. Page contents are immutable after
	// flush, so entries never go stale.
	zmu   sync.RWMutex
	zones map[pageKey][]ZoneMap

	prefetchGate chan struct{}
}

// NewBufferPool creates a pool of at most npages frames over the given disk.
// No frame is allocated until a fetch needs it.
func NewBufferPool(disk Disk, npages int) *BufferPool {
	if npages < 1 {
		npages = 1
	}
	bufs := new(frameBufs)
	runtime.SetFinalizer(bufs, (*frameBufs).reclaim)
	return &BufferPool{
		disk:         disk,
		capacity:     npages,
		bufs:         bufs,
		colsDecoded:  new(atomic.Int64),
		table:        make(map[pageKey]*Frame),
		zones:        make(map[pageKey][]ZoneMap),
		prefetchGate: make(chan struct{}, 4),
		retryMax:     DefaultFetchRetries,
		retryBase:    DefaultRetryBackoff,
	}
}

// Size returns the pool capacity in pages.
func (p *BufferPool) Size() int { return p.capacity }

// Fetch returns a pinned frame holding page (f, idx), reading it from disk on
// a miss. Concurrent fetches of the same missing page coalesce into a single
// disk read. Transient read errors are retried with jittered backoff; a read
// that stays broken (or is classified permanent) quarantines the page and
// fails this — and every subsequent — fetch of it fast with a typed
// PageError, leaving every other page of the file untouched.
func (p *BufferPool) Fetch(f FileID, idx int) (*Frame, error) {
	p.fetched.Add(1)
	key := pageKey{file: f, idx: idx}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if len(p.quar) != 0 {
		if pe, ok := p.quar[key]; ok {
			p.mu.Unlock()
			return nil, pe
		}
	}
	if fr, ok := p.table[key]; ok {
		fr.pins++
		fr.ref = true
		if ch := fr.loading; ch != nil {
			p.mu.Unlock()
			<-ch
			// loadErr is published before the channel close.
			if fr.loadErr != nil {
				err := fr.loadErr
				p.Unpin(fr)
				return nil, err
			}
			p.hits.Add(1)
			return fr, nil
		}
		p.hits.Add(1)
		p.mu.Unlock()
		return fr, nil
	}

	fr, err := p.victimLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	if fr.valid {
		delete(p.table, fr.key)
		p.evictions.Add(1)
	}
	fr.key = key
	fr.valid = true
	fr.pins = 1
	fr.ref = true
	fr.loadErr = nil
	// The frame was unpinned when victimLocked picked it, so no decode
	// call can be in flight; dropping the cache here is race-free.
	fr.dropDecoded()
	if fr.data == nil { // a new frame, or one whose buffer went with its batch
		fr.setData(arena.Take(arena.Frame))
	}
	ch := make(chan struct{})
	fr.loading = ch
	p.table[key] = fr
	p.misses.Add(1)
	p.mu.Unlock()

	readErr := p.readPageRetry(f, idx, fr.data)
	var pageErr *PageError
	if readErr != nil {
		pageErr = p.newPageError(f, idx, readErr)
	}

	p.mu.Lock()
	fr.loadErr = nil
	if pageErr != nil {
		fr.loadErr = pageErr
	}
	fr.loading = nil
	if pageErr != nil {
		delete(p.table, key)
		p.invalidateLocked(fr)
		p.unpinLocked(fr)
		pageErr = p.quarantineLocked(key, pageErr)
	}
	p.mu.Unlock()
	close(ch)
	if pageErr != nil {
		return nil, pageErr
	}
	return fr, nil
}

// readPageRetry reads a page, retrying transient errors up to the pool's
// retry budget with jittered exponential backoff. The fault-free path is a
// single delegated read: no clock, no allocation, no branch beyond the nil
// check.
func (p *BufferPool) readPageRetry(f FileID, idx int, buf []byte) error {
	err := p.disk.ReadPage(f, idx, buf)
	for attempt := 0; err != nil && attempt < p.retryMax && IsTransient(err); attempt++ {
		p.retries.Add(1)
		time.Sleep(jitteredBackoff(p.retryBase, attempt))
		err = p.disk.ReadPage(f, idx, buf)
	}
	return err
}

// jitteredBackoff is full jitter around an exponentially growing base:
// uniform in [base<<attempt/2, base<<attempt*3/2).
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d <= 0 {
		d = base
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// SetRetryPolicy overrides the transient-read retry budget: at most max
// retries, with jittered exponential backoff starting at base. max = 0
// disables retries (every read error is immediately permanent).
func (p *BufferPool) SetRetryPolicy(max int, base time.Duration) {
	p.mu.Lock()
	p.retryMax = max
	if base > 0 {
		p.retryBase = base
	}
	p.mu.Unlock()
}

// newPageError wraps a settled (post-retry) read failure as the typed,
// table-attributed PageError.
func (p *BufferPool) newPageError(f FileID, idx int, cause error) *PageError {
	p.nmu.RLock()
	name := p.names[f]
	p.nmu.RUnlock()
	return &PageError{Table: name, File: f, Page: idx, Cause: cause}
}

// quarantine records page key as permanently failed and returns the entry's
// canonical error (the first writer wins, so concurrent failures of the same
// page share one PageError value).
func (p *BufferPool) quarantine(key pageKey, cause error) *PageError {
	pe := p.newPageError(key.file, key.idx, cause)
	p.mu.Lock()
	pe = p.quarantineLocked(key, pe)
	p.mu.Unlock()
	return pe
}

func (p *BufferPool) quarantineLocked(key pageKey, pe *PageError) *PageError {
	if prev, ok := p.quar[key]; ok {
		return prev
	}
	if p.quar == nil {
		p.quar = make(map[pageKey]*PageError)
	}
	p.quar[key] = pe
	p.quarCount.Add(1)
	return pe
}

// Quarantined returns the cumulative number of pages quarantined.
func (p *BufferPool) Quarantined() int64 { return p.quarCount.Load() }

// ClearQuarantine forgets every quarantined page — the post-repair hook
// (media replaced, fault healed). Resident frames of quarantined pages are
// invalidated when unpinned so stale corrupt bytes do not outlive the
// quarantine; a pinned frame keeps its sticky decode error until it is
// naturally evicted.
func (p *BufferPool) ClearQuarantine() {
	p.mu.Lock()
	for key := range p.quar {
		if fr, ok := p.table[key]; ok && fr.pins == 0 && fr.loading == nil {
			delete(p.table, key)
			p.invalidateLocked(fr)
		}
	}
	p.quar = nil
	p.mu.Unlock()
}

// invalidateLocked retires a frame that has just left the page table without
// being handed to a new page: its decode cache is dropped and it joins the
// free list, which victimLocked drains before the pool grows or evicts.
func (p *BufferPool) invalidateLocked(fr *Frame) {
	fr.valid = false
	fr.dropDecoded()
	p.free = append(p.free, fr)
}

// dropDecoded forgets the frame's decode cache. The frame's reference on the
// columnar batch is released — readers that retained their own keep the batch
// alive until they release it, and may yet ask it for a column it decodes
// from the page bytes: then the buffer goes to the batch's source, which frees
// it with the batch, and the frame is left without one rather than load the
// next page over those bytes. The frame is unpinned here, so nobody can be
// taking a new reference.
func (fr *Frame) dropDecoded() {
	if fr.cb != nil {
		if fr.cb.SourceShared() {
			arena.Retag(fr.data, arena.Held)
			fr.src.held = fr.data // read by the source's Close, after our Release
			fr.setData(nil)
		}
		fr.cb.Release()
		fr.cb, fr.src = nil, nil
	}
	fr.decErr = nil
}

// EvictFile drops every unpinned resident frame of file f so subsequent
// fetches reach the disk again — the hook fault-injection harnesses use to
// make freshly armed faults observable on a pool-resident table. Pinned or
// in-flight frames are left untouched.
func (p *BufferPool) EvictFile(f FileID) {
	p.mu.Lock()
	for key, fr := range p.table {
		if key.file != f || fr.pins != 0 || fr.loading != nil {
			continue
		}
		delete(p.table, key)
		p.invalidateLocked(fr)
	}
	p.mu.Unlock()
}

// RegisterFileName records the table name owning a file id, so PageErrors
// carry the table they belong to.
func (p *BufferPool) RegisterFileName(f FileID, name string) {
	p.nmu.Lock()
	if p.names == nil {
		p.names = make(map[FileID]string)
	}
	p.names[f] = name
	p.nmu.Unlock()
}

// Unpin releases a pinned frame.
func (p *BufferPool) Unpin(fr *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unpinLocked(fr)
}

// unpinLocked drops one pin. The last pin on a frame of a closed pool gives
// up what Close could not take from under its holder.
func (p *BufferPool) unpinLocked(fr *Frame) {
	if fr.pins <= 0 {
		panic("storage: Unpin of unpinned frame")
	}
	fr.pins--
	if p.closed && fr.pins == 0 {
		fr.close()
	}
}

// close releases an unpinned frame's batch reference and buffer for good.
func (fr *Frame) close() {
	fr.dropDecoded()
	if fr.data != nil {
		arena.Free(fr.data)
		fr.setData(nil)
	}
}

// Close releases every frame: its reference on its page's batch and its
// buffer (to the batch's source when readers still hold the batch with columns
// undecoded, to the arena otherwise). Fetches fail with ErrPoolClosed
// afterwards; batches handed out earlier stay valid until their holders
// release them. A frame that is pinned is released by its last Unpin instead,
// and reported: the pool's users are expected to have stopped. Close is
// idempotent.
func (p *BufferPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	pinned := 0
	for _, fr := range p.frames {
		if fr.pins > 0 {
			pinned++
			continue
		}
		fr.close()
	}
	clear(p.table)
	p.free = nil
	if pinned > 0 {
		return fmt.Errorf("storage: buffer pool closed with %d frames pinned", pinned)
	}
	return nil
}

// victimLocked finds the frame a missing page is loaded into: an invalidated
// frame if one is unpinned (the waiters of a failed load still hold theirs
// for a moment), else a new frame while the pool is below capacity, else the
// clock hand's choice among the valid frames. Two full sweeps guarantee every
// unpinned frame has had its reference bit cleared once before we give up.
func (p *BufferPool) victimLocked() (*Frame, error) {
	for i := len(p.free) - 1; i >= 0; i-- {
		if fr := p.free[i]; fr.pins == 0 {
			last := len(p.free) - 1
			p.free[i], p.free[last] = p.free[last], nil
			p.free = p.free[:last]
			return fr, nil
		}
	}
	if len(p.frames) < p.capacity {
		fr := &Frame{pool: p, slot: len(p.frames)}
		p.frames = append(p.frames, fr)
		p.bufs.pages = append(p.bufs.pages, nil)
		return fr, nil
	}
	for sweep := 0; sweep < 2*len(p.frames); sweep++ {
		fr := p.frames[p.hand]
		p.hand = (p.hand + 1) % len(p.frames)
		if fr.pins > 0 || fr.loading != nil || !fr.valid {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		return fr, nil
	}
	return nil, ErrNoFreeFrames
}

// Prefetch requests page (f, idx) in the background so a subsequent Fetch
// hits the pool. It never blocks the caller: when the prefetch gate is
// saturated the request is simply dropped (readahead is best-effort). The
// single-flight machinery in Fetch guarantees a concurrent demand fetch of
// the same page coalesces with the prefetch rather than reading twice.
func (p *BufferPool) Prefetch(f FileID, idx int) {
	p.mu.Lock()
	_, cached := p.table[pageKey{file: f, idx: idx}]
	p.mu.Unlock()
	if cached {
		return
	}
	select {
	case p.prefetchGate <- struct{}{}:
	default:
		return // gate saturated; skip
	}
	go func() {
		defer func() { <-p.prefetchGate }()
		fr, err := p.Fetch(f, idx)
		if err != nil {
			return // best-effort: demand fetches will surface the error
		}
		p.prefetched.Add(1)
		p.Unpin(fr)
	}()
}

// Prefetched returns the number of completed background prefetches.
func (p *BufferPool) Prefetched() int64 { return p.prefetched.Load() }

// Contains reports whether the page is currently cached (testing hook).
func (p *BufferPool) Contains(f FileID, idx int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.table[pageKey{file: f, idx: idx}]
	return ok
}

// SetZones records the zone maps of page (f, idx); called by the heap-file
// writer at flush time so zones are known before the page is ever fetched.
func (p *BufferPool) SetZones(f FileID, idx int, zones []ZoneMap) {
	key := pageKey{file: f, idx: idx}
	p.zmu.Lock()
	p.zones[key] = zones
	p.zmu.Unlock()
}

// Zones returns the zone maps of page (f, idx), or nil when unknown (a nil
// result never prunes).
func (p *BufferPool) Zones(f FileID, idx int) []ZoneMap {
	key := pageKey{file: f, idx: idx}
	p.zmu.RLock()
	z := p.zones[key]
	p.zmu.RUnlock()
	return z
}

// NotePruned counts a page fetch avoided by zone-map pruning (the scan
// layers report these; the pool never sees the page).
func (p *BufferPool) NotePruned() { p.pruned.Add(1) }

// Stats returns cumulative counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	frames := len(p.frames)
	p.mu.Unlock()
	return PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Frames:    frames,
	}
}

// DecodeStats returns the cumulative fetch, prune, decode and fault counters.
func (p *BufferPool) DecodeStats() DecodeStats {
	return DecodeStats{
		Fetched:     p.fetched.Load(),
		Pruned:      p.pruned.Load(),
		Decoded:     p.decoded.Load(),
		ColsDecoded: p.colsDecoded.Load(),
		Retries:     p.retries.Load(),
		Quarantined: p.quarCount.Load(),
	}
}
