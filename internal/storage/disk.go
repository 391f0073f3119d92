package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
)

// FileID identifies a heap file on a Disk.
type FileID int32

// Disk is the block device abstraction under the buffer pool. Pages are
// PageSize bytes and addressed by (file, page index). MemDisk is the one
// device; the interface is what lets a FaultDisk wrap it, which the fault
// curve and the chaos tests put in its place.
type Disk interface {
	// CreateFile allocates a new empty file.
	CreateFile(name string) (FileID, error)
	// NumPages returns the number of pages in the file.
	NumPages(f FileID) (int, error)
	// ReadPage lends page idx of file f: the Lease's Page is PageSize bytes
	// the caller reads, never writes, until it calls Release.
	ReadPage(f FileID, idx int) (Lease, error)
	// WritePage writes a page: fill writes the PageSize bytes of a fresh
	// page of the device's, which replaces page idx of file f or, when idx
	// == NumPages(f), is appended. A write that fails may not have called
	// fill, or may have called it and discarded the page.
	WritePage(f FileID, idx int, fill func(page []byte)) error
	// Stats returns cumulative I/O counters.
	Stats() DiskStats
	// Close releases resources.
	Close() error
}

// DiskStats are cumulative I/O counters, used by the harness to report the
// I/O savings of shared scans and the GQP.
type DiskStats struct {
	PageReads  int64
	PageWrites int64
	// DeviceNs is the device time charged to served requests: exactly
	// PageReads × ReadLatency + PageWrites × WriteLatency on a MemDisk, and
	// 0 on a disk that models no latency. Unlike wall time it does not move
	// with the host's scheduler.
	DeviceNs int64
}

// DiskProfile models the performance of a simulated disk. The zero value is
// an infinitely fast disk ("memory-resident" storage).
type DiskProfile struct {
	// ReadLatency is the device time of one served page read.
	ReadLatency time.Duration
	// WriteLatency is the device time of one served page write.
	WriteLatency time.Duration
}

// HDDProfile approximates the paper's 15kRPM SAS array at a laptop-friendly
// scale: 40 µs of device time per page on one queue, a ceiling of 25 000
// pages/s shared by every scan. The absolute numbers are scaled down; what
// experiments depend on is that I/O time dominates disk-resident scans and
// that redundant reads by concurrent scans queue behind each other.
var HDDProfile = DiskProfile{
	ReadLatency:  40 * time.Microsecond,
	WriteLatency: 40 * time.Microsecond,
}

// minSleep is the host timer's resolution: a shorter sleep lasts about this
// long anyway, and a longer one is rounded up to a multiple of it. Callers
// sleep off their debt to the device clock in whole multiples.
const minSleep = time.Millisecond

// MemDisk is an in-memory Disk with an optional latency model. With the zero
// profile it doubles as "memory-resident" storage. Its pages are arena pages
// (arena.Device) that WritePage takes and has its caller fill, and a read lends
// the page itself rather than a copy: each page counts its references, one
// for the disk and one per Lease. An overwrite installs a fresh page
// (copy-on-write), so lent bytes never change, and Close drops the disk's
// references. A page is freed when its last reference goes, so a lease
// outlives an overwrite and the disk's Close.
//
// The latency model is a device clock: the disk is one queue, and every
// served request starts when both it and the device are ready and finishes
// one profile latency later. A caller returns at once while its request
// finishes less than minSleep from now and otherwise sleeps until it does,
// to within minSleep, so a sweep runs at the device's rate without a timer
// per page and concurrent scans share one device's throughput.
type MemDisk struct {
	profile DiskProfile

	clock     sync.Mutex
	busyUntil time.Time
	deviceNs  atomic.Int64

	store *pageStore

	reads  atomic.Int64
	writes atomic.Int64
}

// pageStore is a MemDisk's pages and their reference counts, apart from the
// disk so that leases, which point here, do not keep the disk reachable: a
// disk dropped without Close is finalized in the same collection as the pool
// frames and batch sources that lease from it, whichever finalizer runs first.
type pageStore struct {
	mu    sync.RWMutex
	files []memFile
	// gone counts the references left on pages no file holds any more —
	// overwritten while lent, or lent when the disk closed — by page.
	gone map[*byte]int32
}

type memFile struct {
	pages [][]byte
	refs  []atomic.Int32 // per page: the disk's reference plus one per lease
}

// A Lease is a page a Disk lent: Page is PageSize bytes that stay as they are,
// and must not be written, until Release. The zero Lease lends nothing.
type Lease struct {
	Page  []byte
	store *pageStore // nil when Page is the holder's own (FaultDisk's corrupted copy)
	file  FileID
	idx   int
}

// Release returns the lease; Page must not be touched afterwards.
func (l Lease) Release() { l.release(arena.Free) }

// release returns the lease, handing the page to free if it was the last
// reference: arena.Reclaim when the holder is a finalizer.
func (l Lease) release(free func([]byte)) {
	if l.store != nil {
		l.store.unref(l, free)
	}
}

// dup takes one more reference on the leased page: a second lease, returned
// on its own. The caller holds l.
func (l Lease) dup() Lease {
	if l.store != nil {
		l.store.ref(l)
	}
	return l
}

// NewMemDisk returns an empty in-memory disk with the given profile.
func NewMemDisk(profile DiskProfile) *MemDisk {
	d := &MemDisk{profile: profile, store: new(pageStore)}
	runtime.SetFinalizer(d, func(d *MemDisk) { d.store.close(arena.Reclaim) })
	return d
}

// CreateFile allocates a new empty file.
func (d *MemDisk) CreateFile(name string) (FileID, error) {
	s := d.store
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files = append(s.files, memFile{})
	return FileID(len(s.files) - 1), nil
}

// NumPages returns the number of pages in the file.
func (d *MemDisk) NumPages(f FileID) (int, error) {
	s := d.store
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(f) >= len(s.files) {
		return 0, fmt.Errorf("storage: unknown file %d", f)
	}
	return len(s.files[f].pages), nil
}

// charge queues one served request of the given latency on the device clock
// and returns once the request finishes less than minSleep from now.
func (d *MemDisk) charge(latency time.Duration) {
	if latency <= 0 {
		return
	}
	d.deviceNs.Add(int64(latency))
	d.clock.Lock()
	now := time.Now()
	start := d.busyUntil
	if start.Before(now) {
		start = now
	}
	finish := start.Add(latency)
	d.busyUntil = finish
	d.clock.Unlock()
	if owed := finish.Sub(now); owed >= minSleep {
		time.Sleep(owed.Truncate(minSleep))
	}
}

// ReadPage lends page idx of file f; only a served read is charged.
func (d *MemDisk) ReadPage(f FileID, idx int) (Lease, error) {
	s := d.store
	s.mu.RLock()
	if int(f) >= len(s.files) || idx < 0 || idx >= len(s.files[f].pages) {
		s.mu.RUnlock()
		return Lease{}, fmt.Errorf("storage: read out of range: file %d page %d", f, idx)
	}
	file := &s.files[f]
	file.refs[idx].Add(1)
	l := Lease{Page: file.pages[idx], store: s, file: f, idx: idx}
	s.mu.RUnlock()
	d.reads.Add(1)
	d.charge(d.profile.ReadLatency)
	return l, nil
}

// WritePage writes (or appends) a page: fill writes a page the disk takes
// of the arena and keeps, so the bytes are written once, where they stay.
// Only a served write is charged.
func (d *MemDisk) WritePage(f FileID, idx int, fill func(page []byte)) error {
	page := arena.Take(arena.Device)
	fill(page)
	if err := d.store.install(f, idx, page); err != nil {
		arena.Free(page)
		return err
	}
	d.writes.Add(1)
	d.charge(d.profile.WriteLatency)
	return nil
}

// install makes page, filled, page idx of file f.
func (s *pageStore) install(f FileID, idx int, page []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(f) >= len(s.files) {
		return fmt.Errorf("storage: unknown file %d", f)
	}
	file := &s.files[f]
	switch {
	case idx == len(file.pages):
		file.pages = append(file.pages, page)
		file.refs = append(file.refs, atomic.Int32{})
	case idx >= 0 && idx < len(file.pages): // leases of the old page keep its bytes
		s.drop(file.pages[idx], file.refs[idx].Load(), arena.Free)
		file.pages[idx] = page
	default:
		return fmt.Errorf("storage: write out of range: file %d page %d", f, idx)
	}
	file.refs[idx].Store(1)
	return nil
}

// drop removes the disk's reference from a page no file holds any more,
// which had refs references: the page is freed now, or at its last lease.
// The caller holds the write lock.
func (s *pageStore) drop(page []byte, refs int32, free func([]byte)) {
	if refs == 1 {
		free(page)
		return
	}
	if s.gone == nil {
		s.gone = make(map[*byte]int32)
	}
	s.gone[&page[0]] = refs - 1
}

// ref adds a reference to a leased page: on the file's count while the file
// still holds the page, else on its count in gone. The caller's lease keeps
// the page counted in one of the two throughout.
func (s *pageStore) ref(l Lease) {
	s.mu.RLock()
	if file := s.current(l); file != nil {
		file.refs[l.idx].Add(1)
		s.mu.RUnlock()
		return
	}
	s.mu.RUnlock()
	s.mu.Lock()
	s.gone[&l.Page[0]]++
	s.mu.Unlock()
}

// current returns the file of a leased page while the file still holds it,
// nil once the page was overwritten or the disk closed. The caller holds mu.
func (s *pageStore) current(l Lease) *memFile {
	if int(l.file) < len(s.files) {
		if file := &s.files[l.file]; l.idx < len(file.pages) && &file.pages[l.idx][0] == &l.Page[0] {
			return file
		}
	}
	return nil
}

// unref drops a lease's reference on its page.
func (s *pageStore) unref(l Lease, free func([]byte)) {
	s.mu.RLock()
	if file := s.current(l); file != nil {
		file.refs[l.idx].Add(-1) // the disk's reference remains
		s.mu.RUnlock()
		return
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	key := &l.Page[0]
	if s.gone[key]--; s.gone[key] == 0 {
		delete(s.gone, key)
		free(l.Page)
	}
}

// Stats returns cumulative I/O counters.
func (d *MemDisk) Stats() DiskStats {
	return DiskStats{PageReads: d.reads.Load(), PageWrites: d.writes.Load(), DeviceNs: d.deviceNs.Load()}
}

// Close drops the disk's reference on every page: reads and writes fail
// afterwards, and a page still lent is freed at its last Release.
func (d *MemDisk) Close() error {
	d.store.close(arena.Free)
	return nil
}

func (s *pageStore) close(free func([]byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, file := range s.files {
		for i, pg := range file.pages {
			s.drop(pg, file.refs[i].Load(), free)
		}
	}
	s.files = nil
}
