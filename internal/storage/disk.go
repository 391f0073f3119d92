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
	// ReadPage reads page idx of file f into buf (len(buf) == PageSize).
	ReadPage(f FileID, idx int, buf []byte) error
	// WritePage writes a page; idx == NumPages(f) appends a new page.
	WritePage(f FileID, idx int, data []byte) error
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
// (arena.Device) that WritePage takes and Close frees; reads and writes copy,
// so nothing outside the disk ever points into them.
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

	mu    sync.RWMutex
	files [][][]byte
	names []string

	reads  atomic.Int64
	writes atomic.Int64
}

// NewMemDisk returns an empty in-memory disk with the given profile.
func NewMemDisk(profile DiskProfile) *MemDisk {
	d := &MemDisk{profile: profile}
	runtime.SetFinalizer(d, func(d *MemDisk) { d.release(arena.Reclaim) })
	return d
}

// CreateFile allocates a new empty file.
func (d *MemDisk) CreateFile(name string) (FileID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files = append(d.files, nil)
	d.names = append(d.names, name)
	return FileID(len(d.files) - 1), nil
}

// NumPages returns the number of pages in the file.
func (d *MemDisk) NumPages(f FileID) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(f) >= len(d.files) {
		return 0, fmt.Errorf("storage: unknown file %d", f)
	}
	return len(d.files[f]), nil
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

// ReadPage reads page idx of file f into buf; only a served read is charged.
func (d *MemDisk) ReadPage(f FileID, idx int, buf []byte) error {
	d.mu.RLock()
	if int(f) >= len(d.files) || idx < 0 || idx >= len(d.files[f]) {
		d.mu.RUnlock()
		return fmt.Errorf("storage: read out of range: file %d page %d", f, idx)
	}
	copy(buf, d.files[f][idx])
	d.mu.RUnlock()
	d.reads.Add(1)
	d.charge(d.profile.ReadLatency)
	return nil
}

// WritePage writes (or appends) a page; only a served write is charged.
func (d *MemDisk) WritePage(f FileID, idx int, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: write of %d bytes, want %d", len(data), PageSize)
	}
	if err := d.write(f, idx, data); err != nil {
		return err
	}
	d.writes.Add(1)
	d.charge(d.profile.WriteLatency)
	return nil
}

func (d *MemDisk) write(f FileID, idx int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(f) >= len(d.files) {
		return fmt.Errorf("storage: unknown file %d", f)
	}
	pages := d.files[f]
	switch {
	case idx == len(pages):
		cp := arena.Take(arena.Device)
		copy(cp, data)
		d.files[f] = append(pages, cp)
	case idx >= 0 && idx < len(pages):
		copy(pages[idx], data)
	default:
		return fmt.Errorf("storage: write out of range: file %d page %d", f, idx)
	}
	return nil
}

// Stats returns cumulative I/O counters.
func (d *MemDisk) Stats() DiskStats {
	return DiskStats{PageReads: d.reads.Load(), PageWrites: d.writes.Load(), DeviceNs: d.deviceNs.Load()}
}

// Close frees the in-memory pages; reads and writes fail afterwards.
func (d *MemDisk) Close() error {
	d.release(arena.Free)
	return nil
}

func (d *MemDisk) release(free func([]byte)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, pages := range d.files {
		for _, pg := range pages {
			free(pg)
		}
	}
	d.files = nil
}
