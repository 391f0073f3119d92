package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
)

// FileID identifies a heap file on a Disk.
type FileID int32

// Disk is the block device abstraction under the buffer pool. Pages are
// PageSize bytes and addressed by (file, page index).
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
}

// DiskProfile models the performance of a simulated disk. The zero value is
// an infinitely fast disk ("memory-resident" storage).
type DiskProfile struct {
	// ReadLatency is charged per page read that reaches the disk.
	ReadLatency time.Duration
	// WriteLatency is charged per page write.
	WriteLatency time.Duration
	// MaxConcurrent bounds in-flight requests (the disk's effective queue
	// depth); <= 0 means unbounded. Concurrent scans past this bound queue,
	// which is what makes redundant I/O hurt under concurrency.
	MaxConcurrent int
}

// HDDProfile approximates the paper's 15kRPM SAS array at a laptop-friendly
// scale: sequential page reads cost tens of microseconds and only a few
// requests proceed in parallel. The absolute numbers are scaled down; what
// experiments depend on is that I/O time dominates disk-resident scans and
// that bandwidth is bounded.
var HDDProfile = DiskProfile{
	ReadLatency:   40 * time.Microsecond,
	WriteLatency:  40 * time.Microsecond,
	MaxConcurrent: 4,
}

// MemDisk is an in-memory Disk with an optional latency/bandwidth model.
// With the zero profile it doubles as "memory-resident" storage. Its pages are
// arena pages (arena.Device) that WritePage takes and Close frees; reads and
// writes copy, so nothing outside the disk ever points into them.
type MemDisk struct {
	profile DiskProfile
	sem     chan struct{}

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
	if profile.MaxConcurrent > 0 {
		d.sem = make(chan struct{}, profile.MaxConcurrent)
	}
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

// charge simulates the latency and bandwidth cost of one request.
func (d *MemDisk) charge(latency time.Duration) {
	if d.sem != nil {
		d.sem <- struct{}{}
		defer func() { <-d.sem }()
	}
	if latency > 0 {
		time.Sleep(latency)
	}
}

// ReadPage reads page idx of file f into buf.
func (d *MemDisk) ReadPage(f FileID, idx int, buf []byte) error {
	d.charge(d.profile.ReadLatency)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(f) >= len(d.files) || idx < 0 || idx >= len(d.files[f]) {
		return fmt.Errorf("storage: read out of range: file %d page %d", f, idx)
	}
	copy(buf, d.files[f][idx])
	d.reads.Add(1)
	return nil
}

// WritePage writes (or appends) a page.
func (d *MemDisk) WritePage(f FileID, idx int, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: write of %d bytes, want %d", len(data), PageSize)
	}
	d.charge(d.profile.WriteLatency)
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
	d.writes.Add(1)
	return nil
}

// Stats returns cumulative I/O counters.
func (d *MemDisk) Stats() DiskStats {
	return DiskStats{PageReads: d.reads.Load(), PageWrites: d.writes.Load()}
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

// FileDisk stores each heap file as one file in a directory. It exists so
// the system can run against a real filesystem (cmd/ssbgen writes with it);
// experiments use MemDisk for repeatability.
type FileDisk struct {
	dir string

	mu    sync.Mutex
	files []*os.File
	sizes []int

	reads  atomic.Int64
	writes atomic.Int64
}

// NewFileDisk creates a disk rooted at dir (created if missing).
func NewFileDisk(dir string) (*FileDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &FileDisk{dir: dir}, nil
}

// CreateFile allocates a new file named name.tbl in the disk directory.
func (d *FileDisk) CreateFile(name string) (FileID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.dir, fmt.Sprintf("%s.tbl", name))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("storage: create file: %w", err)
	}
	d.files = append(d.files, f)
	d.sizes = append(d.sizes, 0)
	return FileID(len(d.files) - 1), nil
}

// NumPages returns the number of pages in the file.
func (d *FileDisk) NumPages(f FileID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(f) >= len(d.files) {
		return 0, fmt.Errorf("storage: unknown file %d", f)
	}
	return d.sizes[f], nil
}

// ReadPage reads page idx of file f into buf.
func (d *FileDisk) ReadPage(f FileID, idx int, buf []byte) error {
	d.mu.Lock()
	if int(f) >= len(d.files) || idx < 0 || idx >= d.sizes[f] {
		d.mu.Unlock()
		return fmt.Errorf("storage: read out of range: file %d page %d", f, idx)
	}
	file := d.files[f]
	d.mu.Unlock()
	if _, err := file.ReadAt(buf[:PageSize], int64(idx)*PageSize); err != nil {
		return fmt.Errorf("storage: read page: %w", err)
	}
	d.reads.Add(1)
	return nil
}

// WritePage writes (or appends) a page.
func (d *FileDisk) WritePage(f FileID, idx int, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: write of %d bytes, want %d", len(data), PageSize)
	}
	d.mu.Lock()
	if int(f) >= len(d.files) || idx < 0 || idx > d.sizes[f] {
		d.mu.Unlock()
		return fmt.Errorf("storage: write out of range: file %d page %d", f, idx)
	}
	file := d.files[f]
	grow := idx == d.sizes[f]
	if grow {
		d.sizes[f]++
	}
	d.mu.Unlock()
	if _, err := file.WriteAt(data, int64(idx)*PageSize); err != nil {
		return fmt.Errorf("storage: write page: %w", err)
	}
	d.writes.Add(1)
	return nil
}

// Stats returns cumulative I/O counters.
func (d *FileDisk) Stats() DiskStats {
	return DiskStats{PageReads: d.reads.Load(), PageWrites: d.writes.Load()}
}

// Close closes all underlying files.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, f := range d.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.files = nil
	return first
}
