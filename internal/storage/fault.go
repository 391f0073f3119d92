package storage

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// ErrInjected is the failure produced by a FaultDisk.
var ErrInjected = errors.New("storage: injected fault")

// FaultDisk wraps a Disk and injects faults — read errors, write errors,
// corrupt bytes and per-page poisoning — the failure-injection hook used to
// verify that I/O errors propagate cleanly through the engine and the CJOIN
// pipeline (blast-radius containment) instead of wedging them.
//
// Faults compose: per-file targeting gates every mode, read/write thresholds
// arm independently, corruption flips bytes of otherwise-successful reads,
// and poisoned pages fail permanently (classified non-retryable, so the
// fetch path quarantines them without burning retries).
type FaultDisk struct {
	Disk

	// Read-error injection: reads with ordinal in [failAfter, failUntil)
	// fail while armed. failUntil = MaxInt64 means "until Heal".
	failAfter atomic.Int64
	failUntil atomic.Int64
	reads     atomic.Int64
	armed     atomic.Bool

	// Write-error injection: writes with ordinal >= wFailAfter fail while
	// wArmed.
	wFailAfter atomic.Int64
	writes     atomic.Int64
	wArmed     atomic.Bool

	// Corrupt-byte injection: successful reads with ordinal >= corruptAfter
	// have their page header bytes flipped while cArmed — the page reads
	// "fine" but fails to decode.
	corruptAfter atomic.Int64
	creads       atomic.Int64
	cArmed       atomic.Bool

	// Per-file targeting: when >= 0, only this file's I/O is faulted.
	target atomic.Int64

	// Poisoned pages fail every read permanently. rateTh is the threshold of
	// the seeded per-page hash (rate-based poisoning for chaos workloads);
	// pages holds explicit single-page poisons.
	rateTh atomic.Uint64
	seed   atomic.Uint64
	pmu    sync.Mutex
	pages  map[pageKey]struct{}

	injected  atomic.Int64
	injectedW atomic.Int64
	corrupted atomic.Int64
}

// NewFaultDisk wraps d; every fault starts disarmed and all files are
// targeted.
func NewFaultDisk(d Disk) *FaultDisk {
	f := &FaultDisk{Disk: d}
	f.target.Store(-1)
	return f
}

// Target restricts fault injection to one file (other files' I/O passes
// through untouched).
func (f *FaultDisk) Target(file FileID) { f.target.Store(int64(file)) }

// TargetAll removes the per-file restriction.
func (f *FaultDisk) TargetAll() { f.target.Store(-1) }

func (f *FaultDisk) targeted(file FileID) bool {
	t := f.target.Load()
	return t < 0 || FileID(t) == file
}

// FailReadsAfter arms the read fault: the n-th subsequent read (0 = the next
// one) and every read after it fail until Heal is called.
func (f *FaultDisk) FailReadsAfter(n int64) {
	f.failAfter.Store(f.reads.Load() + n)
	f.failUntil.Store(math.MaxInt64)
	f.armed.Store(true)
}

// FailNextReads fails exactly the next k reads, then auto-heals — the
// transient-burst shape the retry path is built for.
func (f *FaultDisk) FailNextReads(k int64) {
	now := f.reads.Load()
	f.failAfter.Store(now)
	f.failUntil.Store(now + k)
	f.armed.Store(true)
}

// FailWritesAfter arms the write fault: the n-th subsequent write (0 = the
// next one) and every write after it fail until Heal is called.
func (f *FaultDisk) FailWritesAfter(n int64) {
	f.wFailAfter.Store(f.writes.Load() + n)
	f.wArmed.Store(true)
}

// CorruptReadsAfter arms corruption: the n-th subsequent successful read (0 =
// the next one) and every one after it have their page bytes flipped until
// Heal is called.
func (f *FaultDisk) CorruptReadsAfter(n int64) {
	f.corruptAfter.Store(f.creads.Load() + n)
	f.cArmed.Store(true)
}

// PoisonPage marks one page as permanently unreadable until Heal.
func (f *FaultDisk) PoisonPage(file FileID, idx int) {
	f.pmu.Lock()
	if f.pages == nil {
		f.pages = make(map[pageKey]struct{})
	}
	f.pages[pageKey{file: file, idx: idx}] = struct{}{}
	f.pmu.Unlock()
}

// PoisonRate poisons a deterministic pseudo-random fraction of pages: page
// (file, idx) is permanently unreadable iff its seeded hash falls under
// rate. The same (rate, seed) always poisons the same pages, so workloads
// can compute expected blast radius with Poisoned.
func (f *FaultDisk) PoisonRate(rate float64, seed uint64) {
	if rate <= 0 {
		f.rateTh.Store(0)
		return
	}
	if rate >= 1 {
		f.rateTh.Store(math.MaxUint64)
	} else {
		f.rateTh.Store(uint64(rate * float64(math.MaxUint64)))
	}
	f.seed.Store(seed)
}

// Poisoned reports whether page (file, idx) is currently poisoned (by
// PoisonPage or PoisonRate), honoring the file target.
func (f *FaultDisk) Poisoned(file FileID, idx int) bool {
	if !f.targeted(file) {
		return false
	}
	f.pmu.Lock()
	_, explicit := f.pages[pageKey{file: file, idx: idx}]
	f.pmu.Unlock()
	if explicit {
		return true
	}
	th := f.rateTh.Load()
	return th > 0 && mix64(uint64(file)<<32^uint64(uint32(idx))^f.seed.Load()) < th
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed page hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Heal disarms every fault mode and clears all poisons.
func (f *FaultDisk) Heal() {
	f.armed.Store(false)
	f.wArmed.Store(false)
	f.cArmed.Store(false)
	f.rateTh.Store(0)
	f.pmu.Lock()
	f.pages = nil
	f.pmu.Unlock()
}

// Injected returns the number of failed reads (poisons included).
func (f *FaultDisk) Injected() int64 { return f.injected.Load() }

// InjectedWrites returns the number of failed writes.
func (f *FaultDisk) InjectedWrites() int64 { return f.injectedW.Load() }

// Corrupted returns the number of reads whose bytes were flipped.
func (f *FaultDisk) Corrupted() int64 { return f.corrupted.Load() }

// ReadPage fails while armed and inside the fault window, fails poisoned
// pages permanently, corrupts bytes while corruption is armed, and otherwise
// delegates.
func (f *FaultDisk) ReadPage(file FileID, idx int) (Lease, error) {
	ord := f.reads.Add(1) - 1
	if !f.targeted(file) {
		return f.Disk.ReadPage(file, idx)
	}
	if f.Poisoned(file, idx) {
		f.injected.Add(1)
		// Permanent: the fetch path quarantines without retrying.
		return Lease{}, MarkPermanent(ErrInjected)
	}
	if f.armed.Load() && ord >= f.failAfter.Load() && ord < f.failUntil.Load() {
		f.injected.Add(1)
		return Lease{}, ErrInjected
	}
	l, err := f.Disk.ReadPage(file, idx)
	if err != nil {
		return Lease{}, err
	}
	if f.cArmed.Load() {
		if c := f.creads.Add(1) - 1; c >= f.corruptAfter.Load() {
			// Flip the page header so the page fails header validation — a
			// clean model of bit rot that read "successfully". The lent page
			// is the device's and other readers': flip a private copy.
			page := bytes.Clone(l.Page)
			l.Release()
			for i := 0; i < len(page) && i < 18; i++ {
				page[i] ^= 0xFF
			}
			l = Lease{Page: page}
			f.corrupted.Add(1)
		}
	}
	return l, nil
}

// WritePage fails while the write fault is armed and past the threshold,
// else delegates. Reads and writes arm independently.
func (f *FaultDisk) WritePage(file FileID, idx int, fill func(page []byte)) error {
	ord := f.writes.Add(1) - 1
	if f.wArmed.Load() && ord >= f.wFailAfter.Load() && f.targeted(file) {
		f.injectedW.Add(1)
		return ErrInjected
	}
	return f.Disk.WritePage(file, idx, fill)
}
