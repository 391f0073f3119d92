package storage

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arena"
)

// pageOf is a WritePage fill that writes data, a whole page.
func pageOf(data []byte) func(page []byte) {
	return func(page []byte) { copy(page, data) }
}

// readInto copies page idx of file f into buf and returns the lease at once:
// the read of a test that keeps or edits a page's bytes.
func readInto(d Disk, f FileID, idx int, buf []byte) error {
	l, err := d.ReadPage(f, idx)
	if err != nil {
		return err
	}
	copy(buf, l.Page)
	l.Release()
	return nil
}

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk(DiskProfile{})
	f, err := d.CreateFile("t1")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.NumPages(f); n != 0 {
		t.Fatalf("fresh file has %d pages", n)
	}
	p0 := bytes.Repeat([]byte{0xAA}, PageSize)
	p1 := bytes.Repeat([]byte{0xBB}, PageSize)
	if err := d.WritePage(f, 0, pageOf(p0)); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(f, 1, pageOf(p1)); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.NumPages(f); n != 2 {
		t.Fatalf("NumPages = %d, want 2", n)
	}
	buf := make([]byte, PageSize)
	if err := readInto(d, f, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, p1) {
		t.Error("page 1 contents mismatch")
	}
	// Overwrite: a fresh page replaces the old one.
	if err := d.WritePage(f, 0, pageOf(p1)); err != nil {
		t.Fatal(err)
	}
	if err := readInto(d, f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, p1) {
		t.Error("overwritten page 0 mismatch")
	}
	// Error paths.
	if err := readInto(d, f, 5, buf); err == nil {
		t.Error("read past end must fail")
	}
	if err := d.WritePage(f, 7, pageOf(p0)); err == nil {
		t.Error("write past end+1 must fail")
	}
	if err := readInto(d, FileID(99), 0, buf); err == nil {
		t.Error("unknown file must fail")
	}
	st := d.Stats()
	if st.PageReads < 2 || st.PageWrites < 3 {
		t.Errorf("stats = %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMemDiskEndToEnd generates a table through an 8-frame pool, then reads
// it back through eviction and two circular scans, the second attached
// mid-sweep: each delivers every row exactly once, with the values it was
// written with.
func TestMemDiskEndToEnd(t *testing.T) {
	disk := NewMemDisk(DiskProfile{})
	defer disk.Close()
	cat := NewCatalog(disk, 8)
	defer cat.Pool().Close()
	const n = 5000
	tbl := loadNumbered(t, cat, "t", n)
	npages := tbl.File.NumPages()
	if npages <= 16 {
		t.Fatalf("table has %d pages, want more than twice the pool", npages)
	}
	pad := strings.Repeat("p", 100)
	// step reads one page of cur into seen, checking every row against what
	// loadNumbered wrote; it reports false at the end of the sweep.
	step := func(cur *ScanCursor, seen map[int64]int) bool {
		cb, _, ok, err := cur.NextCols()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
		defer cb.Release()
		keys, pads := cb.Col(0), cb.Col(1)
		for i := 0; i < cb.Len(); i++ {
			k := keys.I[i]
			if got := pads.Datum(i).S; got != pad+strconv.FormatInt(k, 10) {
				t.Fatalf("row %d read back pad %q", k, got)
			}
			seen[k]++
		}
		return true
	}
	first := tbl.Attach()
	defer first.Close()
	seen := [2]map[int64]int{{}, {}}
	for p := 0; p < npages/2; p++ {
		step(first, seen[0])
	}
	second := tbl.Attach()
	defer second.Close()
	for more := true; more; {
		a, b := step(first, seen[0]), step(second, seen[1])
		more = a || b
	}
	for s, m := range seen {
		if len(m) != n {
			t.Fatalf("scan %d saw %d distinct rows, want %d", s, len(m), n)
		}
		for k, c := range m {
			if c != 1 {
				t.Fatalf("scan %d delivered row %d %d times", s, k, c)
			}
		}
	}
	if ev := cat.Pool().Stats().Evictions; ev == 0 {
		t.Fatal("no page was evicted: the readback never left the pool's frames")
	}
}

// newClockDisk returns a MemDisk with one file of one page.
func newClockDisk(t *testing.T, prof DiskProfile) (*MemDisk, FileID) {
	t.Helper()
	d := NewMemDisk(prof)
	t.Cleanup(func() { d.Close() })
	f, _ := d.CreateFile("t")
	if err := d.WritePage(f, 0, pageOf(make([]byte, PageSize))); err != nil {
		t.Fatal(err)
	}
	return d, f
}

// checkDeviceNs asserts the device clock's invariant: device time is exactly
// the latency of the requests the disk served.
func checkDeviceNs(t *testing.T, d *MemDisk) {
	t.Helper()
	st := d.Stats()
	want := st.PageReads*int64(d.profile.ReadLatency) + st.PageWrites*int64(d.profile.WriteLatency)
	if st.DeviceNs != want {
		t.Errorf("DeviceNs = %d, want %d reads × %v + %d writes × %v = %d",
			st.DeviceNs, st.PageReads, d.profile.ReadLatency, st.PageWrites, d.profile.WriteLatency, want)
	}
}

// takesDeviceTime runs reads against a fresh disk of the given read latency
// and asserts the device clock's two promises: DeviceNs is exactly want, and
// the wall time is want ± 10 %. The clock cannot finish early, so every
// attempt must reach the lower bound; a noisy host can only make a run
// late, so the upper bound holds when one of three attempts meets it.
func takesDeviceTime(t *testing.T, what string, lat, want time.Duration, reads func(d *MemDisk, f FileID)) {
	t.Helper()
	var took []time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		d, f := newClockDisk(t, DiskProfile{ReadLatency: lat})
		start := time.Now()
		reads(d, f)
		el := time.Since(start)
		checkDeviceNs(t, d)
		if got := d.Stats().DeviceNs; got != int64(want) {
			t.Fatalf("%s: DeviceNs = %v, want %v", what, time.Duration(got), want)
		}
		if el < want*9/10 {
			t.Fatalf("%s took %v, less than %v of device time - 10 %%", what, el, want)
		}
		if el <= want*11/10 {
			return
		}
		took = append(took, el)
	}
	t.Errorf("%s took %v in three attempts, want %v ± 10 %%", what, took, want)
}

// One goroutine's back-to-back reads are charged their full latency each:
// the sweep takes the device's time, not a timer tick per page.
func TestMemDiskDeviceClockSequential(t *testing.T) {
	const lat = 200 * time.Microsecond
	const n = 200 // 40 ms of device time
	takesDeviceTime(t, "200 sequential 200µs reads", lat, n*lat, func(d *MemDisk, f FileID) {
		buf := make([]byte, PageSize)
		for i := 0; i < n; i++ {
			if err := readInto(d, f, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// A 40 µs page costs 40 µs, not the ~1 ms a per-request timer sleep lasts.
func TestMemDiskDeviceClockNoTimerPerPage(t *testing.T) {
	d, f := newClockDisk(t, HDDProfile)
	buf := make([]byte, PageSize)
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := readInto(d, f, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el >= 40*time.Millisecond {
		t.Errorf("100 reads of 40µs took %v, want < 40ms (4ms of device time)", el)
	}
	checkDeviceNs(t, d)
}

// The device is one queue: k readers of m pages each take k × m latencies,
// the same as one reader of k × m pages.
func TestMemDiskDeviceClockOneQueue(t *testing.T) {
	const lat = 250 * time.Microsecond
	const k, m = 4, 40 // 40 ms of device time
	takesDeviceTime(t, "4 readers × 40 reads of 250µs", lat, k*m*lat, func(d *MemDisk, f FileID) {
		var wg sync.WaitGroup
		errs := make(chan error, k)
		for g := 0; g < k; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, PageSize)
				for i := 0; i < m; i++ {
					if err := readInto(d, f, 0, buf); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// The zero profile is memory: it never advances the clock, so it never
// sleeps (a caller sleeps only on a debt the clock records).
func TestMemDiskDeviceClockZeroProfile(t *testing.T) {
	d, f := newClockDisk(t, DiskProfile{})
	buf := make([]byte, PageSize)
	for i := 0; i < 1000; i++ {
		if err := readInto(d, f, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.DeviceNs != 0 || st.PageReads != 1000 || st.PageWrites != 1 {
		t.Errorf("stats = %+v, want 1000 reads, 1 write and no device time", st)
	}
	if !d.busyUntil.IsZero() {
		t.Errorf("the zero profile advanced the device clock to %v", d.busyUntil)
	}
}

// Only served requests are charged: an out-of-range or unknown-file read or
// write costs no device time, and a failed write gives back the page it took.
func TestMemDiskDeviceClockFailedRequestsAreFree(t *testing.T) {
	d, f := newClockDisk(t, DiskProfile{ReadLatency: 30 * time.Millisecond, WriteLatency: 50 * time.Millisecond})
	buf := make([]byte, PageSize)
	device := arenaBaseline().PagesDevice // no finalizer of an earlier test's disk moves it
	start := time.Now()
	failing := []error{
		readInto(d, f, 1, buf),
		readInto(d, f, -1, buf),
		readInto(d, FileID(9), 0, buf),
		d.WritePage(f, 5, pageOf(buf)),
		d.WritePage(FileID(9), 0, pageOf(buf)),
	}
	for i, err := range failing {
		if err == nil {
			t.Fatalf("failing request %d succeeded", i)
		}
	}
	if el := time.Since(start); el >= 30*time.Millisecond {
		t.Errorf("five failing requests took %v; a failure must not be charged", el)
	}
	if now := arena.Snapshot().PagesDevice; now != device {
		t.Errorf("device pages %d after the failed writes, %d before", now, device)
	}
	if err := readInto(d, f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(f, 1, pageOf(buf)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.PageReads != 1 || st.PageWrites != 2 {
		t.Fatalf("stats = %+v, want 1 served read and 2 served writes", st)
	}
	checkDeviceNs(t, d)
}

// DeviceNs stays exact under concurrent readers and writers (run with -race).
func TestMemDiskDeviceClockConcurrentExact(t *testing.T) {
	d, f := newClockDisk(t, DiskProfile{ReadLatency: 3 * time.Microsecond, WriteLatency: 7 * time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 300; i++ {
				var err error
				switch {
				case g%2 == 0:
					err = d.WritePage(f, 0, pageOf(buf))
				case i%10 == 0:
					_ = readInto(d, f, 99, buf) // fails, free
				default:
					err = readInto(d, f, 0, buf)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := d.Stats()
	if st.PageWrites != 1+4*300 || st.PageReads != 4*270 {
		t.Errorf("stats = %+v, want %d writes and %d reads", st, 1+4*300, 4*270)
	}
	checkDeviceNs(t, d)
}

// FaultDisk passes the device clock through, and an injected fault never
// reaches the MemDisk, so it charges nothing.
func TestFaultDiskPassesDeviceNs(t *testing.T) {
	const lat = 40 * time.Microsecond
	inner, f := newClockDisk(t, DiskProfile{ReadLatency: lat, WriteLatency: lat})
	fd := NewFaultDisk(inner)
	buf := make([]byte, PageSize)
	if err := readInto(fd, f, 0, buf); err != nil {
		t.Fatal(err)
	}
	fd.FailNextReads(3)
	for i := 0; i < 3; i++ {
		if err := readInto(fd, f, 0, buf); err == nil {
			t.Fatal("armed read succeeded")
		}
	}
	fd.PoisonPage(f, 0)
	if err := readInto(fd, f, 0, buf); err == nil {
		t.Fatal("poisoned read succeeded")
	}
	fd.Heal()
	fd.FailWritesAfter(0)
	if err := fd.WritePage(f, 0, pageOf(buf)); err == nil {
		t.Fatal("armed write succeeded")
	}
	st := fd.Stats()
	if st != inner.Stats() {
		t.Errorf("FaultDisk stats %+v differ from the MemDisk's %+v", st, inner.Stats())
	}
	if st.PageReads != 1 || st.PageWrites != 1 || st.DeviceNs != int64(2*lat) {
		t.Errorf("stats = %+v, want one read and one write = %v of device time", st, 2*lat)
	}
}

// TestMemDiskRewriteOfLentPageIsCopyOnWrite: WritePage over a lent page
// installs a fresh one. A batch opened before the rewrite, columns undecoded,
// still decodes the old values — while its frame is resident and after the
// frame was evicted — and the old page is freed at its last lease; a fetch
// after EvictFile sees the new values.
func TestMemDiskRewriteOfLentPageIsCopyOnWrite(t *testing.T) {
	base := arenaBaseline()
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 4)
	tbl := intTable(t, cat, 3000)
	f, np := tbl.File.ID(), tbl.File.NumPages()
	old, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	a := old.Col(0)
	next := make([]byte, PageSize)
	if err := readInto(disk, f, 1, next); err != nil {
		t.Fatal(err)
	}
	if err := disk.WritePage(f, 0, pageOf(next)); err != nil {
		t.Fatal(err)
	}
	if got := arena.Snapshot().PagesDevice - base.PagesDevice; got != int64(np+1) {
		t.Fatalf("%d device pages after rewriting one of %d while lent, want the old one kept", got, np)
	}
	b := old.Col(1) // the frame is still resident on the old page
	cat.Pool().EvictFile(f)
	fresh, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(old.Len()); fresh.Col(0).I[0] != want || fresh.Col(1).I[0] != 3*want {
		t.Fatalf("fetch after EvictFile reads a[0]=%d b[0]=%d, want page 1's %d, %d", fresh.Col(0).I[0], fresh.Col(1).I[0], want, 3*want)
	}
	fresh.Release()
	c := old.Col(2) // decoded after the eviction, from the lease the batch inherited
	for i := 0; i < old.Len(); i++ {
		if a.I[i] != int64(i) || b.I[i] != int64(3*i) || c.F[i] != float64(i)/2 {
			t.Fatalf("row %d of the rewritten page's old batch: %d %d %v", i, a.I[i], b.I[i], c.F[i])
		}
	}
	old.Release()
	if got := arena.Snapshot().PagesDevice - base.PagesDevice; got != int64(np) || disk.leases() != 1 {
		t.Fatalf("%d device pages and %d leases after the old batch's Release, want %d and the frame's", got, disk.leases(), np)
	}
	if err := cat.Pool().Close(); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if got := arena.Snapshot(); got.PagesInUse != base.PagesInUse || got.Reclaimed != base.Reclaimed {
		t.Fatalf("arena after Close: %+v, baseline %+v", got, base)
	}
}
