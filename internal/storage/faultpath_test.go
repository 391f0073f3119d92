package storage

import (
	"encoding/binary"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// faultCatalog builds a catalog over a FaultDisk (disarmed) holding one
// multi-page table, with a pool small enough that pages keep reaching the
// disk.
func faultCatalog(t *testing.T, poolPages, rows int) (*Catalog, *FaultDisk, *Table) {
	t.Helper()
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, poolPages)
	tbl, err := c.CreateTable("orders", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 120)
	for i := 0; i < rows; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString(pad + strconv.Itoa(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if tbl.File.NumPages() < 3 {
		t.Fatalf("fixture too small: %d pages", tbl.File.NumPages())
	}
	return c, fd, tbl
}

func TestFetchRetriesTransientFaultThenSucceeds(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)
	c.Pool().SetRetryPolicy(3, time.Microsecond)

	// A burst of 2 transient failures is inside the 3-retry budget: the
	// fetch succeeds and nothing is quarantined.
	fd.FailNextReads(2)
	fr, err := c.Pool().Fetch(tbl.File.ID(), 0)
	if err != nil {
		t.Fatalf("fetch through transient burst: %v", err)
	}
	c.Pool().Unpin(fr)
	s := c.Pool().DecodeStats()
	if s.Retries != 2 {
		t.Errorf("Retries = %d, want 2", s.Retries)
	}
	if s.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0", s.Quarantined)
	}
	if fd.Injected() != 2 {
		t.Errorf("Injected = %d, want 2", fd.Injected())
	}
}

func TestExhaustedRetriesQuarantinePage(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)
	c.Pool().SetRetryPolicy(2, time.Microsecond)

	fd.FailReadsAfter(0)
	_, err := c.Pool().Fetch(tbl.File.ID(), 0)
	var pe *PageError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PageError", err)
	}
	if pe.Table != "orders" || pe.Page != 0 {
		t.Errorf("PageError = %+v, want table \"orders\" page 0", pe)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("PageError does not unwrap to the injected cause: %v", err)
	}
	s := c.Pool().DecodeStats()
	if s.Retries != 2 || s.Quarantined != 1 {
		t.Errorf("Retries=%d Quarantined=%d, want 2/1", s.Retries, s.Quarantined)
	}

	// The quarantine is sticky and fails fast: the second fetch returns the
	// same canonical error without touching the disk.
	injBefore := fd.Injected()
	_, err2 := c.Pool().Fetch(tbl.File.ID(), 0)
	if err2 != err {
		t.Errorf("second fetch error %v is not the canonical quarantine error %v", err2, err)
	}
	if fd.Injected() != injBefore {
		t.Error("quarantined fetch reached the disk")
	}

	// Blast radius: after the disk heals, other pages of the same file load
	// fine while page 0 stays quarantined.
	fd.Heal()
	fr, err := c.Pool().Fetch(tbl.File.ID(), 1)
	if err != nil {
		t.Fatalf("healthy sibling page: %v", err)
	}
	c.Pool().Unpin(fr)
	if _, err := c.Pool().Fetch(tbl.File.ID(), 0); err == nil {
		t.Fatal("quarantine lifted without ClearQuarantine")
	}

	// ClearQuarantine is the repair hook: page 0 loads again.
	c.Pool().ClearQuarantine()
	fr, err = c.Pool().Fetch(tbl.File.ID(), 0)
	if err != nil {
		t.Fatalf("after ClearQuarantine: %v", err)
	}
	c.Pool().Unpin(fr)
}

func TestPermanentFaultSkipsRetries(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)
	// A generous budget that must not be used: poisoned pages are classified
	// permanent, so the fetch quarantines without burning a single retry.
	c.Pool().SetRetryPolicy(5, time.Millisecond)

	fd.PoisonPage(tbl.File.ID(), 1)
	start := time.Now()
	_, err := c.Pool().Fetch(tbl.File.ID(), 1)
	if err == nil {
		t.Fatal("poisoned fetch succeeded")
	}
	s := c.Pool().DecodeStats()
	if s.Retries != 0 {
		t.Errorf("Retries = %d, want 0 for a permanent fault", s.Retries)
	}
	if s.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("permanent fault took %v — backoff was paid anyway", elapsed)
	}
}

func TestCorruptPageQuarantinesPermanently(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)

	// The read "succeeds" but the bytes are rotten from the page magic on:
	// the decode fails, and the page is quarantined exactly like an
	// unreadable one.
	fd.CorruptReadsAfter(0)
	_, err := tbl.File.PageCols(0)
	var pe *PageError
	if !errors.As(err, &pe) {
		t.Fatalf("corrupt decode err = %v, want *PageError", err)
	}
	if !strings.Contains(err.Error(), "bad page magic") {
		t.Errorf("corruption did not reach the page magic: %v", err)
	}
	if IsTransient(err) {
		t.Error("corrupt-page error classified transient")
	}
	if fd.Corrupted() == 0 {
		t.Fatal("corruption never fired")
	}
	if s := c.Pool().DecodeStats(); s.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined)
	}

	// Healing the disk is not enough — the quarantine is sticky until the
	// operator clears it, at which point the (now clean) bytes decode fine.
	fd.Heal()
	if _, err := tbl.File.PageCols(0); err == nil {
		t.Fatal("quarantine lifted by Heal alone")
	}
	c.Pool().ClearQuarantine()
	cb, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatalf("after repair: %v", err)
	}
	if cb.Len() == 0 {
		t.Error("repaired page decoded empty")
	}
	cb.Release()
}

// TestWriteFaultFailsFlushAndIsCounted: the only page writes are the heap
// file's flushes, and a failed one surfaces to the loader instead of leaving
// a hole in the file.
func TestWriteFaultFailsFlushAndIsCounted(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 2)
	tbl, err := c.CreateTable("w", types.NewSchema(types.Column{Name: "v", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.File.Append(types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	fd.FailWritesAfter(0)
	if err := tbl.File.Seal(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Seal over a failing disk: err = %v, want injected", err)
	}
	if fd.InjectedWrites() != 1 {
		t.Errorf("InjectedWrites = %d, want 1", fd.InjectedWrites())
	}
	if n := tbl.File.NumPages(); n != 0 {
		t.Errorf("NumPages = %d after a failed flush, want 0", n)
	}
}

// TestRejectedHeaderNeverYieldsRows is the one-format contract: a page whose
// header is not exactly (magic, format byte 4) is corrupt, a format-3 page of
// byte-aligned deltas among them. It never decodes to rows — not even to an
// empty batch — and never publishes zone maps, and
// read through the pool it is a permanent, quarantined PageError.
func TestRejectedHeaderNeverYieldsRows(t *testing.T) {
	c, _, tbl := faultCatalog(t, 4, 3000)
	good := make([]byte, PageSize)
	if err := readInto(c.Disk(), tbl.File.ID(), 1, good); err != nil {
		t.Fatal(err)
	}
	if cb, err := DecodePageCols(good, 2); err != nil || cb.Len() == 0 {
		t.Fatalf("fixture page does not decode: %v", err)
	} else {
		cb.Release()
	}
	with := func(edit func(p []byte)) []byte {
		p := append([]byte(nil), good...)
		edit(p)
		return p
	}
	// A row-major page as format 1 laid it out: a uint16 row count, then per
	// datum a kind tag and its payload (int 7, "a", int 8, "b").
	rowMajor := []byte{2, 0, 1, 14, 3, 1, 'a', 1, 16, 3, 1, 'b'}
	cases := map[string][]byte{
		"empty":           {},
		"short":           good[:pageFixedHeader-1],
		"magic-low-byte":  with(func(p []byte) { p[0] ^= 0x01 }),
		"magic-high-byte": with(func(p []byte) { p[1] ^= 0x80 }),
		"magic-zero":      with(func(p []byte) { p[0], p[1] = 0, 0 }),
		"format-0":        with(func(p []byte) { p[2] = 0 }),
		"format-1":        with(func(p []byte) { p[2] = 1 }),
		"format-2":        with(func(p []byte) { p[2] = 2 }),
		"format-3":        with(func(p []byte) { p[2] = 3 }),
		"format-255":      with(func(p []byte) { p[2] = 0xFF }),
		"row-major":       append(rowMajor, make([]byte, PageSize-len(rowMajor))...),
		"all-zero":        make([]byte, PageSize),
	}
	for name, page := range cases {
		t.Run(name, func(t *testing.T) {
			if cb, err := DecodePageCols(page, 2); err == nil {
				t.Fatalf("decoded %d rows from a rejected header", cb.Len())
			}
			if z := ReadPageZones(page); z != nil {
				t.Fatalf("rejected header published zones %+v", z)
			}
			if len(page) != PageSize {
				return // not a whole page: cannot sit on a disk
			}
			// Through the pool: overwrite page 1 on disk, drop it from the
			// pool, fetch.
			if err := c.Disk().WritePage(tbl.File.ID(), 1, pageOf(page)); err != nil {
				t.Fatal(err)
			}
			c.Pool().ClearQuarantine()
			c.Pool().EvictFile(tbl.File.ID())
			before := c.Pool().DecodeStats()
			_, err := tbl.File.PageCols(1)
			var pe *PageError
			if !errors.As(err, &pe) || pe.Page != 1 || IsTransient(err) {
				t.Fatalf("err = %v, want a permanent *PageError for page 1", err)
			}
			after := c.Pool().DecodeStats()
			if after.Quarantined != before.Quarantined+1 || after.Decoded != before.Decoded {
				t.Fatalf("Quarantined %d→%d Decoded %d→%d, want +1 / +0",
					before.Quarantined, after.Quarantined, before.Decoded, after.Decoded)
			}
			// The sibling pages are untouched.
			cb, err := tbl.File.PageCols(0)
			if err != nil {
				t.Fatalf("healthy sibling page: %v", err)
			}
			cb.Release()
		})
	}
}

func TestFaultTargetingIsPerFile(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 8)
	mk := func(name string) *Table {
		tbl, err := c.CreateTable(name, types.NewSchema(
			types.Column{Name: "v", Kind: types.KindInt}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := tbl.File.Append(types.Row{types.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.File.Seal(); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	t1, t2 := mk("victim"), mk("bystander")
	c.Pool().SetRetryPolicy(0, 0)

	fd.Target(t1.File.ID())
	fd.FailReadsAfter(0)
	if _, err := t1.File.PageCols(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted file: err = %v, want injected", err)
	}
	cb, err := t2.File.PageCols(0)
	if err != nil {
		t.Fatalf("untargeted file failed: %v", err)
	}
	cb.Release()
	if fd.Injected() != 1 {
		t.Errorf("Injected = %d, want 1 (victim only)", fd.Injected())
	}
}

// TestFetchRetryZeroAlloc pins the fault-free fetch path at zero heap
// allocations: the retry/quarantine machinery must cost nothing when
// disarmed.
func TestFetchRetryZeroAlloc(t *testing.T) {
	c, _, tbl := faultCatalog(t, 8, 1000)
	pool, f := c.Pool(), tbl.File.ID()
	// Warm the page in, then measure the hit path.
	fr, err := pool.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fr)
	allocs := testing.AllocsPerRun(200, func() {
		fr, err := pool.Fetch(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr)
	})
	if allocs != 0 {
		t.Errorf("fault-free Fetch allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkFetchRetryDisarmed is the CI-gated benchmark: a pool hit with the
// retry and quarantine machinery present but disarmed must stay at 0
// allocs/op.
func BenchmarkFetchRetryDisarmed(b *testing.B) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 8)
	tbl, err := c.CreateTable("bench", types.NewSchema(
		types.Column{Name: "v", Kind: types.KindInt}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		b.Fatal(err)
	}
	pool, f := c.Pool(), tbl.File.ID()
	fr, err := pool.Fetch(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	pool.Unpin(fr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := pool.Fetch(f, 0)
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(fr)
	}
}

// TestSegmentFaultInUnreadColumnFailsAtFetch: first-touch decode must not
// move a fault. A segment corrupted in a column the reader never asks for —
// truncated fixed-width payload, bad width byte, a kind run of a foreign
// kind, runs of two kinds in one column, an out-of-range dictionary code —
// still fails the fetch, for every
// reader, with the page's one permanent, quarantined PageError; nothing is
// opened or decoded, and the sibling pages are untouched. (CorruptReadsAfter
// flips the header, so these rewrite the stored page at the segment's
// directory offset instead.)
func TestSegmentFaultInUnreadColumnFailsAtFetch(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 4)
	tbl, err := c.CreateTable("orders", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
		types.Column{Name: "tail", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 120)
	for i := 0; i < 3000; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewString(pad + strconv.Itoa(i)), types.NewInt(int64(7 * i))}
		if i%10 == 3 {
			row[2] = types.Null // tail's kind runs alternate int and NULL
		}
		if err := tbl.File.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	const ncols, victim = 3, 1
	good := make([]byte, PageSize)
	if err := readInto(c.Disk(), tbl.File.ID(), victim, good); err != nil {
		t.Fatal(err)
	}
	nrows := int(binary.LittleEndian.Uint16(good[3:5]))
	// segAt returns column col's segment offset and the offset of what
	// follows its kind runs.
	segAt := func(p []byte, col int, allowed uint8) (off, body int) {
		off = int(binary.LittleEndian.Uint32(p[pageFixedHeader+4*col:]))
		_, _, rest, err := decodeKindRuns(p[off+1:], nrows, allowed, nil)
		if err != nil {
			t.Fatalf("fixture column %d: %v", col, err)
		}
		return off, len(p) - len(rest)
	}
	cases := []struct {
		name, want string
		reads      int // the column the reader asks for: never the corrupted one
		edit       func(p []byte)
	}{
		{"truncated-fixed-width-payload", "truncated int segment payload", 0, func(p []byte) {
			// tail is the page's last segment: slide it until the page end
			// cuts five bytes off its payload of nrows × width bits.
			off, body := segAt(p, 2, kindsInt)
			segLen := body - off + 9 + packedLen(nrows, uint(p[body+8]))
			newOff := PageSize - segLen + 5
			copy(p[newOff:], p[off:off+segLen-5])
			binary.LittleEndian.PutUint32(p[pageFixedHeader+4*2:], uint32(newOff))
		}},
		{"bad-width-byte", "bad frame-of-reference width 65", 0, func(p []byte) {
			_, body := segAt(p, 2, kindsInt)
			p[body+8] = 65
		}},
		{"foreign-kind-run", "not valid for this segment encoding", 2, func(p []byte) {
			off, _ := segAt(p, 0, kindsInt)
			_, n := binary.Uvarint(p[off+1:]) // run count, then the first run's kind byte
			p[off+1+n] = byte(types.KindString)
		}},
		{"two-kinds-in-one-column", "kind runs name int and date", 0, func(p []byte) {
			off, _ := segAt(p, 2, kindsInt)
			setSecondValueRun(p[off+1:], types.KindDate)
		}},
		{"dictionary-code-out-of-range", "out of range", 0, func(p []byte) {
			_, body := segAt(p, 1, kindsStr)
			dictLen, n1 := binary.Uvarint(p[body:])
			ndict, n2 := binary.Uvarint(p[body+n1:])
			codes := body + n1 + n2 + int(dictLen)
			width := int(p[codes])
			if width == 0 || ndict >= 1<<width {
				t.Fatalf("fixture dictionary: %d entries at code width %d", ndict, width)
			}
			for k := 0; k < width; k++ { // row 0's code: all ones, past the last entry
				p[codes+1+k/8] |= 1 << (k % 8)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			page := append([]byte(nil), good...)
			tc.edit(page)
			if err := c.Disk().WritePage(tbl.File.ID(), victim, pageOf(page)); err != nil {
				t.Fatal(err)
			}
			c.Pool().ClearQuarantine()
			c.Pool().EvictFile(tbl.File.ID())
			before := c.Pool().DecodeStats()
			var first *PageError
			for reader := 0; reader < 3; reader++ {
				cb, err := tbl.File.PageCols(victim)
				if err == nil {
					_ = cb.Col(tc.reads)
					cb.Release()
					t.Fatalf("reader %d of column %d fetched a page corrupt elsewhere", reader, tc.reads)
				}
				var pe *PageError
				if !errors.As(err, &pe) || pe.Page != victim || pe.Table != "orders" || IsTransient(err) {
					t.Fatalf("reader %d: err = %v, want a permanent *PageError for page %d", reader, err, victim)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("reader %d: err = %v, want cause %q", reader, err, tc.want)
				}
				if first == nil {
					first = pe
				} else if pe != first {
					t.Fatalf("reader %d got a different PageError value", reader)
				}
			}
			after := c.Pool().DecodeStats()
			if after.Quarantined != before.Quarantined+1 || after.Decoded != before.Decoded {
				t.Fatalf("Quarantined %d→%d Decoded %d→%d, want +1 / +0",
					before.Quarantined, after.Quarantined, before.Decoded, after.Decoded)
			}
			for _, sibling := range []int{0, 2} {
				cb, err := tbl.File.PageCols(sibling)
				if err != nil {
					t.Fatalf("healthy sibling page %d: %v", sibling, err)
				}
				if cb.Col(tc.reads).Len() != cb.Len() {
					t.Fatalf("sibling page %d column %d short", sibling, tc.reads)
				}
				cb.Release()
			}
		})
	}
}
