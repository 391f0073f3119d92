package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestFaultDiskInjectsAndHeals(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	f, err := fd.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for i := 0; i < 4; i++ {
		if err := fd.WritePage(f, i, pageOf(page)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)

	// Disarmed: all reads succeed.
	for i := 0; i < 4; i++ {
		if err := readInto(fd, f, i, buf); err != nil {
			t.Fatalf("disarmed read %d: %v", i, err)
		}
	}

	// Fail after 2 more reads.
	fd.FailReadsAfter(2)
	if err := readInto(fd, f, 0, buf); err != nil {
		t.Fatalf("read before threshold: %v", err)
	}
	if err := readInto(fd, f, 1, buf); err != nil {
		t.Fatalf("read before threshold: %v", err)
	}
	if err := readInto(fd, f, 2, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read at threshold: %v, want injected", err)
	}
	if err := readInto(fd, f, 3, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read past threshold: %v, want injected", err)
	}
	if fd.Injected() != 2 {
		t.Errorf("Injected = %d, want 2", fd.Injected())
	}

	// Heal: reads succeed again.
	fd.Heal()
	if err := readInto(fd, f, 0, buf); err != nil {
		t.Fatalf("healed read: %v", err)
	}
	// Writes are never affected.
	if err := fd.WritePage(f, 0, pageOf(page)); err != nil {
		t.Fatalf("write during/after faults: %v", err)
	}
}

func TestFaultDiskDelegatesMetadata(t *testing.T) {
	inner := NewMemDisk(DiskProfile{})
	fd := NewFaultDisk(inner)
	f, _ := fd.CreateFile("t")
	if err := fd.WritePage(f, 0, pageOf(make([]byte, PageSize))); err != nil {
		t.Fatal(err)
	}
	if n, err := fd.NumPages(f); err != nil || n != 1 {
		t.Fatalf("NumPages = %d, %v", n, err)
	}
	if fd.Stats().PageWrites != 1 {
		t.Errorf("stats = %+v", fd.Stats())
	}
}

// TestFaultDiskNeverWritesALentPage: corruption flips bytes of a private copy,
// never of the device's page, which other holders read through their leases.
// A corrupted read fails to open while a lease taken before it still reads
// the original bytes, and once healed the next read lends the same, clean
// page — nothing had to be evicted or rewritten.
func TestFaultDiskNeverWritesALentPage(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)
	f := tbl.File.ID()
	opens := func(page []byte) bool {
		cb, err := DecodePageCols(page, 2)
		if err == nil {
			cb.Release()
		}
		return err == nil
	}
	held, err := fd.ReadPage(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(held.Page)
	fd.CorruptReadsAfter(0)
	bad, err := fd.ReadPage(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd.Corrupted() != 1 || opens(bad.Page) {
		t.Fatalf("corrupted read opened (%d reads corrupted)", fd.Corrupted())
	}
	if &bad.Page[0] == &held.Page[0] {
		t.Fatal("the corrupted read lent the device's page")
	}
	bad.Release()
	if !bytes.Equal(held.Page, orig) || !opens(held.Page) {
		t.Fatal("corruption wrote through to a lent page")
	}
	fd.Heal()
	clean, err := fd.ReadPage(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &clean.Page[0] != &held.Page[0] || !bytes.Equal(clean.Page, orig) || !opens(clean.Page) {
		t.Fatal("the read after Heal is not the device's clean page")
	}
	clean.Release()
	held.Release()
	// Through the pool as well: the page a frame leases is never the copy.
	fd.CorruptReadsAfter(0)
	if _, err := tbl.File.PageCols(2); err == nil {
		t.Fatal("a corrupted fetch opened")
	}
	fd.Heal()
	c.Pool().ClearQuarantine()
	cb, err := tbl.File.PageCols(2)
	if err != nil {
		t.Fatalf("fetch after Heal: %v", err)
	}
	cb.Release()
	if n := fd.Disk.(*MemDisk).leases(); n != 1 {
		t.Fatalf("%d leases outstanding, want the frame's", n)
	}
}
