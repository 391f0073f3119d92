package workload

import (
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

// A write fault while a generator loads its fact table fails the generator
// with the injected error and leaks nothing: the loader's goroutine is gone
// once the generator returns, and the failed table holds exactly the k pages
// written before the fault.
func TestGenerateFaultLeaksNothing(t *testing.T) {
	const sf, k = 0.01, 5
	// faulted runs gen on a fresh disk whose writes fail from the skip+k-th
	// on, and returns the catalog it loaded into.
	faulted := func(t *testing.T, skip int, gen func(*storage.Catalog) error) *storage.Catalog {
		t.Helper()
		disk := storage.NewMemDisk(storage.DiskProfile{})
		t.Cleanup(func() { disk.Close() })
		fd := storage.NewFaultDisk(disk)
		cat := storage.NewCatalog(fd, 4)
		base := runtime.NumGoroutine()
		fd.FailWritesAfter(int64(skip + k))
		if err := gen(cat); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("generate = %v, want the injected write error", err)
		}
		// A goroutine that signalled its exit may still be counted a moment.
		waitGoroutines(t, base)
		return cat
	}

	t.Run("ssb", func(t *testing.T) {
		// The four dimension tables load first: count their pages on a clean
		// disk, so the fault lands k pages into lineorder.
		clean := storage.NewMemDisk(storage.DiskProfile{})
		db, err := ssb.Generate(storage.NewCatalog(clean, 4), sf, 1)
		if err != nil {
			t.Fatal(err)
		}
		dims := 0
		for _, tbl := range []*storage.Table{db.Date, db.Customer, db.Supplier, db.Part} {
			dims += tbl.File.NumPages()
		}
		clean.Close()
		cat := faulted(t, dims, func(cat *storage.Catalog) error {
			_, err := ssb.GenerateOpts(cat, sf, 1, ssb.GenOptions{})
			return err
		})
		if n := cat.MustTable("lineorder").File.NumPages(); n != k {
			t.Errorf("lineorder has %d pages, want the %d written before the fault", n, k)
		}
	})

	t.Run("tpch", func(t *testing.T) {
		cat := faulted(t, 0, func(cat *storage.Catalog) error {
			_, err := tpch.Generate(cat, sf, 1)
			return err
		})
		if n := cat.MustTable("lineitem").File.NumPages(); n != k {
			t.Errorf("lineitem has %d pages, want the %d written before the fault", n, k)
		}
	})
}

// waitGoroutines fails t unless the goroutine count falls back to base: a
// goroutine that signalled its exit may still be counted a moment.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the failed load, %d before", n, base)
	}
}

// A fill that writes a datum of another kind than its column's fails the
// load with the *storage.KindError Append returns, stops the fill and leaks
// nothing: the rows before the refused one are stored, and the loader's
// goroutine is gone once Load returns.
func TestLoadWrongKindLeaksNothing(t *testing.T) {
	disk := storage.NewMemDisk(storage.DiskProfile{})
	t.Cleanup(func() { disk.Close() })
	tbl, err := storage.NewCatalog(disk, 4).CreateTable("t", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n, bad = 100 * 1024, 5000
	base := runtime.NumGoroutine()
	filled := 0
	err = tbl.File.Load(n, func(i int, row *storage.RowWriter) {
		filled++
		row.Int(0, int64(i))
		if i == bad {
			row.Float(1, 0.5)
		} else {
			row.Str(1, "v"+strconv.Itoa(i%50))
		}
	})
	var ke *storage.KindError
	if !errors.As(err, &ke) {
		t.Fatalf("Load = %v, want a *storage.KindError", err)
	}
	if want := (storage.KindError{Table: "t", Column: "v", Want: types.KindString, Got: types.KindFloat}); *ke != want {
		t.Errorf("KindError = %+v, want %+v", *ke, want)
	}
	if got := tbl.File.NumRows(); got != bad {
		t.Errorf("NumRows = %d, want the %d rows before the refused one", got, bad)
	}
	if filled >= n {
		t.Errorf("fill ran for all %d rows after the refusal", n)
	}
	waitGoroutines(t, base)
}
