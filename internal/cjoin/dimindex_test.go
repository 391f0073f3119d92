package cjoin

import (
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// dimOf builds a dimension table over the given key datums (payload column
// carries the insertion index).
func dimOf(t *testing.T, keys []types.Datum) *dimTable {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 64, true)
	dim, err := cat.CreateTable("d", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := dim.File.Append(types.Row{k, types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dim.File.Seal(); err != nil {
		t.Fatal(err)
	}
	tab, err := newDimTable(0, DimSpec{Table: dim, FactKeyCol: 0, DimKeyCol: 0})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDenseDirectIndex checks the dense direct index against the reference
// chained-map semantics: first-match on duplicate keys, misses outside the
// range, lookupInt agreeing with lookup, and integral-float probes finding
// their integer counterparts.
func TestDenseDirectIndex(t *testing.T) {
	keys := make([]types.Datum, 0, 300)
	for i := 0; i < 300; i++ {
		keys = append(keys, types.NewInt(int64(100+i%200))) // dense 100..299 with duplicates
	}
	tab := dimOf(t, keys)
	if tab.direct == nil {
		t.Fatal("dense int keys did not build a direct index")
	}
	ref := newRefLookup(tab)
	for i := int64(50); i < 350; i++ {
		k := types.NewInt(i)
		if got, want := tab.lookup(k), ref.lookup(k); got != want {
			t.Errorf("lookup(%d) = %d, want %d", i, got, want)
		}
		if got, want := tab.lookupInt(i), ref.lookup(k); got != want {
			t.Errorf("lookupInt(%d) = %d, want %d", i, got, want)
		}
		f := types.NewFloat(float64(i))
		if got, want := tab.lookup(f), ref.lookup(f); got != want {
			t.Errorf("lookup(float %d) = %d, want %d", i, got, want)
		}
	}
	if got := tab.lookup(types.NewFloat(150.5)); got != -1 {
		t.Errorf("lookup(150.5) = %d, want -1", got)
	}
	if got := tab.lookup(types.NewString("150")); got != -1 {
		t.Errorf("lookup(\"150\") = %d, want -1", got)
	}
}

// TestSparseKeysFallBackToHash checks that a wide key range skips the
// direct index and the hash path still answers correctly.
func TestSparseKeysFallBackToHash(t *testing.T) {
	var keys []types.Datum
	for i := 0; i < 64; i++ {
		keys = append(keys, types.NewInt(int64(i)*1_000_003))
	}
	tab := dimOf(t, keys)
	if tab.direct != nil {
		t.Fatal("sparse keys unexpectedly built a direct index")
	}
	ref := newRefLookup(tab)
	for i := int64(0); i < 70; i++ {
		k := types.NewInt(i * 1_000_003)
		if got, want := tab.lookupInt(i*1_000_003), ref.lookup(k); got != want {
			t.Errorf("lookupInt(%d) = %d, want %d", k.I, got, want)
		}
	}
	if got := tab.lookupInt(17); got != -1 {
		t.Errorf("lookupInt(17) = %d, want -1", got)
	}
}

// TestStringDictionaryEncoding checks the dictionary satellite directly:
// string-keyed tables carry a dictionary, duplicate keys share a code, and
// probe results match the reference for hits, misses and cross-kind keys.
func TestStringDictionaryEncoding(t *testing.T) {
	var keys []types.Datum
	for i := 0; i < 120; i++ {
		keys = append(keys, types.NewString(fmt.Sprintf("key-%d", i%40)))
	}
	tab := dimOf(t, keys)
	if tab.strDict == nil {
		t.Fatal("string keys did not build a dictionary")
	}
	if len(tab.strDict) != 40 {
		t.Fatalf("dictionary has %d distinct codes, want 40", len(tab.strDict))
	}
	for i := range keys {
		if want := tab.codes[int32(tab.strDict[keys[i].S])]; tab.codes[i] != want {
			t.Fatalf("entry %d: code %d disagrees with dictionary %d", i, tab.codes[i], want)
		}
	}
	ref := newRefLookup(tab)
	for i := 0; i < 60; i++ {
		k := types.NewString(fmt.Sprintf("key-%d", i))
		if got, want := tab.lookup(k), ref.lookup(k); got != want {
			t.Errorf("lookup(%v) = %d, want %d", k, got, want)
		}
	}
	if got := tab.lookup(types.NewInt(3)); got != -1 {
		t.Errorf("int probe of string-keyed table = %d, want -1", got)
	}
	if got := tab.lookupInt(3); got != -1 {
		t.Errorf("lookupInt on string-keyed table = %d, want -1", got)
	}
}
