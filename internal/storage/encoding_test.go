package storage

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
)

func TestPageBuilderPacksAndDecodes(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}
	b := newPageBuilder(kinds)
	var want []types.Row
	r := rand.New(rand.NewSource(1))
	for {
		row := make(types.Row, len(kinds))
		for i, k := range kinds {
			if r.Intn(6) == 0 {
				row[i] = types.Null
			} else {
				row[i] = randDatum(r, k)
			}
		}
		if ok, _ := b.offer(row); !ok {
			break
		}
		want = append(want, row)
	}
	if len(want) == 0 {
		t.Fatal("no rows fit in a page")
	}
	page := b.page()
	if len(page) != PageSize {
		t.Fatalf("page size = %d", len(page))
	}
	cb, err := DecodePageCols(page, len(kinds))
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()
	if got := cb.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d rows, want %d (or content mismatch)", len(got), len(want))
	}
	if !b.empty() {
		t.Error("builder must be empty after finish")
	}
}

func TestDecodePageEmpty(t *testing.T) {
	b := newPageBuilder(nil)
	page := b.page()
	cb, err := DecodePageCols(page, 3)
	if err != nil || cb.Len() != 0 {
		t.Fatalf("empty page: cb=%v err=%v", cb, err)
	}
	cb.Release()
}
