package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func randRow(r *rand.Rand, ncols int) types.Row {
	row := make(types.Row, ncols)
	for i := range row {
		switch r.Intn(6) {
		case 0:
			row[i] = types.Null
		case 1:
			row[i] = types.NewInt(r.Int63() - r.Int63())
		case 2:
			row[i] = types.NewFloat(r.NormFloat64() * 1e6)
		case 3:
			b := make([]byte, r.Intn(40))
			for j := range b {
				b[j] = byte(r.Intn(256))
			}
			row[i] = types.NewString(string(b))
		case 4:
			row[i] = types.NewDate(r.Int63n(30000))
		default:
			row[i] = types.NewBool(r.Intn(2) == 0)
		}
	}
	return row
}

type rowGen struct{ R types.Row }

func (rowGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(rowGen{R: randRow(r, 1+r.Intn(8))})
}

// The raw datum stream is what encRaw segments (columns mixing value
// classes) are made of; these tests pin it datum by datum.

func TestRawDatumStreamRoundTrip(t *testing.T) {
	f := func(g rowGen) bool {
		var buf []byte
		for _, d := range g.R {
			n := len(buf)
			buf = appendDatum(buf, d)
			if len(buf)-n != datumEncSize(d) {
				return false
			}
		}
		for _, want := range g.R {
			got, rest, err := decodeDatum(buf)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
			buf = rest
		}
		return len(buf) == 0
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRawDatumTruncated(t *testing.T) {
	for _, d := range []types.Datum{types.NewString("hello"), types.NewInt(1 << 40), types.NewFloat(1.5), types.NewBool(true)} {
		buf := appendDatum(nil, d)
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := decodeDatum(buf[:cut]); err == nil {
				t.Errorf("%v: decode of %d/%d bytes must fail", d, cut, len(buf))
			}
		}
	}
}

func TestRawDatumBadKindTag(t *testing.T) {
	if _, _, err := decodeDatum([]byte{0xEE}); err == nil {
		t.Error("unknown kind tag must fail")
	}
}

func TestPageBuilderPacksAndDecodes(t *testing.T) {
	b := newPageBuilder()
	var want []types.Row
	r := rand.New(rand.NewSource(1))
	for {
		row := randRow(r, 4)
		if !b.tryAppend(row) {
			break
		}
		want = append(want, row)
	}
	if len(want) == 0 {
		t.Fatal("no rows fit in a page")
	}
	page := b.finish()
	if len(page) != PageSize {
		t.Fatalf("page size = %d", len(page))
	}
	cb, err := DecodePageCols(page, 4)
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
	b := newPageBuilder()
	page := b.finish()
	cb, err := DecodePageCols(page, 3)
	if err != nil || cb.Len() != 0 {
		t.Fatalf("empty page: cb=%v err=%v", cb, err)
	}
	cb.Release()
}
