package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/types"
)

// PageSize is the size of every on-disk page in bytes: one page of the arena
// that the device, the pool's frames and the decoded columns take theirs from.
const PageSize = arena.PageSize

// Pages are column-major. Every page starts with the page magic and a format
// byte; a page whose header does not carry exactly these is corrupt and never
// decodes:
//
//	[0:2]  0xFFFF page magic
//	[2]    format byte (3)
//	[3:5]  uint16 row count
//	[5:7]  uint16 column count
//	[7:..] column count × uint32 segment offsets (from the page start)
//	then one zone-map entry per column, then one self-contained segment per
//	column, zero-padded to PageSize.
//
// Each segment starts with an encoding tag:
//
//	encRaw:   the raw datum stream — per-datum kind tag + payload — the
//	          fallback for columns mixing value classes.
//	encInt:   kind runs, int64 min, delta width ∈ {0,1,2,4,8}, then one
//	          little-endian unsigned delta of that width per row
//	          (frame-of-reference; NULL rows store delta 0). Covers int,
//	          date and bool rows — anything carried in the int64 payload.
//	encFloat: kind runs, then one 8-byte little-endian float word per row.
//	encDict:  kind runs, dictionary byte length, entry count, the sorted
//	          duplicate-free dictionary (uvarint length + bytes per entry),
//	          code width ∈ {0,1,2}, then one little-endian code per row.
//	          Codes index the sorted dictionary, so code order is string
//	          order and predicates can compare codes instead of strings.
//
// Kind runs are the per-column null/kind header: a uvarint run count
// followed by (kind byte, uvarint length) pairs covering every row. A
// homogeneous column — the overwhelmingly common case — is one run.
const (
	pageMagic  = 0xFFFF
	pageFormat = 3

	// pageFixedHeader is magic (2) + format (1) + nrows (2) + ncols (2).
	pageFixedHeader = 7

	// maxPageRows is the largest row count a page may carry.
	maxPageRows = 0xFFFE
)

// Column segment encodings.
const (
	encRaw byte = iota
	encInt
	encFloat
	encDict
)

// Allowed kind sets per segment encoding: the int64-payload kinds for
// frame-of-reference segments, float for float words, string for
// dictionary codes; NULL rides in any of them.
const (
	kindsInt   = 1<<types.KindNull | 1<<types.KindInt | 1<<types.KindDate | 1<<types.KindBool
	kindsFloat = 1<<types.KindNull | 1<<types.KindFloat
	kindsStr   = 1<<types.KindNull | 1<<types.KindString
)

// Zone maps are per-column min-max summaries persisted in the page header
// region, between the segment offsets and the first segment, readable
// without decoding any segment:
//
//	[dirEnd:..] one entry per column: a flags byte, then — when ZoneInt is
//	            set — int64 min and max (8 bytes LE each), then — when
//	            ZoneStr is set — the minimum and maximum string, each as
//	            uvarint length + bytes.
//
// Int-class bounds cover int, date and bool rows (everything carried in the
// int64 payload); string bounds are the sorted dictionary's first and last
// entries. Bounds span only non-NULL rows — under the engine's NULL→false
// predicate semantics a NULL row can never satisfy a pushed-down predicate,
// so bounds over the non-NULL rows are exactly what a can-match check needs.
// A column with no flag set is unknown (mixed value classes or floats) and
// must never prune.

// ZoneMap flag bits.
const (
	// ZoneInt marks valid int-class bounds in MinI/MaxI.
	ZoneInt uint8 = 1 << iota
	// ZoneStr marks valid string bounds in MinS/MaxS.
	ZoneStr
	// ZoneNullOnly marks a column whose every row is NULL. It is recorded
	// for observability but conservatively never prunes.
	ZoneNullOnly
)

// ZoneMap summarizes one column of one page.
type ZoneMap struct {
	Flags      uint8
	MinI, MaxI int64  // valid when Flags&ZoneInt != 0
	MinS, MaxS string // valid when Flags&ZoneStr != 0
}

// Unknown reports whether the column carries no usable bounds (and so can
// never rule a page out).
func (z ZoneMap) Unknown() bool { return z.Flags&(ZoneInt|ZoneStr) == 0 }

// appendDatum appends the raw encoding of one datum: a kind tag byte, then a
// kind-specific payload (varint for int/date, 8-byte LE for float, 1 byte
// for bool, uvarint length + bytes for string, nothing for NULL).
func appendDatum(buf []byte, d types.Datum) []byte {
	buf = append(buf, byte(d.K))
	switch d.K {
	case types.KindNull:
	case types.KindInt, types.KindDate:
		buf = binary.AppendVarint(buf, d.I)
	case types.KindBool:
		if d.I != 0 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case types.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.F))
	case types.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(d.S)))
		buf = append(buf, d.S...)
	default:
		panic(fmt.Sprintf("storage: cannot encode kind %v", d.K))
	}
	return buf
}

// datumEncSize returns len(appendDatum(nil, d)) without encoding.
func datumEncSize(d types.Datum) int {
	switch d.K {
	case types.KindNull:
		return 1
	case types.KindInt, types.KindDate:
		return 1 + varintSize(d.I)
	case types.KindBool:
		return 2
	case types.KindFloat:
		return 9
	case types.KindString:
		return 1 + uvarintSize(uint64(len(d.S))) + len(d.S)
	default:
		panic(fmt.Sprintf("storage: cannot encode kind %v", d.K))
	}
}

// uvarintSize is the encoded length of v as a uvarint.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintSize is the encoded length of v as a zigzag varint.
func varintSize(v int64) int {
	return uvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}

// decodeDatum decodes one datum from data, returning it and the remaining
// bytes.
func decodeDatum(data []byte) (types.Datum, []byte, error) {
	if len(data) == 0 {
		return types.Null, nil, fmt.Errorf("truncated datum")
	}
	k := types.Kind(data[0])
	data = data[1:]
	switch k {
	case types.KindNull:
		return types.Null, data, nil
	case types.KindInt, types.KindDate:
		v, n := binary.Varint(data)
		if n <= 0 {
			return types.Null, nil, fmt.Errorf("bad varint")
		}
		return types.Datum{K: k, I: v}, data[n:], nil
	case types.KindBool:
		if len(data) < 1 {
			return types.Null, nil, fmt.Errorf("truncated bool")
		}
		return types.NewBool(data[0] != 0), data[1:], nil
	case types.KindFloat:
		if len(data) < 8 {
			return types.Null, nil, fmt.Errorf("truncated float")
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data))), data[8:], nil
	case types.KindString:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return types.Null, nil, fmt.Errorf("truncated string")
		}
		return types.NewString(string(data[n : n+int(l)])), data[n+int(l):], nil
	default:
		return types.Null, nil, fmt.Errorf("unknown kind tag %d", k)
	}
}
