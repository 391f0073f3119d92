package storage

import (
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
//	[2]    format byte (4)
//	[3:5]  uint16 row count
//	[5:7]  uint16 column count
//	[7:..] column count × uint32 segment offsets (from the page start)
//	then one zone-map entry per column, then one self-contained segment per
//	column, zero-padded to PageSize.
//
// A column holds NULLs and values of its declared kind, so one encoding fits
// every row of it. Each segment starts with that encoding's tag (any other
// tag, 0 among them, makes the page corrupt):
//
//	encInt:   kind runs, int64 min, delta width w in bits (0–64, the bits
//	          of max − min), then the rows' deltas from min bit-packed at
//	          w bits a row (frame-of-reference; NULL rows store delta 0).
//	          Covers int, date and bool rows — anything carried in the
//	          int64 payload.
//	encFloat: kind runs, then one 8-byte little-endian float word per row.
//	encDict:  kind runs, dictionary byte length, entry count, the sorted
//	          duplicate-free dictionary (uvarint length + bytes per entry),
//	          code width w in bits (0–16, the bits of entries − 1), then the
//	          rows' codes bit-packed at w bits a row (NULL rows store 0).
//	          Codes index the sorted dictionary, so code order is string
//	          order and predicates can compare codes instead of strings.
//
// A bit-packed payload holds row i's value in the w bits at bit offset i×w,
// least significant bit first, in ceil(rows × w / 8) bytes (packed.go): no
// block headers and no exceptions, so every row reads alone.
//
// A column of no value on a page (every row NULL) is an encInt segment over
// an empty frame, whatever its kind.
//
// Kind runs are the per-column null/kind header: a uvarint run count
// followed by (kind byte, uvarint length) pairs covering every row. A
// column without NULLs is one run.
const (
	pageMagic  = 0xFFFF
	pageFormat = 4

	// pageFixedHeader is magic (2) + format (1) + nrows (2) + ncols (2).
	pageFixedHeader = 7

	// maxPageRows is the largest row count a page may carry.
	maxPageRows = 0xFFFE
)

// Column segment encodings.
const (
	encInt byte = 1 + iota
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
// A column with no bounds flag set is unknown (a float column, or one whose
// every row is NULL) and must never prune.

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

// uvarintSize is the encoded length of v as a uvarint.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
