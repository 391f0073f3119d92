// Package types defines the value model shared by every layer of the system:
// typed datums, rows, and table schemas.
//
// The execution engine (internal/engine), the CJOIN operator (internal/cjoin)
// and the storage manager (internal/storage) all exchange data as rows of
// datums grouped into page-sized batches (internal/batch), mirroring the
// page-based exchange of the original QPipe prototype.
package types

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the runtime type of a Datum.
type Kind uint8

// The supported column kinds. Dates are stored as days since 1970-01-01 in
// the integer payload, which keeps date comparisons as cheap as integer
// comparisons (the TPC-H and SSB predicates are dominated by date ranges).
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IntClass reports whether k's payload is the integer one: int, date and
// bool.
func (k Kind) IntClass() bool { return k == KindInt || k == KindDate || k == KindBool }

// Datum is a single typed value. It is a small value type (no pointers except
// the string header) so rows can be copied with copy() and compared without
// allocation.
type Datum struct {
	K Kind
	I int64   // payload for KindInt, KindDate and KindBool (0/1)
	F float64 // payload for KindFloat
	S string  // payload for KindString
}

// Null is the SQL NULL datum.
var Null = Datum{K: KindNull}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{K: KindInt, I: v} }

// NewFloat returns a floating-point datum.
func NewFloat(v float64) Datum { return Datum{K: KindFloat, F: v} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{K: KindString, S: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	if v {
		return Datum{K: KindBool, I: 1}
	}
	return Datum{K: KindBool}
}

// NewDate returns a date datum holding days since the Unix epoch.
func NewDate(daysSinceEpoch int64) Datum { return Datum{K: KindDate, I: daysSinceEpoch} }

// DateFromYMD builds a date datum from a calendar date.
func DateFromYMD(year, month, day int) Datum {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// YMD splits a date datum into its calendar components.
func (d Datum) YMD() (year, month, day int) {
	t := time.Unix(d.I*86400, 0).UTC()
	return t.Year(), int(t.Month()), t.Day()
}

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.K == KindNull }

// Bool reports the truth value of a boolean datum. Any non-boolean datum is
// false; engine filters therefore treat NULL predicates as "drop row", the
// usual SQL semantics.
func (d Datum) Bool() bool { return d.K == KindBool && d.I != 0 }

// Int returns the integer payload (valid for KindInt, KindDate, KindBool).
func (d Datum) Int() int64 { return d.I }

// Float returns the value as float64, converting integers; useful for
// aggregate arithmetic over int and float operands.
func (d Datum) Float() float64 {
	if d.K == KindFloat {
		return d.F
	}
	return float64(d.I)
}

// class buckets kinds into comparison classes so that the cross-kind order
// is transitive: NULL < numeric (int, float, date, bool — compared by value)
// < string.
func (d Datum) class() int {
	switch d.K {
	case KindNull:
		return 0
	case KindString:
		return 2
	default:
		return 1
	}
}

// Compare returns -1, 0 or +1 ordering d against o. The order is total:
// NULL sorts first, numeric kinds (int, float, date, bool) compare by value,
// and strings sort last, lexicographically. A total order keeps sort and
// group-by well-defined on heterogeneous inputs.
func (d Datum) Compare(o Datum) int {
	dc, oc := d.class(), o.class()
	if dc != oc {
		if dc < oc {
			return -1
		}
		return 1
	}
	switch dc {
	case 0: // both NULL
		return 0
	case 1: // numeric
		if d.K == KindFloat || o.K == KindFloat {
			a, b := d.Float(), o.Float()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		switch {
		case d.I < o.I:
			return -1
		case d.I > o.I:
			return 1
		default:
			return 0
		}
	default: // string
		switch {
		case d.S < o.S:
			return -1
		case d.S > o.S:
			return 1
		default:
			return 0
		}
	}
}

// Equal reports whether two datums compare equal.
func (d Datum) Equal(o Datum) bool { return d.Compare(o) == 0 }

// Hash folds the datum into an FNV-1a style 64-bit hash seeded with h.
// Datums that compare equal hash equally (floats holding integral values
// hash as their integer counterpart).
func (d Datum) Hash(h uint64) uint64 {
	const prime = 1099511628211
	step := func(h uint64, b byte) uint64 { return (h ^ uint64(b)) * prime }
	word := func(h uint64, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h = step(h, byte(v>>(8*i)))
		}
		return h
	}
	switch d.K {
	case KindNull:
		return step(h, 0xff)
	case KindFloat:
		if f := d.F; f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1<<62 {
			return word(h, uint64(int64(f)))
		}
		return word(h, math.Float64bits(d.F))
	case KindString:
		for i := 0; i < len(d.S); i++ {
			h = step(h, d.S[i])
		}
		return h
	default:
		return word(h, uint64(d.I))
	}
}

// hashKeySeed seeds the FNV fallback of HashKey (the FNV-1a offset basis,
// matching the seed the CJOIN dimension tables historically used).
const hashKeySeed uint64 = 14695981039346656037

// mix64 is the splitmix64 finalizer: a multiply-shift mixer that diffuses a
// 64-bit integer into a well-distributed hash in a handful of instructions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashKeyInt is Datum.HashKey for an integer-class payload (int, date,
// bool), exposed so columnar kernels can hash raw int64 arrays without
// building datums. HashKeyInt(v) == Datum{K: KindInt, I: v}.HashKey().
func HashKeyInt(v int64) uint64 { return mix64(uint64(v)) }

// HashKeyFloat is Datum.HashKey for a float payload: integral values hash as
// their integer counterpart (so cross-kind numeric equality keeps hashing
// equal, within the same 2^62 bound Hash uses), everything else through the
// FNV fallback.
func HashKeyFloat(f float64) uint64 {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1<<62 {
		return mix64(uint64(int64(f)))
	}
	return Datum{K: KindFloat, F: f}.Hash(hashKeySeed)
}

// HashKeyString is Datum.HashKey for a string payload.
func HashKeyString(s string) uint64 {
	return Datum{K: KindString, S: s}.Hash(hashKeySeed)
}

// HashKey returns a well-mixed 64-bit hash of the datum for hash-table
// keying. Integer-class datums (int, date, bool) take a multiply-shift fast
// path over the int64 payload — the dominant case for star-schema join keys —
// as do floats holding integral values, so that datums comparing equal hash
// equally for magnitudes below 2^62 (the same bound Hash uses; beyond it,
// Compare's float promotion makes cross-kind equality lossy and neither hash
// tracks it). Strings and non-integral floats fall back to the FNV path of
// Hash. HashKey delegates to the per-payload HashKeyInt/HashKeyFloat so the
// columnar kernels hashing raw payload arrays are bit-identical by
// construction — the typed hash of a column batch and the hash of a key
// datum meet in one group table.
func (d Datum) HashKey() uint64 {
	switch d.K {
	case KindInt, KindDate, KindBool:
		return HashKeyInt(d.I)
	case KindFloat:
		return HashKeyFloat(d.F)
	default:
		return d.Hash(hashKeySeed)
	}
}

// String renders the datum for display and for expression signatures.
func (d Datum) String() string {
	switch d.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.I, 10)
	case KindFloat:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KindString:
		return d.S
	case KindDate:
		y, m, dd := d.YMD()
		return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
	case KindBool:
		if d.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// SigString renders the datum unambiguously for expression signatures (kind-tagged
// so that int 1 and bool true do not collide).
func (d Datum) SigString() string {
	return d.K.String() + ":" + d.String()
}
