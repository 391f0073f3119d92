package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/types"
)

// The admission oracle: a reference that knows nothing of the builder's
// incremental state. It folds each staged row into plain per-column facts —
// the set of non-NULL kinds seen, kind runs, the int-class frame, the distinct
// strings — derives each column's encoding from the kinds seen, and charges the
// size bound the page format has always charged. The builder must admit a row
// exactly when that bound, with the row staged, fits PageSize, must refuse a
// row holding a datum of another kind than its column's, naming the first such
// column its staging reaches, and its page must equal the page the reference
// writes for the admitted rows.

// refCol is what the reference knows about one column of the staged rows.
type refCol struct {
	seen       uint8 // bit per non-NULL kind
	nruns      int
	last       types.Kind
	minI, maxI int64 // over int-class values, when seen has one
	strs       map[string]bool
	dictBytes  int // Σ uvarint length + bytes over the distinct strings
	maxStrLen  int
}

func (c *refCol) add(d types.Datum) {
	if c.nruns == 0 || d.K != c.last {
		c.nruns++
	}
	c.last = d.K
	switch d.K {
	case types.KindNull:
		return
	case types.KindInt, types.KindDate, types.KindBool:
		if c.seen&kindsInt == 0 {
			c.minI, c.maxI = d.I, d.I
		}
		c.minI, c.maxI = min(c.minI, d.I), max(c.maxI, d.I)
	case types.KindString:
		if c.strs == nil {
			c.strs = map[string]bool{}
		}
		if !c.strs[d.S] {
			c.strs[d.S] = true
			c.dictBytes += uvarintSize(uint64(len(d.S))) + len(d.S)
			c.maxStrLen = max(c.maxStrLen, len(d.S))
		}
	}
	c.seen |= 1 << d.K
}

// Column classes as the reference derives them from the kinds seen (a column
// of no value is all three).
func (c *refCol) allNull() bool { return c.seen == 0 }
func (c *refCol) ints() bool    { return c.seen&^kindsInt == 0 }
func (c *refCol) floats() bool  { return c.seen&^kindsFloat == 0 }
func (c *refCol) strings() bool { return c.seen&^kindsStr == 0 }

// bound is the column's segment plus zone-entry bound for n rows: every
// uvarint charged three bytes, the zone entry charged the int bounds while an
// int segment is possible and two strings as long as the longest entry while a
// dictionary is.
func (c *refCol) bound(n int) int {
	runs := 3 + c.nruns*4
	seg := 0
	switch {
	case c.ints():
		seg = 1 + runs + 8 + 1 + (n*refBits(uint64(c.maxI)-uint64(c.minI))+7)/8
	case c.floats():
		seg = 1 + runs + 8*n
	default: // strings
		seg = 1 + runs + 3 + 3 + c.dictBytes + 1 + (n*refBits(uint64(max(len(c.strs), 1)-1))+7)/8
	}
	zone := 1
	if c.ints() {
		zone += 16
	}
	if c.strings() {
		zone += 2 * (3 + c.maxStrLen)
	}
	return seg + zone
}

// refBits is the number of bits the reference packs a value of at most v
// in: the position of v's highest set bit, counted one bit at a time.
func refBits(v uint64) int {
	n := 0
	for ; v > 0; v >>= 1 {
		n++
	}
	return n
}

// refPack appends the values vals packed at width bits each, set one bit
// at a time: value i's bit k is bit i×width+k of the payload, least
// significant first.
func refPack(buf []byte, vals []uint64, width int) []byte {
	out := make([]byte, (len(vals)*width+7)/8)
	for i, v := range vals {
		for k := 0; k < width; k++ {
			if v>>k&1 != 0 {
				at := i*width + k
				out[at/8] |= 1 << (at % 8)
			}
		}
	}
	return append(buf, out...)
}

// refPage is the reference's page: the staged rows and their column facts.
type refPage struct {
	cols []refCol
	rows []types.Row
}

// add stages r and returns the page bound with it staged.
func (p *refPage) add(r types.Row) int {
	if p.cols == nil {
		p.cols = make([]refCol, len(r))
	}
	p.rows = append(p.rows, r)
	total := pageFixedHeader + 4*len(r)
	for i, d := range r {
		p.cols[i].add(d)
		total += p.cols[i].bound(len(p.rows))
	}
	return total
}

// page writes the staged rows from scratch in the page format.
func (p *refPage) page() []byte {
	buf := make([]byte, 0, PageSize)
	ncols := len(p.cols)
	buf = binary.LittleEndian.AppendUint16(buf, pageMagic)
	buf = append(buf, pageFormat)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.rows)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(ncols))
	dir := len(buf)
	buf = append(buf, make([]byte, 4*ncols)...)
	sorted := make([][]string, ncols)
	for i := range p.cols {
		c := &p.cols[i]
		for s := range c.strs {
			sorted[i] = append(sorted[i], s)
		}
		sort.Strings(sorted[i])
		switch {
		case c.allNull() && len(p.rows) > 0:
			buf = append(buf, ZoneNullOnly)
		case c.allNull():
			buf = append(buf, 0)
		case c.ints():
			buf = append(buf, ZoneInt)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.minI))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.maxI))
		case c.floats():
			buf = append(buf, 0)
		default: // strings
			lo, hi := sorted[i][0], sorted[i][len(sorted[i])-1]
			buf = append(buf, ZoneStr)
			buf = binary.AppendUvarint(buf, uint64(len(lo)))
			buf = append(buf, lo...)
			buf = binary.AppendUvarint(buf, uint64(len(hi)))
			buf = append(buf, hi...)
		}
	}
	for i := range p.cols {
		c := &p.cols[i]
		binary.LittleEndian.PutUint32(buf[dir+4*i:], uint32(len(buf)))
		col := make([]types.Datum, len(p.rows))
		for j, r := range p.rows {
			col[j] = r[i]
		}
		runs := func(buf []byte) []byte {
			buf = binary.AppendUvarint(buf, uint64(c.nruns))
			for j := 0; j < len(col); {
				k := j
				for k < len(col) && col[k].K == col[j].K {
					k++
				}
				buf = append(buf, byte(col[j].K))
				buf = binary.AppendUvarint(buf, uint64(k-j))
				j = k
			}
			return buf
		}
		switch {
		case c.ints():
			var lo, hi int64
			if !c.allNull() {
				lo, hi = c.minI, c.maxI
			}
			width := refBits(uint64(hi) - uint64(lo))
			buf = runs(append(buf, encInt))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(lo))
			buf = append(buf, byte(width))
			deltas := make([]uint64, len(col))
			for j, d := range col {
				if d.K != types.KindNull {
					deltas[j] = uint64(d.I) - uint64(lo)
				}
			}
			buf = refPack(buf, deltas, width)
		case c.floats():
			buf = runs(append(buf, encFloat))
			for _, d := range col {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.F))
			}
		default: // strings
			buf = runs(append(buf, encDict))
			buf = binary.AppendUvarint(buf, uint64(c.dictBytes))
			buf = binary.AppendUvarint(buf, uint64(len(sorted[i])))
			code := map[string]int{}
			for j, s := range sorted[i] {
				code[s] = j
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
			width := refBits(uint64(max(len(sorted[i]), 1) - 1))
			buf = append(buf, byte(width))
			codes := make([]uint64, len(col))
			for j, d := range col {
				if d.K == types.KindString {
					codes[j] = uint64(code[d.S])
				}
			}
			buf = refPack(buf, codes, width)
		}
	}
	return append(buf, make([]byte, PageSize-len(buf))...)
}

// Value profiles of a generated column, each of one kind.
const (
	profConst     = iota // one int: delta width 0
	profIntNarrow        // ints in a 200-wide frame: 8 bits
	profIntWide          // full-range ints: 64 bits
	profIntBits          // ints in a frame of a width drawn per column, 1 to 63 bits
	profDate             // dates: int-class, of another kind than int
	profBool
	profFloat
	profStrFew  // a handful of short strings, the empty one among them
	profStrGrow // a dictionary that keeps growing past 256 entries
	profStrLong // long random strings: the zone bound grows with them
	profNull    // NULL only, in a column of any kind
	numProfiles
)

// profKind is the kind of a profile's values.
var profKind = [numProfiles]types.Kind{
	profConst: types.KindInt, profIntNarrow: types.KindInt, profIntWide: types.KindInt, profIntBits: types.KindInt,
	profDate: types.KindDate, profBool: types.KindBool, profFloat: types.KindFloat,
	profStrFew: types.KindString, profStrGrow: types.KindString, profStrLong: types.KindString,
}

var fewStrings = []string{"", "ASIA", "EUROPE", "AFRICA", "AMERICA", "MIDDLE EAST"}

// colGen draws one column of a declared kind: a profile, NULL runs, and
// possibly a switch partway through the page to a second profile of the same
// kind or to NULLs.
type colGen struct {
	kind       types.Kind
	prof, then int
	switchAt   int // row of the switch, -1 for none
	nullP      float64
	nullRun    int // NULL rows left in the current run
	seq        int
	row        int
	bits       int // profIntBits' frame width
}

func newColGen(r *rand.Rand) *colGen {
	g := &colGen{prof: r.Intn(numProfiles), switchAt: -1, bits: 1 + r.Intn(63)}
	g.kind = profKind[g.prof]
	if g.prof == profNull {
		g.kind = storedKinds[r.Intn(len(storedKinds))]
	}
	if r.Intn(3) == 0 {
		var same []int
		for p := range numProfiles {
			if p == profNull || profKind[p] == g.kind {
				same = append(same, p)
			}
		}
		g.then, g.switchAt = same[r.Intn(len(same))], r.Intn(800)
	}
	g.nullP = []float64{0, 0, 0.02, 0.2}[r.Intn(4)]
	return g
}

func (g *colGen) next(r *rand.Rand) types.Datum {
	g.row++
	if g.row == g.switchAt {
		g.prof = g.then
	}
	if g.nullRun > 0 || r.Float64() < g.nullP {
		if g.nullRun == 0 {
			g.nullRun = 1 + r.Intn(20)
		}
		g.nullRun--
		return types.Null
	}
	switch g.prof {
	case profConst:
		return types.NewInt(42)
	case profIntNarrow:
		return types.NewInt(1000 + r.Int63n(200))
	case profIntWide:
		return types.NewInt(r.Int63() - r.Int63())
	case profIntBits:
		return types.NewInt(-7 + r.Int63()>>(63-g.bits))
	case profDate:
		return types.NewDate(r.Int63n(30000))
	case profBool:
		return types.NewBool(r.Intn(2) == 0)
	case profFloat:
		return types.NewFloat(r.NormFloat64() * 1e6)
	case profStrFew:
		return types.NewString(fewStrings[r.Intn(len(fewStrings))])
	case profStrGrow:
		g.seq += r.Intn(2)
		return types.NewString(fmt.Sprintf("s%d", g.seq))
	case profStrLong:
		b := make([]byte, r.Intn(60))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return types.NewString(string(b))
	}
	return types.Null
}

// wrongKind draws a value of another kind than k.
func wrongKind(r *rand.Rand, k types.Kind) types.Datum {
	for {
		if w := storedKinds[r.Intn(len(storedKinds))]; w != k {
			return randDatum(r, w)
		}
	}
}

func TestPageBuilderAdmissionOracle(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		// Up to 20 columns: past the SSB fact table's twelve, and past any
		// fixed-size per-row scratch the builder might keep.
		gens := make([]*colGen, 1+r.Intn(20))
		for i := range gens {
			gens[i] = newColGen(r)
		}
		kinds := make([]types.Kind, len(gens))
		for i, g := range gens {
			kinds[i] = g.kind
		}
		b := newPageBuilder(kinds)
		for pages := 1 + r.Intn(3); pages > 0; pages-- {
			limit := math.MaxInt // rows to offer before finishing a short page
			if r.Intn(2) == 0 {
				limit = 1 + r.Intn(2000)
			}
			retries := r.Intn(4) // chunks offered after the first refusal
			ref := &refPage{}
			for offered := 0; offered < limit; {
				// A chunk of up to 150 rows, admitted a block at a time: the
				// cut must be the row the reference refuses first.
				m := min(1+r.Intn(150), limit-offered)
				ch := newChunk(kinds, m)
				w := ch.writer()
				rows := make([]types.Row, 0, m)
				for ; w.row < m; w.row++ {
					row := make(types.Row, len(gens))
					for i, g := range gens {
						row[i] = g.next(r)
					}
					if r.Intn(100) == 0 {
						// A datum of another kind: refused with its column,
						// alone or in a chunk, which ends before its row.
						bad := r.Intn(len(gens))
						row[bad] = wrongKind(r, gens[bad].kind)
						if ok, got := b.offer(row); ok || got != bad {
							t.Fatalf("trial %d: row %d (%v) with a wrong kind: offer = %v, %d, want false, %d",
								trial, len(ref.rows), row, ok, got, bad)
						}
						for c := range row {
							w.Set(c, &row[c])
						}
						if ch.bad != (refusal{row: w.row, col: bad, got: row[bad].K}) {
							t.Fatalf("trial %d: chunk refusal %+v, want row %d column %d", trial, ch.bad, w.row, bad)
						}
						break
					}
					for c := range row {
						w.Set(c, &row[c])
					}
					rows = append(rows, row)
				}
				offered += w.row + 1
				want := 0
				for ; want < len(rows); want++ {
					admitted := ref.rows
					if ref.add(rows[want]) > PageSize || len(ref.rows) > maxPageRows {
						// The refused row leaves the page as it was: so does
						// the reference, rebuilt from the rows admitted.
						ref = &refPage{}
						for _, a := range admitted {
							ref.add(a)
						}
						break
					}
				}
				if got := b.admitChunk(ch, 0, len(rows)); got != want {
					t.Fatalf("trial %d: a chunk of %d rows onto %d: admitChunk admitted %d, the reference bound %d",
						trial, len(rows), len(ref.rows)-want, got, want)
				}
				if want == len(rows) {
					continue
				}
				if retries == 0 {
					break
				}
				retries--
			}
			if len(ref.rows) == 0 {
				t.Fatalf("trial %d: no row admitted", trial)
			}
			got, want := b.page(), ref.page()
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("trial %d: %d rows × %d columns: page differs from the reference at byte %d (got %#x, want %#x)",
					trial, len(ref.rows), len(gens), i, got[i], want[i])
			}
		}
	}
}
