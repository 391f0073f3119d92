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
// strings, the raw datum-stream size — derives each column's encoding from the
// kinds seen, and charges the size bound the page format has always charged.
// The builder must admit a row exactly when that bound, with the row staged,
// fits PageSize, and its page must equal the page the reference writes for the
// admitted rows.

// refCol is what the reference knows about one column of the staged rows.
type refCol struct {
	seen       uint8 // bit per non-NULL kind
	nruns      int
	last       types.Kind
	minI, maxI int64 // over int-class values, when seen has one
	strs       map[string]bool
	dictBytes  int // Σ uvarint length + bytes over the distinct strings
	maxStrLen  int
	rawBytes   int // the raw datum stream of every row
}

func (c *refCol) add(d types.Datum) {
	if c.nruns == 0 || d.K != c.last {
		c.nruns++
	}
	c.last = d.K
	c.rawBytes += datumEncSize(d)
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

// Column classes as the reference derives them from the kinds seen.
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
		seg = 1 + runs + 8 + 1 + n*forWidth(uint64(c.maxI)-uint64(c.minI))
	case c.floats():
		seg = 1 + runs + 8*n
	case c.strings():
		seg = 1 + runs + 3 + 3 + c.dictBytes + 1 + n*dictCodeWidth(len(c.strs))
	default:
		seg = 1 + c.rawBytes
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
		case c.strings():
			lo, hi := sorted[i][0], sorted[i][len(sorted[i])-1]
			buf = append(buf, ZoneStr)
			buf = binary.AppendUvarint(buf, uint64(len(lo)))
			buf = append(buf, lo...)
			buf = binary.AppendUvarint(buf, uint64(len(hi)))
			buf = append(buf, hi...)
		default:
			buf = append(buf, 0)
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
		putWidth := func(buf []byte, v uint64, width int) []byte {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], v)
			return append(buf, w[:width]...)
		}
		switch {
		case c.ints():
			var lo, hi int64
			if !c.allNull() {
				lo, hi = c.minI, c.maxI
			}
			width := forWidth(uint64(hi) - uint64(lo))
			buf = runs(append(buf, encInt))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(lo))
			buf = append(buf, byte(width))
			for _, d := range col {
				var delta uint64
				if d.K != types.KindNull {
					delta = uint64(d.I) - uint64(lo)
				}
				buf = putWidth(buf, delta, width)
			}
		case c.floats():
			buf = runs(append(buf, encFloat))
			for _, d := range col {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.F))
			}
		case c.strings():
			buf = runs(append(buf, encDict))
			buf = binary.AppendUvarint(buf, uint64(c.dictBytes))
			buf = binary.AppendUvarint(buf, uint64(len(sorted[i])))
			code := map[string]int{}
			for j, s := range sorted[i] {
				code[s] = j
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
			width := dictCodeWidth(len(sorted[i]))
			buf = append(buf, byte(width))
			for _, d := range col {
				var k int
				if d.K == types.KindString {
					k = code[d.S]
				}
				buf = putWidth(buf, uint64(k), width)
			}
		default:
			buf = append(buf, encRaw)
			for _, d := range col {
				buf = appendDatum(buf, d)
			}
		}
	}
	return append(buf, make([]byte, PageSize-len(buf))...)
}

// Value profiles of a generated column.
const (
	profConst     = iota // one int: delta width 0
	profIntNarrow        // ints in a 200-wide frame
	profIntWide          // full-range ints: delta width 8
	profIntKinds         // int, date and bool: many kind runs, one class
	profFloat
	profStrFew  // a handful of short strings, the empty one among them
	profStrGrow // a dictionary that keeps growing past 256 entries
	profStrLong // long random strings: the zone bound grows with them
	profMixed   // any kind: encRaw from the first rows
	profNull    // NULL only
	numProfiles
)

var fewStrings = []string{"", "ASIA", "EUROPE", "AFRICA", "AMERICA", "MIDDLE EAST"}

// colGen draws one column: a profile, NULL runs, and possibly a switch to a
// second profile partway through the page (a class change mid-page).
type colGen struct {
	prof, then int
	switchAt   int // row of the switch, -1 for none
	nullP      float64
	nullRun    int // NULL rows left in the current run
	seq        int
	row        int
}

func newColGen(r *rand.Rand) *colGen {
	g := &colGen{prof: r.Intn(numProfiles), switchAt: -1}
	if r.Intn(3) == 0 {
		g.then, g.switchAt = r.Intn(numProfiles), r.Intn(800)
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
	case profIntKinds:
		switch r.Intn(3) {
		case 0:
			return types.NewInt(r.Int63n(1 << 20))
		case 1:
			return types.NewDate(r.Int63n(30000))
		}
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
	case profMixed:
		return randRow(r, 1)[0]
	}
	return types.Null
}

func TestPageBuilderAdmissionOracle(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		gens := make([]*colGen, 1+r.Intn(8))
		for i := range gens {
			gens[i] = newColGen(r)
		}
		b := newPageBuilder()
		for pages := 1 + r.Intn(3); pages > 0; pages-- {
			limit := math.MaxInt // rows to offer before finishing a short page
			if r.Intn(2) == 0 {
				limit = 1 + r.Intn(2000)
			}
			retries := r.Intn(4) // rows offered after the first refusal
			ref := &refPage{}
			var slab []types.Datum // the offered rows, allocated 1024 at a time
			for offered := 0; offered < limit; offered++ {
				if len(slab) < len(gens) {
					slab = make([]types.Datum, 1024*len(gens))
				}
				row := types.Row(slab[:len(gens):len(gens)])
				slab = slab[len(gens):]
				for i, g := range gens {
					row[i] = g.next(r)
				}
				admitted := ref.rows
				want := ref.add(row) <= PageSize && len(ref.rows) <= maxPageRows
				if got := b.tryAppend(row); got != want {
					t.Fatalf("trial %d: row %d (%v): tryAppend = %v, reference bound says %v",
						trial, len(admitted), row, got, want)
				}
				if want {
					continue
				}
				// The refused row leaves the page as it was: so does the
				// reference, rebuilt from the rows that were admitted.
				ref = &refPage{}
				for _, a := range admitted {
					ref.add(a)
				}
				if retries == 0 {
					break
				}
				retries--
			}
			if len(ref.rows) == 0 {
				t.Fatalf("trial %d: no row admitted", trial)
			}
			got, want := b.finish(), ref.page()
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
