package storage

import (
	"math/bits"

	"repro/internal/types"
)

// A chunk is the unit of bulk load: rows of a heap file's schema held column
// by column, each column in the Go type of its declared kind. The schema is
// the storage contract, so a value needs no kind byte and no Datum: an int,
// date or bool column is an []int64 (a bool as 0 or 1), a float column a
// []float64, a string column a []string, and every column carries a NULL
// mask. The page builder admits a chunk a block of rows at a time.
type chunk struct {
	cols []chunkCol
	size int     // rows the chunk holds
	n    int     // rows to admit
	bad  refusal // the first datum refused, row -1 for none
}

// chunkCol is one column of a chunk. Only the slice of the column's kind is
// allocated; a NULL row's slot holds whatever was written there before.
type chunkCol struct {
	kind types.Kind
	ints []int64   // int, date and bool columns
	flts []float64 // float columns
	strs []string  // string columns
	null []uint64  // bit r%64 of word r/64: row r is NULL
}

// refusal is a datum a chunk refused: a value of another kind than its
// column's.
type refusal struct {
	row, col int
	got      types.Kind
}

// newChunk returns a chunk of rows rows of columns of the given kinds.
func newChunk(kinds []types.Kind, rows int) *chunk {
	ch := &chunk{cols: make([]chunkCol, len(kinds)), size: rows}
	for i, k := range kinds {
		cc := &ch.cols[i]
		cc.kind = k
		cc.null = make([]uint64, (rows+63)/64)
		switch k {
		case types.KindFloat:
			cc.flts = make([]float64, rows)
		case types.KindString:
			cc.strs = make([]string, rows)
		default:
			cc.ints = make([]int64, rows)
		}
	}
	ch.reset()
	return ch
}

// reset empties the chunk for refilling: no row, no NULL and no refusal.
func (ch *chunk) reset() {
	for i := range ch.cols {
		clear(ch.cols[i].null)
	}
	ch.n, ch.bad = 0, refusal{row: -1}
}

// nullBits returns the NULL mask of rows [s, e), a range within one 64-row
// block, as the low e-s bits of a word.
func (c *chunkCol) nullBits(s, e int) uint64 {
	return c.null[s>>6] >> (s & 63) & lowBits(e-s)
}

// lowBits is a word of its k ≥ 1 low bits set.
func lowBits(k int) uint64 { return ^uint64(0) >> (64 - k) }

// firstNonNull is the offset in the block of its first non-NULL row, given
// the block's k-row NULL mask w (k when every row is NULL).
func firstNonNull(w uint64, k int) int {
	return min(bits.TrailingZeros64(^w), k)
}

// RowWriter writes one row of a load chunk, column by column, through a
// setter of the column's declared kind. A value of another kind is refused:
// nothing is written, and the load stores the rows before the refused one and
// fails with a *KindError naming its column. Every column of the row must be
// written exactly once; a chunk is recycled, so a column left unwritten
// holds a value of an earlier row.
type RowWriter struct {
	cols []chunkCol // the chunk's
	bad  *refusal   // the chunk's
	row  int
}

// writer returns a RowWriter at the chunk's row 0.
func (ch *chunk) writer() RowWriter { return RowWriter{cols: ch.cols, bad: &ch.bad} }

// Int writes v into an int column.
func (w *RowWriter) Int(col int, v int64) { w.setInt(col, types.KindInt, v) }

// Date writes a date, in days since the epoch, into a date column.
func (w *RowWriter) Date(col int, days int64) { w.setInt(col, types.KindDate, days) }

// Bool writes v into a bool column.
func (w *RowWriter) Bool(col int, v bool) {
	var i int64
	if v {
		i = 1
	}
	w.setInt(col, types.KindBool, i)
}

func (w *RowWriter) setInt(col int, k types.Kind, v int64) {
	c := &w.cols[col]
	if c.kind != k {
		w.refuse(col, k)
		return
	}
	c.ints[w.row] = v
}

// Float writes v into a float column.
func (w *RowWriter) Float(col int, v float64) {
	c := &w.cols[col]
	if c.kind != types.KindFloat {
		w.refuse(col, types.KindFloat)
		return
	}
	c.flts[w.row] = v
}

// Str writes v into a string column.
func (w *RowWriter) Str(col int, v string) {
	c := &w.cols[col]
	if c.kind != types.KindString {
		w.refuse(col, types.KindString)
		return
	}
	c.strs[w.row] = v
}

// Null makes the row NULL in column col, of any kind.
func (w *RowWriter) Null(col int) {
	w.cols[col].null[w.row>>6] |= 1 << (w.row & 63)
}

// Set writes *d through the setter of its kind: a Datum row's way in.
func (w *RowWriter) Set(col int, d *types.Datum) {
	switch d.K {
	case types.KindNull:
		w.Null(col)
	case types.KindInt, types.KindDate, types.KindBool:
		w.setInt(col, d.K, d.I) // a bool's payload as it is
	case types.KindFloat:
		w.Float(col, d.F)
	case types.KindString:
		w.Str(col, d.S)
	default:
		w.refuse(col, d.K)
	}
}

// refuse records a datum of kind k refused in column col of the row, unless
// the row refused one in an earlier column. Rows are written in order and the
// chunk ends at its first refused row, so the refusal is the first datum in
// row order, then column order.
func (w *RowWriter) refuse(col int, k types.Kind) {
	if b := w.bad; b.row < 0 || col < b.col {
		*b = refusal{row: w.row, col: col, got: k}
	}
}
