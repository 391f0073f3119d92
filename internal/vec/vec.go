// Package vec is the columnar value model of the data path: typed column
// vectors (Vec), page-sized column batches (ColBatch) and the selection-
// vector convention shared by the vectorized predicate kernels
// (expr.CompileVec), the storage layer's columnar page cache and the CJOIN
// annotate/probe loops.
//
// A Vec is one column of one kind, the storage contract of a schema column:
// every row is NULL or of the column's Kind. It holds a row count, a NULL
// mask (empty when no row is NULL) and the one payload array of its kind,
// covering every row: I for int-class kinds (int, date, bool share the int64
// payload exactly as types.Datum does, so date predicates vectorize as int64
// range checks), F for floats, S for plain strings, and for a
// dictionary-coded string column its codes in I (below). A NULL row holds
// the zero value there (code 0 in a coded column). Appending a non-NULL
// value of another kind panics, like releasing a batch once too often: no
// table, expression or operator makes such a column. So every kernel has
// one typed loop per kind, and drops a column's NULL rows from its
// selection first (DropNulls) when the mask is not empty.
//
// Selection-vector convention: a selection is an ascending []int32 of row
// indexes into the batch. Kernels take an input selection and write the
// surviving subset into a caller-provided output slice (which may alias the
// input — kernels only ever write at or before their read position), so
// predicate chains evaluate with zero allocation. ColBatch.AllSel returns
// the identity selection for "every row": a prefix of one slice shared by
// the whole process and grown to the longest batch sealed, never to be
// written (or passed as a kernel's output).
//
// ColBatches are reference-counted: the storage layer caches one per
// resident page frame (one ref), hands extra refs to readers
// (HeapFile.PageCols), and the last Release empties the batch. What is
// pooled is the parts, not the batch as it grew: every payload array and
// NULL mask goes back to a recycler that files it by element type and size
// class (recycle.go), the empty shell to a pool of shells, and the next use
// of either — any width, any row count — takes arrays of exactly the classes
// it fills. A column holds only the arrays its current use wrote, Get(ncols)
// hides no columns behind the ones asked for, Reserve and AppendGather size
// to the rows reserved for this use, and refilling the same shape allocates
// nothing. ColBatch.Bytes is the footprint of one batch, PoolStats the
// process totals.
//
// A batch may be sealed with columns still in their source (SealSource): the
// storage layer validates a whole page when it opens it but decodes a
// fixed-width column only when the first reader's Col asks, so a batch holds
// the columns its readers read. Col tests one bit with an atomic load; the
// decode runs once, under the batch's lock.
//
// Not every array of a column is the column's own. The source may lend a
// column its payload (BorrowI, BorrowF): storage decodes fixed-width page
// columns into memory it owns outside the recycler, and frees it when the
// batch closes the source at its last Release — after the columns are
// cleared, so nothing of the shell that goes back to the pool points there.
// Borrowed arrays are never grown in place, never handed to the recycler and
// not counted in PoolStats; a column that is appended to copies them first.
// The rule for readers is the one that already held: a column's arrays are
// valid while a reference on its batch is.
//
// A string column takes one of two forms, with one payload each. A plain
// column holds Go string headers in S. A dictionary-coded column holds a
// sorted, duplicate-free dictionary in Dict and each row's code in I, and
// no S: every column decoded from a page is coded (its page's dictionary),
// and so is every string column of a join index (one dictionary of the
// index's own). Predicate kernels compare codes against a constant
// translated to a code bound; a reader that needs the string takes it
// through Str, or walks Dict itself. Coding does not propagate: AppendFrom
// and AppendGather write a coded source's strings into a plain column.
//
// Strings are Go string headers, not offsets into recyclable buffers, so
// rows materialized from a batch stay valid after the batch is recycled —
// the string contents are immutable heap objects (for columns decoded from a
// page, substrings of one shared per-page dictionary buffer), and a parked
// string array is cleared so it pins none of them.
package vec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Vec is one typed column: NULL or Kind in every row. Row i is NULL when bit
// i of the NULL mask is set; otherwise its value is I[i] for int-class kinds,
// F[i] for floats and Str(i) for strings.
//
// A Vec is a column of a pooled ColBatch, whose arrays come from and go back
// to the recycler (recycle.go), or free-standing (a kernel's result vector),
// whose arrays live on the heap and are reused by reset. A fixed-width column
// decoded from a page borrows its payload (ext) from memory the batch's
// ColSource owns and frees when the batch is released; a borrowed array is
// never grown in place and never recycled, and a column about to be appended
// to copies it first.
type Vec struct {
	// Kind is the column's one non-NULL kind: KindNull until it holds a
	// non-NULL row, and then the payload the column keeps.
	Kind types.Kind
	I    []int64
	F    []float64
	S    []string

	// Dict, when non-empty, marks a dictionary-coded string column (the
	// on-disk page format decodes string columns this way, and a join index
	// keeps them so): Dict is the sorted, duplicate-free dictionary, I[i]
	// holds row i's code, row i's string is Dict[I[i]] (a NULL row has code
	// 0), and S is empty. Because the dictionary is sorted, code order is
	// string order, so predicate kernels translate a string constant to a
	// code bound once per column and compare ints.
	Dict []string

	n        int      // rows
	nulls    []uint64 // bit i: row i is NULL; empty when no row is
	reserved int      // rows ColBatch.Reserve made room for
	ext      uint8    // which arrays are borrowed (ext* bits)
	pooled   bool     // column of a pooled batch: its own arrays are the recycler's
}

// Borrowed-array bits of Vec.ext.
const (
	extI uint8 = 1 << iota // I is borrowed
	extF                   // F is borrowed
)

// HasDict reports whether the column is dictionary-coded (codes in I, sorted
// dictionary in Dict, no S).
func (v *Vec) HasDict() bool { return len(v.Dict) > 0 }

// Str returns row i of a string column that is not NULL there: the entry its
// code names in a dictionary-coded column, S[i] in a plain one.
func (v *Vec) Str(i int) string {
	if len(v.Dict) > 0 {
		return v.Dict[v.I[i]]
	}
	return v.S[i]
}

// Len returns the number of rows.
func (v *Vec) Len() int { return v.n }

// HasNulls reports whether some row is NULL.
func (v *Vec) HasNulls() bool { return len(v.nulls) != 0 }

// IsNull reports whether row i is NULL.
func (v *Vec) IsNull(i int) bool {
	return len(v.nulls) != 0 && v.nulls[i>>6]>>(uint(i)&63)&1 != 0
}

// DropNulls writes the rows of sel that are not NULL into out and returns
// them, reading the mask a word at a time: the rows of a word with no NULL
// bit are copied through. out may alias sel. Kernels call it only when
// HasNulls.
func (v *Vec) DropNulls(sel, out []int32) []int32 {
	k := 0
	for i := 0; i < len(sel); {
		wi := sel[i] >> 6
		j := i + 1
		for j < len(sel) && sel[j]>>6 == wi {
			j++
		}
		if w := v.nulls[wi]; w == 0 {
			k += copy(out[k:], sel[i:j])
		} else {
			for _, r := range sel[i:j] {
				out[k] = r
				k += int(^w >> (uint(r) & 63) & 1)
			}
		}
		i = j
	}
	return out[:k]
}

// words is the number of mask words covering n rows.
func words(n int) int { return (n + 63) >> 6 }

// reset empties a free-standing vector for reuse, retaining array capacity.
// Strings and dictionary entries are cleared so the vector does not pin page
// data alive.
func (v *Vec) reset() {
	v.dropForeign()
	v.Kind, v.n = types.KindNull, 0
	v.I = v.I[:0]
	v.F = v.F[:0]
	clear(v.S)
	v.S = v.S[:0]
	clear(v.Dict)
	v.Dict = v.Dict[:0]
	v.nulls = v.nulls[:0]
}

// release hands a pooled column's arrays back to the recycler and leaves the
// zero Vec.
func (v *Vec) release() {
	v.dropForeign()
	intPark.put(v.I)
	floatPark.put(v.F)
	strPark.put(v.S)
	strPark.put(v.Dict)
	maskPark.put(v.nulls)
	*v = Vec{}
}

// dropForeign forgets the arrays that are not the column's own.
func (v *Vec) dropForeign() {
	if v.ext&extI != 0 {
		v.I = nil
	}
	if v.ext&extF != 0 {
		v.F = nil
	}
	v.ext = 0
}

// own replaces every borrowed array by a copy of the column's own: the slow
// path of whatever is about to append to the column.
func (v *Vec) own() {
	if v.ext == 0 {
		return
	}
	if v.ext&extI != 0 {
		v.I = owned(&intPark, v.I, v.pooled)
	}
	if v.ext&extF != 0 {
		v.F = owned(&floatPark, v.F, v.pooled)
	}
	v.ext = 0
}

// bytes is the capacity-based footprint of the arrays the column holds, its
// own and borrowed.
func (v *Vec) bytes() int64 {
	return intPark.elem*int64(cap(v.I)) + floatPark.elem*int64(cap(v.F)) +
		strPark.elem*int64(cap(v.S)+cap(v.Dict)) + maskPark.elem*int64(cap(v.nulls))
}

// room makes a payload array (roomI, roomF, roomS) n long with capacity for
// row n, so the append that follows stays in place: the slow path of the
// per-row appends, which test for it inline. A pooled column's array grows
// to the rows reserved for it, so a reserved batch never regrows a column.
func (v *Vec) roomI(n int) {
	v.own()
	v.I = extend(&intPark, v.I, n, n+1, v.reserved, v.pooled)[:n]
}

func (v *Vec) roomF(n int) {
	v.own()
	v.F = extend(&floatPark, v.F, n, n+1, v.reserved, v.pooled)[:n]
}

func (v *Vec) roomS(n int) {
	v.S = extend(&strPark, v.S, n, n+1, v.reserved, v.pooled)[:n]
}

// adopt makes k, a non-NULL kind, the column's kind. A column of NULLs takes
// it, its rows getting k's payload at the zero value; a column of another
// kind refuses it.
func (v *Vec) adopt(k types.Kind) {
	if v.Kind == k {
		return
	}
	if v.Kind != types.KindNull {
		panic(fmt.Sprintf("vec: a %v value appended to a %v column", k, v.Kind))
	}
	v.Kind = k
	switch n := v.n; k {
	case types.KindFloat:
		v.F = extend(&floatPark, v.F, n, n, v.reserved, v.pooled)
	case types.KindString:
		v.S = extend(&strPark, v.S, n, n, v.reserved, v.pooled)
	default:
		v.I = extend(&intPark, v.I, n, n, v.reserved, v.pooled)
	}
}

// growNulls makes the NULL mask cover the column's rows.
func (v *Vec) growNulls() {
	if w := words(v.n); len(v.nulls) < w {
		v.nulls = extend(&maskPark, v.nulls, w, w, words(v.reserved), v.pooled)
	}
}

// AppendDatum appends one value, NULL or of the column's kind; a value of
// another kind panics.
func (v *Vec) AppendDatum(d types.Datum) {
	if d.K == types.KindNull {
		d = types.Null
	} else {
		v.adopt(d.K)
	}
	i := v.n
	switch v.Kind {
	case types.KindNull:
	case types.KindFloat:
		if i == cap(v.F) {
			v.roomF(i)
		}
		v.F = append(v.F, d.F)
	case types.KindString:
		if i == cap(v.S) {
			v.roomS(i)
		}
		v.S = append(v.S, d.S)
	default:
		if i == cap(v.I) {
			v.roomI(i)
		}
		v.I = append(v.I, d.I)
	}
	v.n++
	if d.K == types.KindNull {
		v.SetNulls(i, i+1)
	} else if len(v.nulls) != 0 {
		v.growNulls()
	}
}

// ---------------------------------------------------------------------------
// Bulk builders. The columnar page decoder fills vectors segment-at-a-time:
// the kind and NULL runs arrive in the segment header and payloads as whole
// typed arrays, so a page decode is a handful of tight loops instead of
// per-datum appends.

// SetRows makes v, an empty column, n rows of kind k (KindNull: n NULL rows
// to mark with SetNulls) for a decoder to fill: k's payload through
// BulkI/BulkF or BorrowI/BorrowF (a string column's codes through BulkI and
// its dictionary through BulkDict), covering every row, then the NULL runs
// through SetNulls.
func (v *Vec) SetRows(k types.Kind, n int) { v.Kind, v.n = k, n }

// SetNulls makes rows [lo, hi) NULL, zeroing their payload. It writes the
// column in place, borrowed payload included: it is for whoever fills the
// column (a decoder, a kernel's result vector), never for a reader.
func (v *Vec) SetNulls(lo, hi int) {
	if lo >= hi {
		return
	}
	switch v.Kind {
	case types.KindNull:
	case types.KindFloat:
		clear(v.F[lo:hi])
	case types.KindString:
		if v.HasDict() {
			clear(v.I[lo:hi]) // code 0
		} else {
			clear(v.S[lo:hi])
		}
	default:
		clear(v.I[lo:hi])
	}
	v.growNulls()
	for lo < hi {
		w := lo >> 6
		end := min(hi, (w+1)<<6)
		v.nulls[w] |= (^uint64(0) >> uint(64-(end-lo))) << (uint(lo) & 63)
		lo = end
	}
}

// OrNulls makes NULL every row of v that is NULL in src: the NULL rows of a
// row-wise function of src.
func (v *Vec) OrNulls(src *Vec) {
	for wi, w := range src.nulls[:min(len(src.nulls), words(v.n))] {
		for ; w != 0; w &= w - 1 {
			if i := wi<<6 + bits.TrailingZeros64(w); i < v.n {
				v.SetNulls(i, i+1)
			}
		}
	}
}

// BorrowI makes p the int payload of v, an empty column, without copying,
// and returns it for the caller to fill. The array stays the lender's: the
// batch's ColSource, which must keep it until the batch closes it.
func (v *Vec) BorrowI(p []int64) []int64 {
	v.I = p[:len(p):len(p)]
	v.ext |= extI
	return v.I
}

// BorrowF is BorrowI for the float payload.
func (v *Vec) BorrowF(p []float64) []float64 {
	v.F = p[:len(p):len(p)]
	v.ext |= extF
	return v.F
}

// BulkI resizes the int payload to n rows (reusing capacity) and returns it
// for direct fills. Every row must be covered by the fill.
func (v *Vec) BulkI(n int) []int64 {
	v.own()
	v.I = sized(&intPark, v.I, n, v.pooled)
	return v.I
}

// BulkF is BulkI for the float payload.
func (v *Vec) BulkF(n int) []float64 {
	v.own()
	v.F = sized(&floatPark, v.F, n, v.pooled)
	return v.F
}

// BulkDict resizes the dictionary to n entries (reusing capacity) and
// returns it for direct fills.
func (v *Vec) BulkDict(n int) []string {
	v.Dict = sized(&strPark, v.Dict, n, v.pooled)
	return v.Dict
}

// ResetRun makes v a column of n rows of the numeric kind k and no NULLs,
// reusing capacity, with the kind's payload array sized to n for direct fills
// (contents unspecified until written) — the shape of a kernel's reusable
// result vector. A fill need only cover the rows its consumer reads.
// ResetRun(KindNull, 0) empties v for appends.
func (v *Vec) ResetRun(k types.Kind, n int) {
	v.reset()
	v.SetRows(k, n)
	switch {
	case k == types.KindFloat:
		v.BulkF(n)
	case k != types.KindNull:
		v.BulkI(n)
	}
}

// AppendFrom appends row i of src, a column of v's kind or NULLs, as the
// next row of v: a typed payload copy with no Datum boxing, used by the CJOIN
// distributor to route columns straight between batches. Dictionary coding
// does not propagate: a coded row appends its dictionary entry as a plain
// string row (the header points into the dictionary's immutable bytes). v
// must not be dictionary-coded.
func (v *Vec) AppendFrom(src *Vec, i int) {
	if src.IsNull(i) {
		v.AppendDatum(types.Null)
		return
	}
	v.adopt(src.Kind)
	n := v.n
	switch v.Kind {
	case types.KindFloat:
		if n == cap(v.F) {
			v.roomF(n)
		}
		v.F = append(v.F, src.F[i])
	case types.KindString:
		if n == cap(v.S) {
			v.roomS(n)
		}
		v.S = append(v.S, src.Str(i))
	default:
		if n == cap(v.I) {
			v.roomI(n)
		}
		v.I = append(v.I, src.I[i])
	}
	v.n++
	if len(v.nulls) != 0 {
		v.growNulls()
	}
}

// AppendGather appends rows idxs of src, a column of v's kind or NULLs, to v
// in order: the bulk form of AppendFrom, one typed payload loop for the
// column's kind, and the NULL bits carried over only when src has any.
// Dictionary coding does not propagate, exactly as in AppendFrom.
//
// Room for the whole gather is reserved once up front, at least the rows the
// column was reserved for (ColBatch.Reserve), so a batch reserved for its
// final row count never regrows a column.
func (v *Vec) AppendGather(src *Vec, idxs []int32) {
	if len(idxs) == 0 {
		return
	}
	v.own()
	if src.Kind != types.KindNull {
		v.adopt(src.Kind)
	}
	n := v.n
	end := n + len(idxs)
	from := n // a source of NULLs leaves zeroes from n to end
	if src.Kind == types.KindNull {
		from = end
	}
	switch v.Kind {
	case types.KindNull:
	case types.KindFloat:
		v.F = extend(&floatPark, v.F, from, end, v.reserved, v.pooled)
		if from == n {
			df, sf := v.F[n:], src.F
			for j, r := range idxs {
				df[j] = sf[r]
			}
		}
	case types.KindString:
		v.S = extend(&strPark, v.S, from, end, v.reserved, v.pooled)
		if ds := v.S[n:]; from == n && src.HasDict() {
			dict, codes := src.Dict, src.I
			for j, r := range idxs {
				ds[j] = dict[codes[r]]
			}
		} else if from == n {
			ss := src.S
			for j, r := range idxs {
				ds[j] = ss[r]
			}
		}
	default:
		v.I = extend(&intPark, v.I, from, end, v.reserved, v.pooled)
		if from == n {
			di, si := v.I[n:], src.I
			for j, r := range idxs {
				di[j] = si[r]
			}
		}
	}
	v.n = end
	switch {
	case src.HasNulls():
		v.growNulls()
		for j, r := range idxs {
			if src.IsNull(int(r)) {
				i := n + j
				v.nulls[i>>6] |= 1 << (uint(i) & 63)
				if src.HasDict() { // code 0 names an entry; the zero value is ""
					v.S[i] = ""
				}
			}
		}
	case len(v.nulls) != 0:
		v.growNulls()
	}
}

// Datum reconstructs row i as a types.Datum.
func (v *Vec) Datum(i int) types.Datum {
	if v.IsNull(i) {
		return types.Null
	}
	switch k := v.Kind; k {
	case types.KindFloat:
		return types.Datum{K: k, F: v.F[i]}
	case types.KindString:
		return types.Datum{K: k, S: v.Str(i)}
	default:
		return types.Datum{K: k, I: v.I[i]}
	}
}

// ColSource materialises the columns a batch did not decode when it was
// built. The storage layer opens a page by validating all of it and decoding
// none of it; each column is left to the first reader that asks for it,
// through this interface (vec cannot import storage). The source must stay
// able to decode until Close.
type ColSource interface {
	// DecodeCol fills v, an empty pooled column, with column i. It cannot
	// fail: whatever could was checked before the batch was sealed. It may
	// lend v arrays of its own (Vec.Borrow*), which must stay valid until
	// Close.
	DecodeCol(i int, v *Vec)
	// Close tells the source the batch is done with it (last Release): the
	// columns are cleared, and what the source lent them is its to free.
	Close()
}

// ColBatch is a page of rows in columnar form. Batches are pooled: obtain
// one with Get, share it with Retain, and drop it with Release — the last
// Release hands every payload array back to the recycler and pools the empty
// shell. A sealed batch is immutable and safe for concurrent readers; a
// column sealed undecoded (SealSource) is decoded once, by the first reader
// whose Col asks for it.
type ColBatch struct {
	// First-touch decode: bit i of pending is set while column i (i < 64)
	// still waits for src. Readers test it with one atomic load; the decode
	// itself, and clearing the bit after it, happen under mu. (A plain word
	// with sync/atomic calls, first in the struct for alignment: the typed
	// form puts Col over the inlining budget.)
	pending uint64
	src     ColSource
	mu      sync.Mutex

	cols   []Vec
	n      int
	allSel []int32

	// parent is set on batches built by ProjectCols: the columns share the
	// parent's payload arrays, so releasing the derived batch must not
	// recycle them — it drops the struct references and releases the parent
	// instead.
	parent *ColBatch

	refs atomic.Int32
}

// MaxLazyCols is how many leading columns SealSource's mask can name; a
// wider batch decodes the rest when it is built.
const MaxLazyCols = 64

// shellPool holds released batches with nothing in them: a column slice of
// zero Vecs.
var shellPool sync.Pool

// liveBatches gauges batches checked out of the pool (Get/ProjectCols minus
// final Releases) — the refcount-leak oracle the fault batteries assert on:
// once every query has completed or failed, the gauge must return to the
// caller's baseline.
var liveBatches atomic.Int64

// LiveBatches returns the number of pooled batches currently checked out.
func LiveBatches() int64 { return liveBatches.Load() }

// getShell checks out an empty batch of ncols zero columns with one
// reference held by the caller.
func getShell(ncols int) *ColBatch {
	liveBatches.Add(1)
	b, _ := shellPool.Get().(*ColBatch)
	if b == nil {
		b = &ColBatch{}
	}
	if cap(b.cols) < ncols {
		b.cols = make([]Vec, ncols)
	} else {
		b.cols = b.cols[:ncols]
	}
	b.refs.Store(1)
	return b
}

// Get checks out an empty batch of ncols columns with one reference held by
// the caller. The columns hold no arrays; each takes from the recycler what
// its fill asks for.
func Get(ncols int) *ColBatch {
	b := getShell(ncols)
	for i := range b.cols {
		b.cols[i].pooled = true
	}
	return b
}

// FromRows builds a sealed batch of ncols columns holding rows, outside the
// pool: its arrays are the collector's, LiveBatches does not count it, and the
// reference it is born with is never dropped, so Retain/Release pairs taken
// on it never empty it. It backs batch literals (batch.Of).
func FromRows(ncols int, rows []types.Row) *ColBatch {
	b := &ColBatch{cols: make([]Vec, ncols)}
	b.refs.Store(1)
	for _, r := range rows {
		b.AppendRow(r)
	}
	b.Seal(len(rows))
	return b
}

// Retain adds a reference; every Retain must be paired with a Release.
func (b *ColBatch) Retain() { b.refs.Add(1) }

// Release drops a reference; the last one empties the batch — arrays to the
// recycler, the column source closed — and pools the shell. Dropping a
// reference that was never taken panics.
func (b *ColBatch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		liveBatches.Add(-1)
		p := b.parent
		for i := range b.cols {
			if p != nil {
				b.cols[i] = Vec{} // the arrays are the parent's
			} else {
				b.cols[i].release()
			}
		}
		if b.src != nil {
			b.src.Close()
			b.src = nil
		}
		atomic.StoreUint64(&b.pending, 0)
		b.cols = b.cols[:0]
		b.allSel = nil
		b.parent = nil
		b.n = 0
		shellPool.Put(b)
		if p != nil {
			p.Release()
		}
	case n < 0:
		panic("vec: ColBatch over-released")
	}
}

// ProjectCols returns a derived batch whose column j is b's column idxs[j],
// sharing b's payload arrays and identity selection — the zero-copy form of
// a column-reference-only projection (the projected columns are decoded
// here if nobody read them yet). The derived batch holds one reference on b
// (released when the derived batch's last reference drops) and one
// caller-owned reference on itself. b must be sealed.
func ProjectCols(b *ColBatch, idxs []int) *ColBatch {
	d := getShell(len(idxs))
	for j, idx := range idxs {
		d.cols[j] = *b.Col(idx) // struct copy: payload arrays are shared
	}
	d.n = b.n
	d.allSel = b.allSel
	b.Retain()
	d.parent = b
	return d
}

// NumCols returns the number of columns.
func (b *ColBatch) NumCols() int { return len(b.cols) }

// Len returns the number of rows (valid after Seal).
func (b *ColBatch) Len() int { return b.n }

// Col returns column i, decoding it first if the batch was sealed with the
// column still in its source.
func (b *ColBatch) Col(i int) *Vec {
	if atomic.LoadUint64(&b.pending)&(1<<uint(i)) != 0 {
		b.decode(i)
	}
	return &b.cols[i]
}

func (b *ColBatch) decode(i int) {
	b.mu.Lock()
	if p, bit := atomic.LoadUint64(&b.pending), uint64(1)<<uint(i); p&bit != 0 {
		b.src.DecodeCol(i, &b.cols[i])
		atomic.StoreUint64(&b.pending, p&^bit) // writers all hold mu
	}
	b.mu.Unlock()
}

// Reserve sizes every column for n rows: appends and gathers grow a payload
// array or NULL mask to at least the rows reserved, so this one call sizes a
// fresh output batch for its final row count whatever kind each column
// turns out to hold.
func (b *ColBatch) Reserve(n int) {
	for i := range b.cols {
		b.cols[i].reserved = n
	}
}

// AppendRow appends one row column-wise (bulk decode uses per-column
// AppendDatum directly; this is the convenience form).
func (b *ColBatch) AppendRow(r types.Row) {
	for i := range r {
		b.cols[i].AppendDatum(r[i])
	}
}

// Seal fixes the row count and validates that every column covers it. A
// batch must be sealed before it is shared.
func (b *ColBatch) Seal(n int) { b.SealSource(n, nil, 0) }

// SealSource is Seal for a batch some of whose columns are still in src:
// bit i of lazy names column i (i < MaxLazyCols) as undecoded, to be filled
// by src.DecodeCol on the first Col(i). The batch closes src at its last
// Release.
func (b *ColBatch) SealSource(n int, src ColSource, lazy uint64) {
	for i := range b.cols {
		if lazy>>uint(i)&1 == 0 && b.cols[i].Len() != n {
			panic(fmt.Sprintf("vec: column %d has %d rows, batch has %d", i, b.cols[i].Len(), n))
		}
	}
	b.n = n
	b.allSel = identitySel(n)
	b.src = src
	atomic.StoreUint64(&b.pending, lazy)
}

// Bytes is the batch's footprint: the capacity, in bytes, of the arrays its
// columns hold now (undecoded columns hold none; string contents and the
// column source's page are not counted). A derived batch holds nothing of
// its own.
func (b *ColBatch) Bytes() int64 {
	if b.parent != nil {
		return 0
	}
	b.mu.Lock() // a first-touch decode may be growing a column
	defer b.mu.Unlock()
	var n int64
	for i := range b.cols {
		n += b.cols[i].bytes()
	}
	return n
}

// maxSharedSel bounds the shared identity selection: every page (at most
// 0xFFFE rows) and every BatchSize-row operator output fits.
const maxSharedSel = 1 << 16

// sharedSel is the process's one identity selection [0, 1, …), as long as
// the longest one asked for and never written again. A longer request
// replaces it with a longer one under sharedMu; batches sealed before keep
// the one they took.
var (
	sharedSel atomic.Pointer[[]int32]
	sharedMu  sync.Mutex
)

func newIdentity(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// identitySel returns [0, 1, …, n-1]: a prefix of the shared selection,
// grown to n first if it is shorter, or a private slice for a batch longer
// than maxSharedSel (a whole dimension gathered into one batch).
func identitySel(n int) []int32 {
	if n > maxSharedSel {
		return newIdentity(n)
	}
	if p := sharedSel.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	p := sharedSel.Load()
	if p == nil || len(*p) < n {
		s := newIdentity(n)
		p = &s
		sharedSel.Store(p)
	}
	return (*p)[:n:n]
}

// CheckIdentity verifies that nothing has written through an AllSel slice:
// the shared identity selection must still map every index to itself. Test
// batteries call it after driving the kernels.
func CheckIdentity() error {
	p := sharedSel.Load()
	if p == nil {
		return nil
	}
	for i, r := range *p {
		if r != int32(i) {
			return fmt.Errorf("vec: shared identity selection overwritten: sel[%d] = %d", i, r)
		}
	}
	return nil
}

// AllSel returns the identity selection [0, 1, …, Len-1]. The slice is
// shared by every batch in the process and must not be written.
func (b *ColBatch) AllSel() []int32 { return b.allSel }

// MaterializeRow writes row i into dst (one datum per column). dst must
// have NumCols entries.
func (b *ColBatch) MaterializeRow(i int, dst types.Row) {
	for c := range b.cols {
		dst[c] = b.Col(c).Datum(i)
	}
}

// Row returns row i as a freshly allocated types.Row.
func (b *ColBatch) Row(i int) types.Row {
	r := make(types.Row, len(b.cols))
	b.MaterializeRow(i, r)
	return r
}

// Rows materializes every row (testing and cold-path convenience).
func (b *ColBatch) Rows() []types.Row {
	out := make([]types.Row, b.n)
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Selection-vector set operations (inputs ascending, outputs ascending).

// Diff writes sel \ sub into out and returns the written prefix. sub must
// be an ascending subset of sel. out may alias sel (writes trail reads).
func Diff(sel, sub, out []int32) []int32 {
	k, j := 0, 0
	for _, r := range sel {
		if j < len(sub) && sub[j] == r {
			j++
			continue
		}
		out[k] = r
		k++
	}
	return out[:k]
}

// Union merges two disjoint ascending selections into out and returns the
// written prefix. out may alias the backing of a caller-held selection as
// long as it does not alias a or b.
func Union(a, b, out []int32) []int32 {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return out[:k]
}

// ---------------------------------------------------------------------------
// Scratch

// Scratch holds the reusable temporaries of one predicate evaluation chain:
// a stack of selection buffers (And/Or/Not kernels grab and drop them in
// LIFO order) and a scratch row for the scalar fallback. A Scratch is owned
// by one goroutine; kernels sharing a compiled predicate across workers
// each pass their own.
type Scratch struct {
	sels  [][]int32
	depth int
	row   types.Row
}

// Grab pushes and returns a selection buffer of length n.
func (s *Scratch) Grab(n int) []int32 {
	if s.depth == len(s.sels) {
		s.sels = append(s.sels, nil)
	}
	buf := s.sels[s.depth]
	if cap(buf) < n {
		buf = make([]int32, n)
		s.sels[s.depth] = buf
	}
	s.depth++
	return buf[:n]
}

// Drop pops the most recently grabbed buffer.
func (s *Scratch) Drop() { s.depth-- }

// Row returns the scratch row sized to width, for materializing one row at
// a time in the scalar fallback.
func (s *Scratch) Row(width int) types.Row {
	if cap(s.row) < width {
		s.row = make(types.Row, width)
	}
	return s.row[:width]
}
