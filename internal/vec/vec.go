// Package vec is the columnar value model of the data path: typed column
// vectors (Vec), page-sized column batches (ColBatch) and the selection-
// vector convention shared by the vectorized predicate kernels
// (expr.CompileVec), the storage layer's columnar page cache and the CJOIN
// annotate/probe loops.
//
// A Vec is the struct-of-arrays form of a []types.Datum column: one kind tag
// per row plus typed payload arrays that exist only for the kinds the column
// actually holds. Homogeneous columns — the overwhelmingly common case — are
// summarized by uniformity flags (AllInt, AllFloat, AllStr) so kernels can
// run tight typed-slice loops and fall back to per-row Datum reconstruction
// only on mixed or NULL-bearing columns. Integer-class kinds (int, date,
// bool) share the int64 payload exactly as types.Datum does, so date
// predicates vectorize as int64 range checks.
//
// Selection-vector convention: a selection is an ascending []int32 of row
// indexes into the batch. Kernels take an input selection and write the
// surviving subset into a caller-provided output slice (which may alias the
// input — kernels only ever write at or before their read position), so
// predicate chains evaluate with zero allocation. ColBatch.AllSel returns
// the identity selection for "every row": a prefix of one slice shared by
// the whole process, never to be written (or passed as a kernel's output).
//
// ColBatches are reference-counted: the storage layer caches one per
// resident page frame (one ref), hands extra refs to readers
// (HeapFile.PageCols), and the last Release empties the batch. What is
// pooled is the parts, not the batch as it grew: every payload array goes
// back to a recycler that files it by element type and size class
// (recycle.go), the empty shell to a pool of shells, and the next use of
// either — any width, any row count — takes arrays of exactly the classes it
// fills. A column holds only the arrays its current use wrote, Get(ncols)
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
// column its tags and payload (BorrowKinds, BorrowI, BorrowF): storage decodes
// fixed-width page columns into memory it owns outside the recycler, and frees
// it when the batch closes the source at its last Release — after the columns
// are cleared, so nothing of the shell that goes back to the pool points
// there. And a single-kind column has no tag array at all: Kinds is a prefix
// of one read-only run per kind that the whole process shares (SetKindRun,
// CheckKindRuns). Borrowed and shared arrays are never grown in place, never
// handed to the recycler and not counted in PoolStats; a column that is
// written (an append, SetNull) copies them first. The rule for readers is the
// one that already held: a column's arrays are valid while a reference on its
// batch is.
//
// Strings are stored as Go string headers ([]string), not offsets into
// recyclable buffers, so rows materialized from a batch stay valid after the
// batch is recycled — the string contents are immutable heap objects (for
// columns decoded from a page, substrings of one shared per-page dictionary
// buffer), and a parked string array is cleared so it pins none of them.
// Dictionary-coded columns additionally carry the page's sorted dictionary
// in Dict with per-row codes in I, enabling predicate kernels that compare
// ints instead of strings.
package vec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Non-uniformity flags. A flag is set once some appended row is outside the
// corresponding kind class; NULL sets all three. The zero value means "no
// row has broken uniformity", so a zero Vec — a fresh make([]Vec, n) element
// as much as a pooled one — is valid and takes the typed paths.
const (
	flagNonInt uint8 = 1 << iota // some row is not int-class (int, date, bool)
	flagNonFloat
	flagNonStr
	flagMixed = flagNonInt | flagNonFloat | flagNonStr
)

// Vec is one typed column: per-row kind tags plus payload arrays allocated
// lazily for the kinds the column holds. For row i, Kinds[i] selects the
// payload: I[i] for int-class kinds, F[i] for floats, S[i] for strings,
// nothing for NULL.
//
// A Vec is a column of a pooled ColBatch, whose arrays come from and go back
// to the recycler (recycle.go), or free-standing (a join's build arena, a
// kernel's result vector), whose arrays live on the heap and are reused by
// reset. Either may hold arrays that are not its own (ext): the tag array of a
// single-kind column is a prefix of one read-only run the process shares, and
// a fixed-width column decoded from a page borrows its tags and payload from
// memory the batch's ColSource owns and frees when the batch is released. A
// foreign array is never grown in place and never recycled; a column about to
// be written copies it first.
type Vec struct {
	Kinds []types.Kind
	I     []int64
	F     []float64
	S     []string

	// Dict, when non-empty, marks a dictionary-coded string column (the
	// on-disk page format decodes string columns this way): Dict is the
	// page's sorted, duplicate-free dictionary, I[i] holds row i's code and
	// S[i] == Dict[I[i]] for every string row. Because the dictionary is
	// sorted, code order is string order, so predicate kernels translate a
	// string constant to a code bound once per page and compare ints.
	Dict []string

	flags  uint8
	ext    uint8 // which arrays are foreign (ext* bits)
	pooled bool  // column of a pooled batch: its own arrays are the recycler's
}

// Foreign-array bits of Vec.ext.
const (
	extKindRun uint8 = 1 << iota // Kinds is a prefix of the shared run of its kind
	extKinds                     // Kinds is borrowed from the batch's source
	extI                         // I is borrowed
	extF                         // F is borrowed
)

// HasDict reports whether the column is dictionary-coded (codes in I, sorted
// dictionary in Dict).
func (v *Vec) HasDict() bool { return len(v.Dict) > 0 }

// Len returns the number of rows appended.
func (v *Vec) Len() int { return len(v.Kinds) }

// AllInt reports whether every row is integer-class (int, date or bool) —
// the precondition for the int64 kernels. Implies no NULLs.
func (v *Vec) AllInt() bool { return v.flags&flagNonInt == 0 }

// AllFloat reports whether every row is a float. Implies no NULLs.
func (v *Vec) AllFloat() bool { return v.flags&flagNonFloat == 0 }

// AllStr reports whether every row is a string. Implies no NULLs.
func (v *Vec) AllStr() bool { return v.flags&flagNonStr == 0 }

// reset empties a free-standing vector for reuse, retaining payload
// capacity. Strings and dictionary entries are cleared so the vector does
// not pin page data alive.
func (v *Vec) reset() {
	v.dropForeign()
	v.Kinds = v.Kinds[:0]
	v.I = v.I[:0]
	v.F = v.F[:0]
	clear(v.S)
	v.S = v.S[:0]
	clear(v.Dict)
	v.Dict = v.Dict[:0]
	v.flags = 0
}

// release hands a pooled column's arrays back to the recycler and leaves the
// zero Vec.
func (v *Vec) release() {
	v.dropForeign()
	kindPark.put(v.Kinds)
	intPark.put(v.I)
	floatPark.put(v.F)
	strPark.put(v.S)
	strPark.put(v.Dict)
	*v = Vec{}
}

// dropForeign forgets the arrays that are not the column's own.
func (v *Vec) dropForeign() {
	if v.ext&(extKindRun|extKinds) != 0 {
		v.Kinds = nil
	}
	if v.ext&extI != 0 {
		v.I = nil
	}
	if v.ext&extF != 0 {
		v.F = nil
	}
	v.ext = 0
}

// own replaces every foreign array by a copy of the column's own: the slow
// path of whatever is about to write the column.
func (v *Vec) own() {
	if v.ext == 0 {
		return
	}
	if v.ext&(extKindRun|extKinds) != 0 {
		v.Kinds = owned(&kindPark, v.Kinds, v.pooled)
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
// own and borrowed; the shared kind runs are nobody's.
func (v *Vec) bytes() int64 {
	n := intPark.elem*int64(cap(v.I)) + floatPark.elem*int64(cap(v.F)) +
		strPark.elem*int64(cap(v.S)+cap(v.Dict))
	if v.ext&extKindRun == 0 {
		n += kindPark.elem * int64(cap(v.Kinds))
	}
	return n
}

// room makes the tag array (roomK) or a payload array (roomI, roomF, roomS)
// exactly n long with capacity for row n, so the append that follows stays in
// place: the slow path of the per-row appends, which test for it inline. It
// pads a payload the column has not used for a while (no-op on homogeneous
// columns, where every payload write lands at the end of its array) and
// grows a pooled column's payload to the rows its tag array has room for, so
// a reserved batch never regrows a column.
func (v *Vec) roomK(n int) {
	v.own()
	v.Kinds = extend(&kindPark, v.Kinds, n, n+1, 0, v.pooled)[:n]
}

func (v *Vec) roomI(n int) {
	v.own()
	v.I = extend(&intPark, v.I, n, n+1, cap(v.Kinds), v.pooled)[:n]
}

func (v *Vec) roomF(n int) {
	v.own()
	v.F = extend(&floatPark, v.F, n, n+1, cap(v.Kinds), v.pooled)[:n]
}

func (v *Vec) roomS(n int) {
	v.S = extend(&strPark, v.S, n, n+1, cap(v.Kinds), v.pooled)[:n]
}

// AppendDatum appends one value, routing the payload to its typed array and
// updating the uniformity flags.
func (v *Vec) AppendDatum(d types.Datum) {
	i := len(v.Kinds)
	if i == cap(v.Kinds) {
		v.roomK(i)
	}
	v.Kinds = append(v.Kinds, d.K)
	switch d.K {
	case types.KindInt, types.KindDate, types.KindBool:
		v.flags |= flagNonFloat | flagNonStr
		if len(v.I) != i || i == cap(v.I) {
			v.roomI(i)
		}
		v.I = append(v.I, d.I)
	case types.KindFloat:
		v.flags |= flagNonInt | flagNonStr
		if len(v.F) != i || i == cap(v.F) {
			v.roomF(i)
		}
		v.F = append(v.F, d.F)
	case types.KindString:
		v.flags |= flagNonInt | flagNonFloat
		if len(v.S) != i || i == cap(v.S) {
			v.roomS(i)
		}
		v.S = append(v.S, d.S)
	default: // NULL
		v.flags = flagMixed
	}
}

// ---------------------------------------------------------------------------
// Bulk builders. The columnar page decoder fills vectors segment-at-a-time:
// kind tags arrive as runs and payloads as whole typed arrays, so a page
// decode is a handful of tight loops instead of per-datum appends.

// AppendKindRun appends n copies of kind k to the tag array, updating the
// uniformity flags once for the whole run. Payload arrays are not touched;
// the caller follows up with BulkI/BulkF/BulkS fills that cover every row.
func (v *Vec) AppendKindRun(k types.Kind, n int) {
	if n <= 0 {
		return
	}
	v.noteKind(k)
	v.own()
	n0 := len(v.Kinds)
	v.Kinds = extend(&kindPark, v.Kinds, n0, n0+n, 0, v.pooled)
	for i := n0; i < n0+n; i++ {
		v.Kinds[i] = k
	}
}

// noteKind folds one row's kind into the uniformity flags.
func (v *Vec) noteKind(k types.Kind) {
	switch k {
	case types.KindInt, types.KindDate, types.KindBool:
		v.flags |= flagNonFloat | flagNonStr
	case types.KindFloat:
		v.flags |= flagNonInt | flagNonStr
	case types.KindString:
		v.flags |= flagNonInt | flagNonFloat
	default: // NULL
		v.flags = flagMixed
	}
}

// SetKindRun tags every one of n rows of v, an empty column, with kind k
// without giving the column a tag array of its own: Kinds becomes a prefix of
// the run of k's that every single-kind column in the process shares. Nothing
// may write through it (CheckKindRuns); a column that is appended to or has a
// row set NULL copies its tags first. A column longer than the shared runs
// gets its own array.
func (v *Vec) SetKindRun(k types.Kind, n int) {
	if n <= 0 {
		return
	}
	if len(v.Kinds) != 0 || n > maxSharedSel || int(k) >= len(kindRuns) {
		v.AppendKindRun(k, n)
		return
	}
	v.noteKind(k)
	v.Kinds = kindRuns[k]()[:n:n]
	v.ext |= extKindRun
}

// BorrowKinds makes tags, which the caller has filled, the tag array of v, an
// empty column, without copying. The array stays the lender's: the batch's
// ColSource, which must keep it until the batch closes it.
func (v *Vec) BorrowKinds(tags []types.Kind) {
	for _, k := range tags {
		v.noteKind(k)
	}
	v.Kinds = tags[:len(tags):len(tags)]
	v.ext |= extKinds
}

// BorrowI makes p the int payload of v, on BorrowKinds's terms, and returns
// it for the caller to fill.
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
// for direct fills. Every row must be covered by the fill, so the Vec
// invariant — the payload array for a row's kind covers its index — holds.
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

// BulkS is BulkI for the string payload.
func (v *Vec) BulkS(n int) []string {
	v.S = sized(&strPark, v.S, n, v.pooled)
	return v.S
}

// BulkDict resizes the dictionary to n entries (reusing capacity) and
// returns it for direct fills.
func (v *Vec) BulkDict(n int) []string {
	v.Dict = sized(&strPark, v.Dict, n, v.pooled)
	return v.Dict
}

// ResetRun makes v a column of n rows all tagged with the numeric kind k,
// reusing capacity, with the kind's payload array sized to n for direct fills
// (contents unspecified until written) — the shape of a kernel's reusable
// result vector. A fill need only cover the rows its consumer reads.
func (v *Vec) ResetRun(k types.Kind, n int) {
	v.reset()
	v.AppendKindRun(k, n)
	if k == types.KindFloat {
		v.BulkF(n)
	} else {
		v.BulkI(n)
	}
}

// SetNull overwrites row i with NULL; the column stops being uniform.
func (v *Vec) SetNull(i int) {
	v.own()
	v.Kinds[i] = types.KindNull
	v.flags = flagMixed
}

// AppendFrom appends row i of src as the next row of v: a typed payload
// copy with no Datum boxing, used by the CJOIN distributor to route fact
// columns straight between batches. Dictionary coding does not propagate;
// dictionary rows append as plain string rows (the string headers already
// point into the source page's immutable buffer).
func (v *Vec) AppendFrom(src *Vec, i int) {
	k := src.Kinds[i]
	n := len(v.Kinds)
	if n == cap(v.Kinds) {
		v.roomK(n)
	}
	v.Kinds = append(v.Kinds, k)
	switch k {
	case types.KindInt, types.KindDate, types.KindBool:
		v.flags |= flagNonFloat | flagNonStr
		if len(v.I) != n || n == cap(v.I) {
			v.roomI(n)
		}
		v.I = append(v.I, src.I[i])
	case types.KindFloat:
		v.flags |= flagNonInt | flagNonStr
		if len(v.F) != n || n == cap(v.F) {
			v.roomF(n)
		}
		v.F = append(v.F, src.F[i])
	case types.KindString:
		v.flags |= flagNonInt | flagNonFloat
		if len(v.S) != n || n == cap(v.S) {
			v.roomS(n)
		}
		v.S = append(v.S, src.S[i])
	default: // NULL
		v.flags = flagMixed
	}
}

// AppendGather appends rows idxs of src to v in order: the bulk form of
// AppendFrom with the kind dispatch hoisted out of the loop. Homogeneous
// source columns (the common case — a join's build arena or a scanned page
// column) copy payloads in one tight typed loop; mixed or NULL-bearing
// columns fall back to per-row AppendFrom. Dictionary coding does not
// propagate, exactly as in AppendFrom.
//
// Room for the whole gather is reserved once up front, and the payload array
// is sized to the tag array's capacity, so a batch whose tags were reserved
// for its final row count (ColBatch.Reserve) never regrows a column.
func (v *Vec) AppendGather(src *Vec, idxs []int32) {
	if len(idxs) == 0 {
		return
	}
	v.own()
	n := len(v.Kinds)
	end := n + len(idxs)
	switch {
	case src.AllInt():
		v.flags |= flagNonFloat | flagNonStr
		v.Kinds = extend(&kindPark, v.Kinds, n, end, 0, v.pooled)
		v.I = extend(&intPark, v.I, n, end, cap(v.Kinds), v.pooled)
		dk, di, sk, si := v.Kinds[n:], v.I[n:], src.Kinds, src.I
		for j, r := range idxs {
			dk[j] = sk[r] // int, date and bool share the payload, not the tag
			di[j] = si[r]
		}
	case src.AllFloat():
		v.flags |= flagNonInt | flagNonStr
		v.Kinds = extend(&kindPark, v.Kinds, n, end, 0, v.pooled)
		v.F = extend(&floatPark, v.F, n, end, cap(v.Kinds), v.pooled)
		dk, df, sf := v.Kinds[n:], v.F[n:], src.F
		for j, r := range idxs {
			dk[j] = types.KindFloat
			df[j] = sf[r]
		}
	case src.AllStr():
		v.flags |= flagNonInt | flagNonFloat
		v.Kinds = extend(&kindPark, v.Kinds, n, end, 0, v.pooled)
		v.S = extend(&strPark, v.S, n, end, cap(v.Kinds), v.pooled)
		dk, ds, ss := v.Kinds[n:], v.S[n:], src.S
		for j, r := range idxs {
			dk[j] = types.KindString
			ds[j] = ss[r]
		}
	default:
		for _, r := range idxs {
			v.AppendFrom(src, int(r))
		}
	}
}

// Datum reconstructs row i as a types.Datum. The payload array for the
// row's kind is guaranteed to cover index i by construction.
func (v *Vec) Datum(i int) types.Datum {
	switch k := v.Kinds[i]; k {
	case types.KindNull:
		return types.Null
	case types.KindFloat:
		return types.Datum{K: k, F: v.F[i]}
	case types.KindString:
		return types.Datum{K: k, S: v.S[i]}
	default:
		return types.Datum{K: k, I: v.I[i]}
	}
}

// ColSource materialises the columns a batch did not decode when it was
// built. The storage layer opens a page by validating all of it and decoding
// only the segments whose decode can fail; the fixed-width segments are left
// to the first reader that asks for the column, through this interface (vec
// cannot import storage). The source must stay able to decode until Close.
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
// caller's baseline (page-frame caches excluded by the caller).
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

// Reserve makes room for n rows in every column's tag array. Appends and
// gathers size a payload array to its tag array, so this one call sizes a
// fresh output batch for its final row count whatever kinds arrive.
func (b *ColBatch) Reserve(n int) {
	for i := range b.cols {
		v := &b.cols[i]
		v.own()
		l := len(v.Kinds)
		v.Kinds = extend(&kindPark, v.Kinds, l, max(l, n), 0, v.pooled)[:l]
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

// SourceShared reports whether a holder other than the caller may still ask
// the column source for an undecoded column. The caller must hold a
// reference and be the only way to obtain new ones (a page frame deciding,
// unpinned, whether its page bytes can be overwritten).
func (b *ColBatch) SourceShared() bool {
	return b.refs.Load() > 1 && atomic.LoadUint64(&b.pending) != 0
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

// maxSharedSel is the length of the shared identity selection: every page
// (at most 0xFFFE rows) and every BatchSize-row operator output fits.
const maxSharedSel = 1 << 16

// sharedSel is the process's one identity selection [0, 1, …), built on
// first use and never written again.
var sharedSel = sync.OnceValue(func() []int32 { return newIdentity(maxSharedSel) })

func newIdentity(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// identitySel returns [0, 1, …, n-1]: a prefix of the shared selection, or a
// private slice for a batch longer than it (a whole dimension gathered into
// one batch).
func identitySel(n int) []int32 {
	if n <= maxSharedSel {
		return sharedSel()[:n:n]
	}
	return newIdentity(n)
}

// CheckIdentity verifies that nothing has written through an AllSel slice:
// the shared identity selection must still map every index to itself. Test
// batteries call it after driving the kernels.
func CheckIdentity() error {
	for i, r := range sharedSel() {
		if r != int32(i) {
			return fmt.Errorf("vec: shared identity selection overwritten: sel[%d] = %d", i, r)
		}
	}
	return nil
}

// kindRuns are the process's read-only runs of one kind each, maxSharedSel
// long and built on first use: the tag arrays of single-kind columns.
var kindRuns = func() (runs [types.KindBool + 1]func() []types.Kind) {
	for k := range runs {
		runs[k] = sync.OnceValue(func() []types.Kind {
			run := make([]types.Kind, maxSharedSel)
			for i := range run {
				run[i] = types.Kind(k)
			}
			return run
		})
	}
	return runs
}()

// CheckKindRuns verifies that nothing has written through the Kinds of a
// single-kind column: every shared run must still hold its one kind. Test
// batteries call it after driving the kernels.
func CheckKindRuns() error {
	for k, run := range kindRuns {
		for i, got := range run() {
			if got != types.Kind(k) {
				return fmt.Errorf("vec: shared run of kind %v overwritten: tag[%d] = %v", types.Kind(k), i, got)
			}
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
