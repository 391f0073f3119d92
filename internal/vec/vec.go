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
// the cached identity selection for "every row".
//
// ColBatches are pooled and reference-counted: the storage layer caches one
// per resident page frame (one ref), hands extra refs to readers
// (HeapFile.PageCols), and the batch returns to the pool when the last ref
// drops. Strings are stored as Go string headers ([]string), not offsets
// into recyclable buffers, so rows materialized from a batch stay valid
// after the batch is recycled — the string contents are immutable heap
// objects (for columns decoded from a page, substrings of one shared
// per-page dictionary buffer). Dictionary-coded columns additionally carry
// the page's sorted dictionary in Dict with per-row codes in I, enabling
// predicate kernels that compare ints instead of strings.
package vec

import (
	"fmt"
	"slices"
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

	flags uint8
}

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

// reset empties the vector for reuse, retaining payload capacity. Strings
// and dictionary entries are cleared so a pooled vector does not pin page
// data alive.
func (v *Vec) reset() {
	v.Kinds = v.Kinds[:0]
	v.I = v.I[:0]
	v.F = v.F[:0]
	clear(v.S)
	v.S = v.S[:0]
	clear(v.Dict)
	v.Dict = v.Dict[:0]
	v.flags = 0
}

// pad grows s with zero values to length n (no-op on homogeneous columns,
// where every payload write lands at the end of its array).
func padI(s []int64, n int) []int64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func padF(s []float64, n int) []float64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func padS(s []string, n int) []string {
	for len(s) < n {
		s = append(s, "")
	}
	return s
}

// AppendDatum appends one value, routing the payload to its typed array and
// updating the uniformity flags.
func (v *Vec) AppendDatum(d types.Datum) {
	i := len(v.Kinds)
	v.Kinds = append(v.Kinds, d.K)
	switch d.K {
	case types.KindInt, types.KindDate, types.KindBool:
		v.flags |= flagNonFloat | flagNonStr
		v.I = append(padI(v.I, i), d.I)
	case types.KindFloat:
		v.flags |= flagNonInt | flagNonStr
		v.F = append(padF(v.F, i), d.F)
	case types.KindString:
		v.flags |= flagNonInt | flagNonFloat
		v.S = append(padS(v.S, i), d.S)
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
	n0 := len(v.Kinds)
	v.Kinds = slices.Grow(v.Kinds, n)[:n0+n]
	for i := n0; i < n0+n; i++ {
		v.Kinds[i] = k
	}
}

// BulkI resizes the int payload to n rows (reusing capacity) and returns it
// for direct fills. Every row must be covered by the fill, so the Vec
// invariant — the payload array for a row's kind covers its index — holds.
func (v *Vec) BulkI(n int) []int64 {
	if cap(v.I) < n {
		v.I = make([]int64, n)
	} else {
		v.I = v.I[:n]
	}
	return v.I
}

// BulkF is BulkI for the float payload.
func (v *Vec) BulkF(n int) []float64 {
	if cap(v.F) < n {
		v.F = make([]float64, n)
	} else {
		v.F = v.F[:n]
	}
	return v.F
}

// BulkS is BulkI for the string payload.
func (v *Vec) BulkS(n int) []string {
	if cap(v.S) < n {
		v.S = make([]string, n)
	} else {
		v.S = v.S[:n]
	}
	return v.S
}

// BulkDict resizes the dictionary to n entries (reusing capacity) and
// returns it for direct fills.
func (v *Vec) BulkDict(n int) []string {
	if cap(v.Dict) < n {
		v.Dict = make([]string, n)
	} else {
		v.Dict = v.Dict[:n]
	}
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
	v.Kinds = append(v.Kinds, k)
	switch k {
	case types.KindInt, types.KindDate, types.KindBool:
		v.flags |= flagNonFloat | flagNonStr
		v.I = append(padI(v.I, n), src.I[i])
	case types.KindFloat:
		v.flags |= flagNonInt | flagNonStr
		v.F = append(padF(v.F, n), src.F[i])
	case types.KindString:
		v.flags |= flagNonInt | flagNonFloat
		v.S = append(padS(v.S, n), src.S[i])
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
	n := len(v.Kinds)
	end := n + len(idxs)
	v.Kinds = slices.Grow(v.Kinds, len(idxs))
	switch {
	case src.AllInt():
		v.flags |= flagNonFloat | flagNonStr
		v.I = slices.Grow(padI(v.I, n), cap(v.Kinds)-n)[:end]
		v.Kinds = v.Kinds[:end]
		dk, di, sk, si := v.Kinds[n:], v.I[n:], src.Kinds, src.I
		for j, r := range idxs {
			dk[j] = sk[r] // int, date and bool share the payload, not the tag
			di[j] = si[r]
		}
	case src.AllFloat():
		v.flags |= flagNonInt | flagNonStr
		v.F = slices.Grow(padF(v.F, n), cap(v.Kinds)-n)[:end]
		v.Kinds = v.Kinds[:end]
		dk, df, sf := v.Kinds[n:], v.F[n:], src.F
		for j, r := range idxs {
			dk[j] = types.KindFloat
			df[j] = sf[r]
		}
	case src.AllStr():
		v.flags |= flagNonInt | flagNonFloat
		v.S = slices.Grow(padS(v.S, n), cap(v.Kinds)-n)[:end]
		v.Kinds = v.Kinds[:end]
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

// ColBatch is a page of rows in columnar form. Batches are pooled: obtain
// one with Get, share it with Retain, and drop it with Release — the last
// Release returns it to the pool. A sealed batch is immutable and safe for
// concurrent readers.
type ColBatch struct {
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

var batchPool sync.Pool

// liveBatches gauges batches checked out of the pool (Get/ProjectCols minus
// final Releases) — the refcount-leak oracle the fault batteries assert on:
// once every query has completed or failed, the gauge must return to the
// caller's baseline (page-frame caches excluded by the caller).
var liveBatches atomic.Int64

// LiveBatches returns the number of pooled batches currently checked out.
func LiveBatches() int64 { return liveBatches.Load() }

// Get takes a recycled batch from the pool (or allocates one) sized for
// ncols columns, with one reference held by the caller.
func Get(ncols int) *ColBatch {
	liveBatches.Add(1)
	b, _ := batchPool.Get().(*ColBatch)
	if b == nil {
		b = &ColBatch{}
	}
	if cap(b.cols) < ncols {
		b.cols = make([]Vec, ncols)
	} else {
		b.cols = b.cols[:ncols]
	}
	b.n = 0
	b.allSel = b.allSel[:0]
	b.refs.Store(1)
	return b
}

// Retain adds a reference; every Retain must be paired with a Release.
func (b *ColBatch) Retain() { b.refs.Add(1) }

// Release drops a reference; the last one resets the batch and returns it
// to the pool. Dropping a reference that was never taken panics.
func (b *ColBatch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		liveBatches.Add(-1)
		if p := b.parent; p != nil {
			// Derived batch: the Vec payload arrays belong to the parent, so
			// drop the struct references without clearing the arrays.
			for i := range b.cols {
				b.cols[i] = Vec{}
			}
			b.cols = b.cols[:0]
			b.allSel = nil // shared with the parent
			b.parent = nil
			b.n = 0
			batchPool.Put(b)
			p.Release()
			return
		}
		for i := range b.cols {
			b.cols[i].reset()
		}
		b.n = 0
		batchPool.Put(b)
	case n < 0:
		panic("vec: ColBatch over-released")
	}
}

// ProjectCols returns a derived batch whose column j is b's column idxs[j],
// sharing b's payload arrays and identity selection — the zero-copy form of
// a column-reference-only projection. The derived batch holds one reference
// on b (released when the derived batch's last reference drops) and one
// caller-owned reference on itself. b must be sealed.
func ProjectCols(b *ColBatch, idxs []int) *ColBatch {
	liveBatches.Add(1)
	d, _ := batchPool.Get().(*ColBatch)
	if d == nil {
		d = &ColBatch{}
	}
	if cap(d.cols) < len(idxs) {
		d.cols = make([]Vec, len(idxs))
	} else {
		d.cols = d.cols[:len(idxs)]
	}
	for j, idx := range idxs {
		d.cols[j] = b.cols[idx] // struct copy: payload arrays are shared
	}
	d.n = b.n
	d.allSel = b.allSel
	b.Retain()
	d.parent = b
	d.refs.Store(1)
	return d
}

// NumCols returns the number of columns.
func (b *ColBatch) NumCols() int { return len(b.cols) }

// Len returns the number of rows (valid after Seal).
func (b *ColBatch) Len() int { return b.n }

// Col returns column i.
func (b *ColBatch) Col(i int) *Vec { return &b.cols[i] }

// Reserve makes room for n rows in every column's tag array. Gathers size a
// payload array to its tag array (Vec.AppendGather), so this one call sizes a
// fresh output batch for its final row count whatever kinds arrive.
func (b *ColBatch) Reserve(n int) {
	for i := range b.cols {
		v := &b.cols[i]
		v.Kinds = slices.Grow(v.Kinds, max(0, n-len(v.Kinds)))
	}
}

// AppendRow appends one row column-wise (bulk decode uses per-column
// AppendDatum directly; this is the convenience form).
func (b *ColBatch) AppendRow(r types.Row) {
	for i := range r {
		b.cols[i].AppendDatum(r[i])
	}
}

// Seal fixes the row count, validates that every column covers it, and
// builds the cached identity selection. A batch must be sealed before it is
// shared: the lazy structures are built here, not on first concurrent read.
func (b *ColBatch) Seal(n int) {
	for i := range b.cols {
		if b.cols[i].Len() != n {
			panic(fmt.Sprintf("vec: column %d has %d rows, batch has %d", i, b.cols[i].Len(), n))
		}
	}
	b.n = n
	if cap(b.allSel) < n {
		b.allSel = make([]int32, n)
	} else {
		b.allSel = b.allSel[:n]
	}
	for i := range b.allSel {
		b.allSel[i] = int32(i)
	}
}

// AllSel returns the identity selection [0, 1, …, Len-1]. The slice is
// shared and must not be written.
func (b *ColBatch) AllSel() []int32 { return b.allSel }

// MaterializeRow writes row i into dst (one datum per column). dst must
// have NumCols entries.
func (b *ColBatch) MaterializeRow(i int, dst types.Row) {
	for c := range b.cols {
		dst[c] = b.cols[c].Datum(i)
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
