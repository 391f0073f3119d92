// Package dimtab is the process's one join index: the build side of an
// equi-join, gathered into an entry-aligned column batch and indexed once.
//
// A stored table's index is shared. Each storage.Table holds a Set, which
// holds at most one Index per key column at the table's current content
// version: every column in schema order, built under single flight by the
// first caller of Acquire and freed when its last holder releases it. CJOIN
// holds one per dimension for its lifetime; a query-centric hash join whose
// build side is a filtered scan of a stored table probes the same one,
// under a Keep of the entries its own predicates select. Only the build is
// shared: each query still evaluates its predicates, once, through Select,
// and runs its operators. The engine refuses a hash join with any other
// build side, so New, Append and Seal run only inside the shared index's
// build.
//
// Entry e is row e of the table's batch, in arrival order: every column of
// the appended row, in schema order. A row whose key is NULL is never an
// entry, and a NULL probe key matches nothing. Equality is Datum.Equal's
// (integral floats match ints, numbers never match strings), and entries
// sharing a key chain in arrival order, so Find returns the first and Next
// walks the rest.
//
// The batch is held at its size, since it lives as long as its holders. A
// shared index's build reserves every column for its source's row count
// before the first page (Reserve), so no column is regrown and copied, and
// keeps every string column as codes over one dictionary of the index's own
// (vec.Vec.AppendCoded): each page's dictionary is mapped into it, one
// lookup per entry, and Seal sorts it once and rewrites the codes, so code
// order is string order for the predicate kernels. The dictionary holds
// copies of its strings, so the index pins no page's memory.
//
// Seal builds one of two index forms, sized to the final entry count.
// Direct: every key is integer-class and the keys span fewer than
// directSpanFactor × entries values (surrogate keys are dense) or fewer than
// directMaxSmall (a yyyymmdd date key spans ~24 values per day, but a whole
// date dimension spans under 65 536), so direct[k-lo] holds key k's first
// entry and a probe is one bounds check and one load. Hashed:
// open-addressing, linear-probing slots, at most half full, holding each
// distinct key's first entry at the position its vec.HashFold hash names. A
// sealed Table is immutable and safe for concurrent readers.
package dimtab

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/types"
	"repro/internal/vec"
)

// MaxEntries bounds a table: entries are int32 indexes stored as entry+1.
const MaxEntries = 1 << 30

// directSpanFactor bounds the direct index's length relative to the entry
// count; directMaxSmall is the length (a 256 KiB index) below which the
// direct form is built however sparse the keys.
const (
	directSpanFactor = 4
	directMaxSmall   = 1 << 16
)

// hashChunk is how many keys one vec.HashFold call hashes into a stack
// buffer.
const hashChunk = 256

// Table is one join index. Fill it with Append, index it with Seal; after
// Seal it is read-only until Release.
type Table struct {
	key int // join key column

	cb  *vec.ColBatch // entry e is row e
	kv  *vec.Vec      // cb's key column, set by Seal
	n   int
	sel []int32 // Append's rows with a non-NULL key

	next []int32 // next entry with an equal key; -1 ends the chain
	dup  int32   // first entry whose key a later entry repeats; -1 if none

	// Direct form: direct[k-lo] is key k's first entry + 1 (0: none).
	direct []int32
	lo     int64
	// Hashed form: each distinct key's first entry + 1, at the slot the top
	// bits of its hash name or the first free one after it.
	slots []int32
	shift uint

	coder []vec.Coder // by column: a string column's dictionary until Seal
}

// New returns an empty table over batches of ncols columns whose join key
// is column key. Every appended row is kept whole: column c of Batch is
// column c of the appended batches, so an empty table still has them all.
func New(key, ncols int) *Table {
	return &Table{key: key, dup: -1, cb: vec.Get(ncols), coder: make([]vec.Coder, ncols)}
}

// Reserve makes room for n entries in every column before the first
// Append: a build that appends no more takes each column once at its final
// size and never regrows and copies one.
func (t *Table) Reserve(n int) { t.cb.Reserve(n) }

// Append gathers the rows sel of cb whose join key is not NULL as the next
// entries, in order. A string column is kept as codes over one dictionary
// of the table's own (vec.Vec.AppendCoded), whatever form cb's column takes.
func (t *Table) Append(cb *vec.ColBatch, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if kc := cb.Col(t.key); kc.HasNulls() {
		t.sel = kc.DropNulls(sel, slices.Grow(t.sel[:0], len(sel))[:len(sel)])
		sel = t.sel
	}
	for c := range t.cb.NumCols() {
		dst, src := t.cb.Col(c), cb.Col(c)
		if src.Kind == types.KindString || dst.Kind == types.KindString {
			dst.AppendCoded(src, sel, &t.coder[c])
		} else {
			dst.AppendGather(src, sel)
		}
	}
	t.n += len(sel)
}

// Seal indexes the entries, once, after the last Append: it sorts each
// string column's dictionary, so code order is string order, and builds
// the index. It fails when the table holds MaxEntries entries or more; the
// caller still releases it.
func (t *Table) Seal() error {
	if t.n >= MaxEntries {
		return fmt.Errorf("dimtab: %d entries, at most %d", t.n, MaxEntries-1)
	}
	for c := range t.coder {
		t.cb.Col(c).SortDict(&t.coder[c])
	}
	t.coder, t.sel = nil, nil
	t.cb.Seal(t.n)
	t.kv = t.cb.Col(t.key)
	t.next = make([]int32, t.n)
	if !t.sealDirect() {
		t.sealHashed()
	}
	return nil
}

// sealDirect builds the direct form when the keys are integer-class and
// dense enough, and reports whether it did.
func (t *Table) sealDirect() bool {
	if t.n == 0 || !t.kv.Kind.IntClass() {
		return false
	}
	keys := t.kv.I[:t.n]
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	// The unsigned difference cannot overflow for any int64 pair.
	if span := uint64(hi) - uint64(lo); span >= directSpanFactor*uint64(t.n) && span >= directMaxSmall {
		return false
	}
	t.direct, t.lo = make([]int32, hi-lo+1), lo
	for e := int32(t.n - 1); e >= 0; e-- {
		t.prepend(e, &t.direct[keys[e]-lo])
	}
	return true
}

// sealHashed builds the hashed form, hashing the keys with the fold the
// probe uses.
func (t *Table) sealHashed() {
	bits := uint(4)
	for 1<<bits < 2*t.n {
		bits++
	}
	t.slots, t.shift = make([]int32, 1<<bits), 64-bits
	all := t.cb.AllSel()
	var h [hashChunk]uint64
	var lut []uint64
	for hi := t.n; hi > 0; hi -= hashChunk {
		lo := max(hi-hashChunk, 0)
		hs := h[:hi-lo]
		clear(hs)
		lut = vec.HashFold(t.kv, all[lo:hi], hs, lut)
		for e := hi - 1; e >= lo; e-- {
			if t.kv.Kind.IntClass() {
				t.prepend(int32(e), t.slotInt(hs[e-lo], t.kv.I[e]))
			} else {
				t.prepend(int32(e), t.slot(hs[e-lo], t.kv.Datum(e)))
			}
		}
	}
}

// prepend makes e the first entry of the chain headed by *head (entry + 1, 0
// for none). Entries are linked last to first, so every chain ends up in
// arrival order, and a head already set means a later entry repeats e's key.
func (t *Table) prepend(e int32, head *int32) {
	if *head != 0 {
		t.dup = e
	}
	t.next[e] = *head - 1
	*head = e + 1
}

// slot returns the slot of key d, which hashes to h: the one holding d's
// first entry, or the free one where it would go.
func (t *Table) slot(h uint64, d types.Datum) *int32 {
	mask := uint64(len(t.slots) - 1)
	for s := h >> t.shift; ; s = (s + 1) & mask {
		if e := t.slots[s] - 1; e < 0 || t.keyEq(e, d) {
			return &t.slots[s]
		}
	}
}

// slotInt is slot for the integer-class key k of a table whose keys are all
// integer-class: the walk compares raw int64s.
func (t *Table) slotInt(h uint64, k int64) *int32 {
	mask, keys := uint64(len(t.slots)-1), t.kv.I
	s := h >> t.shift
	for t.slots[s] != 0 && keys[t.slots[s]-1] != k {
		s = (s + 1) & mask
	}
	return &t.slots[s]
}

// keyEq reports whether entry e's key equals d, which is not NULL: a typed
// compare when both are strings.
func (t *Table) keyEq(e int32, d types.Datum) bool {
	if t.kv.Kind == types.KindString && d.K == types.KindString {
		return t.kv.Str(int(e)) == d.S
	}
	return t.kv.Datum(int(e)).Equal(d)
}

// FindInt returns the first entry whose key equals the integer-class key k,
// or -1.
func (t *Table) FindInt(k int64) int32 {
	if d := uint64(k - t.lo); d < uint64(len(t.direct)) {
		return t.direct[d] - 1
	}
	if t.direct != nil {
		return -1
	}
	h := types.HashKeyInt(k) * vec.HashPrime
	if t.kv.Kind.IntClass() {
		return *t.slotInt(h, k) - 1
	}
	return *t.slot(h, types.NewInt(k)) - 1
}

// Find returns the first entry whose key equals row r of v, or -1. A NULL
// row matches nothing.
func (t *Table) Find(v *vec.Vec, r int) int32 {
	d := v.Datum(r)
	switch {
	case d.K == types.KindNull:
		return -1
	case d.K != types.KindFloat && d.K != types.KindString:
		return t.FindInt(d.I)
	case t.direct != nil:
		// Every key is integer-class: only an integral float can match.
		if d.K == types.KindFloat && d.F == math.Trunc(d.F) && math.Abs(d.F) < 1<<63 {
			return t.FindInt(int64(d.F))
		}
		return -1
	}
	return *t.slot(d.HashKey()*vec.HashPrime, d) - 1
}

// Next returns the entry after e with an equal key, in arrival order, or -1.
func (t *Table) Next(e int32) int32 { return t.next[e] }

// Probe appends one (row, entry) pair to ml and me for every entry equal to
// each selected row of kc — rows in sel order, each row's entries in arrival
// order — and returns the extended slices. NULL rows match nothing.
func (t *Table) Probe(kc *vec.Vec, sel []int32, ml, me []int32) ([]int32, []int32) {
	return t.ProbeKept(kc, sel, nil, ml, me)
}

// ProbeKept is Probe returning only entries k keeps; a nil k keeps every
// entry. It probes sel a chunk at a time, the chunk's NULL rows dropped
// first when kc has any.
func (t *Table) ProbeKept(kc *vec.Vec, sel []int32, k *Keep, ml, me []int32) ([]int32, []int32) {
	if t.n == 0 {
		return ml, me
	}
	var nn [hashChunk]int32
	var h [hashChunk]uint64
	var lut []uint64
	for len(sel) > 0 {
		part := sel[:min(len(sel), hashChunk)]
		sel = sel[len(part):]
		if kc.HasNulls() {
			part = kc.DropNulls(part, nn[:len(part)])
		}
		switch {
		case t.direct != nil && kc.Kind.IntClass():
			ml, me = t.probeDirect(kc.I, part, k, ml, me)
		case t.direct != nil:
			for _, r := range part {
				for e := t.Find(kc, int(r)); e >= 0; e = t.next[e] {
					if k.has(e) {
						ml, me = append(ml, r), append(me, e)
					}
				}
			}
		default:
			hs := h[:len(part)]
			clear(hs)
			lut = vec.HashFold(kc, part, hs, lut)
			ints := kc.Kind.IntClass() && t.kv.Kind.IntClass() // the walk compares raw int64s
			for i, r := range part {
				var e int32
				if ints {
					e = *t.slotInt(hs[i], kc.I[r]) - 1
				} else {
					e = *t.slot(hs[i], kc.Datum(int(r))) - 1
				}
				for ; e >= 0; e = t.next[e] {
					if k.has(e) {
						ml, me = append(ml, r), append(me, e)
					}
				}
			}
		}
	}
	return ml, me
}

// probeDirect is ProbeKept's loop over a direct index for the integer-class
// keys ki at the rows sel, none of them NULL.
func (t *Table) probeDirect(ki []int64, sel []int32, k *Keep, ml, me []int32) ([]int32, []int32) {
	switch {
	case k == nil:
		for _, r := range sel {
			if d := uint64(ki[r] - t.lo); d < uint64(len(t.direct)) {
				for e := t.direct[d] - 1; e >= 0; e = t.next[e] {
					ml, me = append(ml, r), append(me, e)
				}
			}
		}
	case k.key != nil:
		// Distinct keys: the key's bit decides before the entry load.
		for _, r := range sel {
			if d := uint64(ki[r] - t.lo); d < uint64(len(t.direct)) && k.key[d>>6]&(1<<(d&63)) != 0 {
				ml, me = append(ml, r), append(me, t.direct[d]-1)
			}
		}
	default:
		for _, r := range sel {
			if d := uint64(ki[r] - t.lo); d < uint64(len(t.direct)) {
				for e := t.direct[d] - 1; e >= 0; e = t.next[e] {
					if k.has(e) {
						ml, me = append(ml, r), append(me, e)
					}
				}
			}
		}
	}
	return ml, me
}

// Keep is a selection of a sealed table's entries: the ones a probe under
// it returns, as one query's predicate over a shared index picks them. It
// is a bitset by entry and, once ProbeKeys added it, for a direct index
// whose keys are distinct also one by key offset, which the integer probe
// tests before it loads the entry.
type Keep struct {
	t   *Table
	ent []uint64 // bit e: entry e is kept
	key []uint64 // distinct direct keys: bit k-lo, key k's entry is kept
}

// NewKeep returns a selection of none of t's entries. Valid after Seal.
func (t *Table) NewKeep() *Keep {
	return &Keep{t: t, ent: make([]uint64, (t.n+63)/64)}
}

// ProbeKeys adds the bitset by key offset to a Keep of a direct index whose
// keys are distinct, for a Keep that ProbeKept is to read; a Keep read
// entry by entry (Each) needs none. A no-op on a nil Keep and on other
// indexes. Entries added later are added to both bitsets.
func (k *Keep) ProbeKeys() {
	if k == nil || k.key != nil || k.t.direct == nil || k.t.dup >= 0 {
		return
	}
	k.key = make([]uint64, (len(k.t.direct)+63)/64)
	keys, lo := k.t.kv.I, k.t.lo
	k.t.Each(k, func(e int32) {
		d := uint64(keys[e] - lo)
		k.key[d>>6] |= 1 << (d & 63)
	})
}

// Add keeps entries es.
func (k *Keep) Add(es []int32) {
	for _, e := range es {
		k.ent[e>>6] |= 1 << (uint(e) & 63)
	}
	if k.key != nil {
		keys, lo := k.t.kv.I, k.t.lo
		for _, e := range es {
			d := uint64(keys[e] - lo)
			k.key[d>>6] |= 1 << (d & 63)
		}
	}
}

// has reports whether k keeps entry e; a nil k keeps every entry.
func (k *Keep) has(e int32) bool { return k == nil || k.ent[e>>6]&(1<<(uint(e)&63)) != 0 }

// Each calls f with every entry k keeps, in order; a nil k keeps every
// entry.
func (t *Table) Each(k *Keep, f func(e int32)) {
	if k == nil {
		for e := range int32(t.n) {
			f(e)
		}
		return
	}
	for i, w := range k.ent {
		for ; w != 0; w &= w - 1 {
			f(int32(i<<6 + bits.TrailingZeros64(w)))
		}
	}
}

// Pred is a compiled predicate over a column batch, the shape of
// expr.VecPred: it returns the rows of sel it holds for, written to out.
type Pred = func(b *vec.ColBatch, sel, out []int32, scr *vec.Scratch) []int32

// selectChunk is how many entries Select evaluates per kernel call.
const selectChunk = 1024

// Select evaluates p over the entries, a chunk at a time, and returns the
// entries it keeps and how many: the one selection a query makes of a
// shared index, whichever operator probes it. A nil p keeps every entry,
// as a nil Keep. The chunk buffer and p's temporaries come from the
// caller's scr, so a caller that keeps its scratch selects without
// allocating them again. Valid after Seal.
func (t *Table) Select(p Pred, scr *vec.Scratch) (*Keep, int) {
	if p == nil {
		return nil, t.n
	}
	keep, all, kept := t.NewKeep(), t.cb.AllSel(), 0
	buf := scr.Grab(min(selectChunk, len(all)))
	for lo := 0; lo < len(all); lo += selectChunk {
		sel := all[lo:min(lo+selectChunk, len(all))]
		sel = p(t.cb, sel, buf[:len(sel)], scr)
		keep.Add(sel)
		kept += len(sel)
	}
	scr.Drop()
	return keep, kept
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.n }

// Dup returns the first entry whose key a later entry repeats, or -1 when
// every key is distinct. Valid after Seal.
func (t *Table) Dup() int32 { return t.dup }

// Batch returns the entries as a sealed column batch: row e is entry e, and
// column c holds the appended batches' column c. It is valid until Release.
func (t *Table) Batch() *vec.ColBatch { return t.cb }

// Release gives the entry batch back to its pool.
func (t *Table) Release() { t.cb.Release() }
