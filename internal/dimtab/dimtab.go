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
// Seal builds one of three index forms, sized to the final entry count and
// held at the density of the keys. Direct: every key is integer-class and
// the keys span fewer than directSpanFactor × entries values (surrogate keys
// are dense), so direct[k-lo] holds key k's first entry and a probe is one
// bounds check and one load. Rank: every key is integer-class and the keys
// span fewer than rankSpanFactor × entries values (a yyyymmdd date key spans
// ~24 values per day): a presence bitset over the span, with the count of
// present keys below each 64-bit word, ranks key k among the distinct keys,
// and first[rank] holds its first entry, so a probe is a bounds check, a bit
// test and one popcount. Hashed: open-addressing, linear-probing slots, at
// most half full, holding each distinct key's first entry at the position
// its vec.HashFold hash names. The chain of entries after each first one is
// allocated only when some key repeats. A sealed Table is immutable and
// safe for concurrent readers.
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

// directSpanFactor and rankSpanFactor bound the key span, relative to the
// entry count, up to which the direct and the rank form are built: the
// direct form takes 4 bytes a value of the span, the rank form 16 bytes a
// 64 values and 4 bytes a distinct key.
const (
	directSpanFactor = 4
	rankSpanFactor   = 64
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

	next []int32 // next entry with an equal key, -1 ending the chain; nil while no key repeats
	dup  int32   // first entry whose key a later entry repeats; -1 if none

	// Direct form: direct[k-lo] is key k's first entry + 1 (0: none).
	direct []int32
	lo     int64 // the least key, in the direct and the rank form
	// Rank form: key k is present when bit k-lo of the words is set, and
	// first[r] is its first entry + 1, r its rank among the distinct keys.
	words []rankWord
	first []int32
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
	if !t.sealInt() {
		t.sealHashed()
	}
	return nil
}

// rankWord is 64 values of the rank form's span: the bit of each present
// key, and how many keys are present below the word.
type rankWord struct {
	set  uint64
	rank int32
}

// sealInt builds the direct or the rank form when the keys are
// integer-class and dense enough, and reports whether it did.
func (t *Table) sealInt() bool {
	if t.n == 0 || !t.kv.Kind.IntClass() {
		return false
	}
	keys := t.kv.I[:t.n]
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	// The unsigned difference cannot overflow for any int64 pair.
	switch span := uint64(hi) - uint64(lo); {
	case span < directSpanFactor*uint64(t.n):
		t.direct, t.lo = make([]int32, span+1), lo
		for e := int32(t.n - 1); e >= 0; e-- {
			t.prepend(e, &t.direct[keys[e]-lo])
		}
	case span < rankSpanFactor*uint64(t.n):
		t.words, t.lo = make([]rankWord, span/64+1), lo
		for _, k := range keys {
			d := uint64(k - lo)
			t.words[d>>6].set |= 1 << (d & 63)
		}
		var r int32
		for i := range t.words {
			t.words[i].rank = r
			r += int32(bits.OnesCount64(t.words[i].set))
		}
		t.first = make([]int32, r)
		for e := int32(t.n - 1); e >= 0; e-- {
			t.prepend(e, &t.first[t.rankOf(uint64(keys[e]-lo))])
		}
	default:
		return false
	}
	return true
}

// rankOf returns the rank, among the distinct keys, of the key at offset d
// from lo in the rank form, or -1 when no entry has that key.
func (t *Table) rankOf(d uint64) int32 {
	i := d >> 6
	if i >= uint64(len(t.words)) {
		return -1
	}
	w, bit := t.words[i], uint64(1)<<(d&63)
	if w.set&bit == 0 {
		return -1
	}
	return w.rank + int32(bits.OnesCount64(w.set&(bit-1)))
}

// intKeys reports whether the table took the direct or the rank form, whose
// keys are all integer-class.
func (t *Table) intKeys() bool { return t.direct != nil || t.words != nil }

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
// The chain is made at the first repeat: every entry linked before it ends
// its own chain.
func (t *Table) prepend(e int32, head *int32) {
	if *head != 0 {
		t.dup = e
		if t.next == nil {
			t.next = make([]int32, t.n)
			for i := range t.next {
				t.next[i] = -1
			}
		}
	}
	if t.next != nil {
		t.next[e] = *head - 1
	}
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
	if t.words != nil {
		if r := t.rankOf(uint64(k - t.lo)); r >= 0 {
			return t.first[r] - 1
		}
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
	case t.intKeys():
		// Every key is integer-class: only an integral float can match.
		if d.K == types.KindFloat && d.F == math.Trunc(d.F) && math.Abs(d.F) < 1<<63 {
			return t.FindInt(int64(d.F))
		}
		return -1
	}
	return *t.slot(d.HashKey()*vec.HashPrime, d) - 1
}

// Next returns the entry after e with an equal key, in arrival order, or -1.
func (t *Table) Next(e int32) int32 {
	if t.next == nil {
		return -1
	}
	return t.next[e]
}

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
		case t.words != nil && kc.Kind.IntClass():
			ml, me = t.probeRank(kc.I, part, k, ml, me)
		case t.intKeys():
			for _, r := range part {
				for e := t.Find(kc, int(r)); e >= 0; e = t.Next(e) {
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
				for ; e >= 0; e = t.Next(e) {
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
				for e := t.direct[d] - 1; e >= 0; e = t.Next(e) {
					ml, me = append(ml, r), append(me, e)
				}
			}
		}
	case k.key != nil:
		// Distinct keys: every pair in the span is written and kept when its
		// key's bit is set, with no branch on the bit.
		n := len(ml)
		ml, me = slices.Grow(ml, len(sel))[:n+len(sel)], slices.Grow(me, len(sel))[:n+len(sel)]
		for _, r := range sel {
			if d := uint64(ki[r] - t.lo); d < uint64(len(t.direct)) {
				ml[n], me[n] = r, t.direct[d]-1
				n += int(k.key[d>>6] >> (d & 63) & 1)
			}
		}
		ml, me = ml[:n], me[:n]
	default:
		for _, r := range sel {
			if d := uint64(ki[r] - t.lo); d < uint64(len(t.direct)) {
				for e := t.direct[d] - 1; e >= 0; e = t.Next(e) {
					if k.has(e) {
						ml, me = append(ml, r), append(me, e)
					}
				}
			}
		}
	}
	return ml, me
}

// probeRank is ProbeKept's loop over a rank index for the integer-class keys
// ki at the rows sel, none of them NULL.
func (t *Table) probeRank(ki []int64, sel []int32, k *Keep, ml, me []int32) ([]int32, []int32) {
	switch {
	case k == nil:
		for _, r := range sel {
			if rk := t.rankOf(uint64(ki[r] - t.lo)); rk >= 0 {
				for e := t.first[rk] - 1; e >= 0; e = t.Next(e) {
					ml, me = append(ml, r), append(me, e)
				}
			}
		}
	case k.key != nil:
		// Distinct keys: every present key's pair is written and kept when
		// its bit is set, with no branch on the bit.
		n := len(ml)
		ml, me = slices.Grow(ml, len(sel))[:n+len(sel)], slices.Grow(me, len(sel))[:n+len(sel)]
		for _, r := range sel {
			if rk := t.rankOf(uint64(ki[r] - t.lo)); rk >= 0 {
				ml[n], me[n] = r, t.first[rk]-1
				n += int(k.key[rk>>6] >> (uint(rk) & 63) & 1)
			}
		}
		ml, me = ml[:n], me[:n]
	default:
		for _, r := range sel {
			if rk := t.rankOf(uint64(ki[r] - t.lo)); rk >= 0 {
				for e := t.first[rk] - 1; e >= 0; e = t.Next(e) {
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
// is a bitset by entry and, once ProbeKeys added it, for a direct or rank
// index whose keys are distinct also one by key (keyBit), which the integer
// probe reads at the key's offset or rank, with no branch on the bit.
type Keep struct {
	t   *Table
	ent []uint64 // bit e: entry e is kept
	key []uint64 // distinct direct or rank keys: bit keyBit(e), e's key is kept
}

// NewKeep returns a selection of none of t's entries. Valid after Seal.
func (t *Table) NewKeep() *Keep {
	return &Keep{t: t, ent: make([]uint64, (t.n+63)/64)}
}

// keyBit returns entry e's bit in a Keep's bitset by key: the key's offset
// from the least key in the direct form, its rank in the rank form.
func (t *Table) keyBit(e int32) uint64 {
	d := uint64(t.kv.I[e] - t.lo)
	if t.words != nil {
		return uint64(t.rankOf(d))
	}
	return d
}

// ProbeKeys adds the bitset by key to a Keep of a direct or rank index whose
// keys are distinct, for a Keep that ProbeKept is to read; a Keep read
// entry by entry (Each) needs none. A no-op on a nil Keep and on other
// indexes. Entries added later are added to both bitsets.
func (k *Keep) ProbeKeys() {
	if k == nil || k.key != nil || !k.t.intKeys() || k.t.dup >= 0 {
		return
	}
	k.key = make([]uint64, (len(k.t.direct)+len(k.t.first)+63)/64) // one of the two is empty
	k.t.Each(k, k.addKey)
}

// addKey sets entry e's bit in k's bitset by key.
func (k *Keep) addKey(e int32) {
	b := k.t.keyBit(e)
	k.key[b>>6] |= 1 << (b & 63)
}

// Add keeps entries es.
func (k *Keep) Add(es []int32) {
	for _, e := range es {
		k.ent[e>>6] |= 1 << (uint(e) & 63)
	}
	if k.key != nil {
		for _, e := range es {
			k.addKey(e)
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
