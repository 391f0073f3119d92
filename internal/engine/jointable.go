package engine

import (
	"repro/internal/types"
	"repro/internal/vec"
)

// joinTable is the build side of the columnar hash join: the same
// open-addressing, power-of-two, linear-probing slot design as groupTable,
// over flat per-entry stores — but where a group table keeps accumulators,
// the join table keeps the build row as appended typed columns (entry e is
// row e of every arena column), so the probe's output gathers payloads
// straight from the arenas with no Row materialization. Only the join key
// and the columns the join emits (plan.HashJoin.RightOut) are kept: a build
// side that emits nothing is an existence probe holding one key column.
//
// Distinct keys own one slot each; duplicate build keys chain through
// next (entry → next entry with an equal key, -1 ends the chain), appended
// in build-arrival order so probe output order matches the row-at-a-time
// join's per-key insertion order. Rows with NULL join keys are never
// inserted — NULL never matches, on either side (the NULL→false semantics
// expr predicates and zone maps use).
type joinTable struct {
	keyCol  int   // join key position in the build input
	outCols []int // build-input columns kept for the output (RightOut)

	slots []int32 // entry index+1 of a distinct key's chain head; 0 = empty
	mask  uint32

	heads  []int32  // chain-head entries (distinct keys), for slot rebuilds
	hashes []uint64 // per-entry key hash: (hashSeed ^ HashKey) * vec.HashPrime
	next   []int32  // per-entry duplicate chain link (-1 = end)
	tail   []int32  // per-entry chain tail; meaningful for head entries only

	// Build arenas; entry e is row e of each.
	key vec.Vec   // the join key
	out []vec.Vec // one per outCols column
	n   int
}

func newJoinTable(keyCol int, outCols []int) *joinTable {
	const initSlots = 64
	return &joinTable{
		keyCol:  keyCol,
		outCols: outCols,
		slots:   make([]int32, initSlots),
		mask:    initSlots - 1,
		out:     make([]vec.Vec, len(outCols)),
	}
}

// grow doubles the slot array and reinstalls the chain heads (chained
// duplicates are reached through their head, so only heads occupy slots).
func (t *joinTable) grow() {
	ns := make([]int32, 2*len(t.slots))
	mask := uint32(len(ns) - 1)
	for _, e := range t.heads {
		s := uint32(t.hashes[e]) & mask
		for ns[s] != 0 {
			s = (s + 1) & mask
		}
		ns[s] = e + 1
	}
	t.slots, t.mask = ns, mask
}

// link wires entry e (already appended to the arenas and hashed into
// hashes[e]) into the table: a new slot for a first-seen key, or the tail of
// the matching head's chain. The full key comparison runs only on 64-bit
// hash matches, as an in-arena typed compare.
func (t *joinTable) link(e int32, h uint64) {
	s := uint32(h) & t.mask
	for {
		se := t.slots[s]
		if se == 0 {
			t.slots[s] = e + 1
			t.heads = append(t.heads, e)
			if 4*(len(t.heads)+1) > 3*len(t.slots) {
				t.grow()
			}
			return
		}
		head := se - 1
		if t.hashes[head] == h && t.entryKeyEqual(head, e) {
			t.next[t.tail[head]] = e
			t.tail[head] = e
			return
		}
		s = (s + 1) & t.mask
	}
}

// entryKeyEqual compares the keys of two arena entries (slot-collision
// disambiguation during the build). Float keys take the Datum path: its
// NaN and int-vs-float rules are Compare's, not =='s.
func (t *joinTable) entryKeyEqual(a, b int32) bool {
	bk := &t.key
	switch {
	case bk.AllInt():
		return bk.I[a] == bk.I[b]
	case bk.AllStr():
		return bk.S[a] == bk.S[b]
	default:
		return bk.Datum(int(a)).Equal(bk.Datum(int(b)))
	}
}

// buildCols folds one right-side batch into the table: hash the key column
// with the shared HashFold kernel, drop NULL keys explicitly, gather the key
// and the kept columns of the surviving rows into the arenas in one typed
// bulk copy each, then link the new entries.
func (t *joinTable) buildCols(cb *vec.ColBatch, sel []int32, scr *joinScratch) {
	if len(sel) == 0 {
		return
	}
	kc := cb.Col(t.keyCol)
	h := scr.hashes(len(sel))
	scr.lut = vec.HashFold(kc, sel, h, scr.lut)
	if !(kc.AllInt() || kc.AllFloat() || kc.AllStr()) {
		// NULL join keys never match; never inserted. The probe's match
		// arena is idle during the build and holds the surviving rows.
		keep := scr.ml[:0]
		for i, r := range sel {
			if kc.Kinds[r] != types.KindNull {
				h[len(keep)] = h[i]
				keep = append(keep, r)
			}
		}
		scr.ml, sel, h = keep, keep, h[:len(keep)]
	}
	t.key.AppendGather(kc, sel)
	for c, oc := range t.outCols {
		t.out[c].AppendGather(cb.Col(oc), sel)
	}
	t.hashes = append(t.hashes, h...)
	for _, hv := range h {
		e := int32(t.n)
		t.next = append(t.next, -1)
		t.tail = append(t.tail, e)
		t.n++
		t.link(e, hv)
	}
}

// keyMatchesView reports whether probe row r of key column kc equals build
// entry e's key — Datum.Compare equality evaluated in place against the
// typed payloads, mirroring groupTable.rowMatches. Callers have already
// excluded NULL probe rows.
func (t *joinTable) keyMatchesView(kc *vec.Vec, r int32, e int32) bool {
	bk := &t.key
	switch {
	case kc.AllInt() && bk.AllInt():
		return kc.I[r] == bk.I[e]
	case kc.AllStr() && bk.AllStr():
		return kc.S[r] == bk.S[e]
	default:
		return kc.Datum(int(r)).Equal(bk.Datum(int(e)))
	}
}

// probeCols probes one left batch: per-row key hashes from the shared
// fold kernel, then a typed resolve loop that walks each hit's duplicate
// chain and records (probe row, build entry) match pairs into the scratch
// arenas. Integer keys against an all-integer build arena — the star-schema
// common case — resolve from the raw int64 payloads with no Datum in the
// loop. NULL probe keys are skipped explicitly and match nothing.
func (t *joinTable) probeCols(kc *vec.Vec, sel []int32, scr *joinScratch) {
	nrows := len(sel)
	scr.ml, scr.me = scr.ml[:0], scr.me[:0]
	if nrows == 0 || t.n == 0 {
		return
	}
	h := scr.hashes(nrows)
	scr.lut = vec.HashFold(kc, sel, h, scr.lut)
	bk := &t.key
	ml, me := scr.ml, scr.me
	if kc.AllInt() && bk.AllInt() {
		ki, bi := kc.I, bk.I
		for i, r := range sel {
			hv := h[i]
			s := uint32(hv) & t.mask
			for {
				se := t.slots[s]
				if se == 0 {
					break
				}
				if e := se - 1; t.hashes[e] == hv && bi[e] == ki[r] {
					for ; e >= 0; e = t.next[e] {
						ml = append(ml, r)
						me = append(me, e)
					}
					break
				}
				s = (s + 1) & t.mask
			}
		}
	} else {
		kinds := kc.Kinds
		checkNull := !(kc.AllInt() || kc.AllFloat() || kc.AllStr())
		for i, r := range sel {
			if checkNull && kinds[r] == types.KindNull {
				continue // NULL never matches
			}
			hv := h[i]
			s := uint32(hv) & t.mask
			for {
				se := t.slots[s]
				if se == 0 {
					break
				}
				if e := se - 1; t.hashes[e] == hv && t.keyMatchesView(kc, r, e) {
					for ; e >= 0; e = t.next[e] {
						ml = append(ml, r)
						me = append(me, e)
					}
					break
				}
				s = (s + 1) & t.mask
			}
		}
	}
	scr.ml, scr.me = ml, me
}

// joinScratch holds the operator-lifetime temporaries of the columnar join:
// the per-row hash accumulator, the dictionary-hash buffer HashFold reuses,
// and the (probe row, build entry) match arenas — all amortized across
// batches so a probed batch costs O(1) allocations in steady state.
type joinScratch struct {
	h   []uint64
	lut []uint64
	ml  []int32 // match: probe-side row index (into the probe batch's cols)
	me  []int32 // match: build-side arena entry
}

// hashes returns the hash accumulator sized and seeded for n rows.
func (s *joinScratch) hashes(n int) []uint64 {
	if cap(s.h) < n {
		s.h = make([]uint64, n)
	}
	h := s.h[:n]
	for i := range h {
		h[i] = hashSeed
	}
	return h
}
