package engine

import (
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// groupTable is the hash table of a grouped aggregate: an open-addressing,
// power-of-two, linear-probing slot array over flat parallel entry stores
// (one hash, one key row and naggs accumulators per group). It
// replaces the map[uint64][]*aggGroup chains: resolving a row's group is a
// slot probe plus a 64-bit hash compare, with the full key comparison run
// only on hash matches, and the accumulators of all groups live in one
// contiguous arena so batch-wise folds stay cache-friendly.
//
// Entries keep insertion order, which makes the operator's output order
// deterministic (still unspecified to consumers; plans needing an order add
// a Sort).
type groupTable struct {
	naggs int

	slots []int32 // entry index+1; 0 = empty
	mask  uint32

	hashes []uint64
	keys   []types.Row
	accs   []aggAcc // entry e owns accs[e*naggs : (e+1)*naggs]
}

func newGroupTable(naggs int) *groupTable {
	const initSlots = 64
	return &groupTable{
		naggs: naggs,
		slots: make([]int32, initSlots),
		mask:  initSlots - 1,
	}
}

// len returns the number of groups.
func (g *groupTable) len() int { return len(g.keys) }

// entryAccs returns entry e's accumulators.
func (g *groupTable) entryAccs(e int32) []aggAcc {
	return g.accs[int(e)*g.naggs : (int(e)+1)*g.naggs]
}

// grow doubles the slot array and reinstalls the entries.
func (g *groupTable) grow() {
	ns := make([]int32, 2*len(g.slots))
	mask := uint32(len(ns) - 1)
	for e, h := range g.hashes {
		s := uint32(h) & mask
		for ns[s] != 0 {
			s = (s + 1) & mask
		}
		ns[s] = int32(e + 1)
	}
	g.slots, g.mask = ns, mask
}

// insert appends a new entry for (h, row r of the key vectors) at slot s,
// materializing the key. The slot array doubles at 3/4 load.
func (g *groupTable) insert(s uint32, h uint64, keys []*vec.Vec, r int32) int32 {
	e := int32(len(g.keys))
	key := make(types.Row, len(keys))
	for j, v := range keys {
		key[j] = v.Datum(int(r))
	}
	g.keys = append(g.keys, key)
	g.hashes = append(g.hashes, h)
	for i := 0; i < g.naggs; i++ {
		g.accs = append(g.accs, aggAcc{})
	}
	g.slots[s] = e + 1
	if 4*(len(g.keys)+1) > 3*len(g.slots) {
		g.grow()
	}
	return e
}

// rowMatches reports whether entry e's key equals row r of the key vectors —
// Datum.Compare equality evaluated in place against the column payloads, so
// resolving a row needs no key materialization.
func (g *groupTable) rowMatches(e int32, keys []*vec.Vec, r int32) bool {
	key := g.keys[e]
	for j, v := range keys {
		kd := key[j]
		switch {
		case v.AllInt() && (kd.K == types.KindInt || kd.K == types.KindDate || kd.K == types.KindBool):
			if v.I[r] != kd.I {
				return false
			}
		case v.AllStr() && kd.K == types.KindString:
			if v.S[r] != kd.S {
				return false
			}
		default:
			if !kd.Equal(v.Datum(int(r))) {
				return false
			}
		}
	}
	return true
}

// findOrAdd resolves the pre-hashed group key of row r of the key vectors,
// inserting a new group on first sight. With no key vectors it is the one
// group of a global aggregate.
func (g *groupTable) findOrAdd(h uint64, keys []*vec.Vec, r int32) int32 {
	s := uint32(h) & g.mask
	for {
		se := g.slots[s]
		if se == 0 {
			return g.insert(s, h, keys, r)
		}
		e := se - 1
		if g.hashes[e] == h && g.rowMatches(e, keys, r) {
			return e
		}
		s = (s + 1) & g.mask
	}
}

// updateColGrouped folds one aggregate argument column into the resolved
// groups' accumulators: one typed loop per (aggregate, batch) instead of a
// per-row dispatch. ents[i] is the group entry of row sel[i]. Semantics are
// exactly updateDatum's, which the default arm delegates to.
func (g *groupTable) updateColGrouped(spec plan.AggSpec, j int, v *vec.Vec, sel []int32, ents []int32) {
	naggs := g.naggs
	accs := g.accs
	switch {
	case (spec.Func == plan.AggSum || spec.Func == plan.AggAvg) && v.AllInt():
		vi := v.I
		for i, r := range sel {
			a := &accs[int(ents[i])*naggs+j]
			a.sum += float64(vi[r])
			a.count++
			a.seen = true
		}
	case (spec.Func == plan.AggSum || spec.Func == plan.AggAvg) && v.AllFloat():
		vf := v.F
		for i, r := range sel {
			a := &accs[int(ents[i])*naggs+j]
			a.sum += vf[r]
			a.count++
			a.seen = true
		}
	case spec.Func == plan.AggCount:
		kinds := v.Kinds
		for i, r := range sel {
			if kinds[r] != types.KindNull {
				a := &accs[int(ents[i])*naggs+j]
				a.count++
				a.seen = true
			}
		}
	default:
		for i, r := range sel {
			accs[int(ents[i])*naggs+j].updateDatum(spec, v.Datum(int(r)))
		}
	}
}

// aggScratch holds the reusable per-operator temporaries of the vectorized
// grouped path: the per-row hash accumulator, the resolved entry vector and
// the dictionary-hash lookup buffer.
type aggScratch struct {
	hashes []uint64
	ents   []int32
	lut    []uint64
}

// aggregateCols is the vectorized grouped-aggregation kernel: fold the key
// vectors into per-row hashes (multiply-shift over int payloads,
// per-dictionary-entry hashing for dictionary-coded strings), resolve each
// row's group through the open-addressing table with a consecutive-run
// shortcut, then fold each aggregate's argument vector (args[j]; nil for
// COUNT(*)) column-wise. Key and argument vectors are indexed like the
// batch's columns and read at the rows of sel.
func aggregateCols(gt *groupTable, aggs []plan.AggSpec, args, keys []*vec.Vec, sel []int32, scr *aggScratch) {
	nrows := len(sel)
	if nrows == 0 {
		return
	}
	naggs := gt.naggs
	if len(keys) == 0 {
		// Global aggregate: a single group, whole-column folds.
		e := gt.findOrAdd(hashSeed, nil, 0)
		accs := gt.entryAccs(e)
		for j, spec := range aggs {
			if args[j] == nil {
				accs[j].count += int64(nrows)
				continue
			}
			accs[j].updateCol(spec, args[j], sel)
		}
		return
	}
	if cap(scr.hashes) < nrows {
		scr.hashes = make([]uint64, nrows)
		scr.ents = make([]int32, nrows)
	}
	h := scr.hashes[:nrows]
	for i := range h {
		h[i] = hashSeed
	}
	for _, v := range keys {
		scr.lut = vec.HashFold(v, sel, h, scr.lut)
	}
	ents := scr.ents[:nrows]
	prevEnt := int32(-1)
	var prevH uint64
	for i, r := range sel {
		hi := h[i]
		if prevEnt >= 0 && hi == prevH && gt.rowMatches(prevEnt, keys, r) {
			ents[i] = prevEnt
			continue
		}
		ent := gt.findOrAdd(hi, keys, r)
		ents[i] = ent
		prevEnt, prevH = ent, hi
	}
	for j, spec := range aggs {
		if args[j] == nil {
			accs := gt.accs
			for _, ent := range ents {
				accs[int(ent)*naggs+j].count++
			}
			continue
		}
		gt.updateColGrouped(spec, j, args[j], sel, ents)
	}
}
