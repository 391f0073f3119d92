package vec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/types"
)

// Coder codes the string rows appended to one column over a dictionary of
// the column's own (AppendCoded), for a column that is built once and then
// only read, as a join index's are. It holds each entry's code while the
// column is built; SortDict ends the build.
type Coder struct {
	ids   map[string]int64 // dictionary entry → code
	remap []int64          // AppendCoded's remap buffer, by a source's code
}

// AppendCoded appends rows idxs of src, a string column or a column of
// NULLs, to v as codes over v's own dictionary, which c indexes. A coded
// source's dictionary is mapped into v's — one lookup per entry its rows
// name, then an int remap per row — and a plain source's rows are looked up
// one by one. An entry v's dictionary does not hold yet is added as a copy
// of its bytes, so the dictionary pins no source memory. The dictionary is
// in first-seen order until SortDict; a column that holds no string yet
// stays a column of NULLs. v must be a column only AppendCoded has written.
func (v *Vec) AppendCoded(src *Vec, idxs []int32, c *Coder) {
	if len(idxs) == 0 {
		return
	}
	if !stringOrNull(src.Kind) || !stringOrNull(v.Kind) {
		panic(fmt.Sprintf("vec: a %v column coded into a %v column", src.Kind, v.Kind))
	}
	if c.ids == nil {
		c.ids = make(map[string]int64)
	}
	n := v.n
	end := n + len(idxs)
	v.I = extend(&intPark, v.I, n, end, v.reserved, v.pooled)
	codes := v.I[n:]
	var remap []int64 // a coded source's code → ours + 1 (0: not yet looked up)
	if src.HasDict() {
		if cap(c.remap) < len(src.Dict) {
			c.remap = make([]int64, len(src.Dict))
		}
		remap = c.remap[:len(src.Dict)]
		clear(remap)
	}
	nulls := src.HasNulls()
	for j, r := range idxs {
		switch {
		case src.Kind == types.KindNull || nulls && src.IsNull(int(r)):
			codes[j] = 0
		case remap != nil:
			sc := src.I[r]
			if remap[sc] == 0 {
				remap[sc] = v.code(src.Dict[sc], c) + 1
			}
			codes[j] = remap[sc] - 1
		default:
			codes[j] = v.code(src.S[r], c)
		}
	}
	v.n = end
	switch {
	case nulls:
		v.growNulls()
		for j, r := range idxs {
			if src.IsNull(int(r)) {
				i := n + j
				v.nulls[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	case len(v.nulls) != 0:
		v.growNulls()
	}
	if len(v.Dict) > 0 {
		v.Kind = types.KindString
	}
}

func stringOrNull(k types.Kind) bool { return k == types.KindString || k == types.KindNull }

// code returns s's code in v's dictionary, adding a copy of s when the
// dictionary does not hold it.
func (v *Vec) code(s string, c *Coder) int64 {
	if id, ok := c.ids[s]; ok {
		return id
	}
	k := len(v.Dict)
	s = strings.Clone(s)
	v.Dict = extend(&strPark, v.Dict, k, k+1, 0, v.pooled)
	v.Dict[k] = s
	c.ids[s] = int64(k)
	return int64(k)
}

// SortDict ends a build of AppendCoded calls: it sorts v's dictionary into
// an array cut to its entry count and rewrites every code once, so code
// order is string order again and NULL rows hold code 0, and it empties c.
func (v *Vec) SortDict(c *Coder) {
	*c = Coder{}
	nd := len(v.Dict)
	if nd == 0 {
		return
	}
	order := make([]int32, nd) // order[k]: the old code of the k-th entry
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(v.Dict[a], v.Dict[b]) })
	sorted := sized(&strPark, nil, nd, v.pooled)
	rank := make([]int64, nd)
	for k, old := range order {
		sorted[k], rank[old] = v.Dict[old], int64(k)
	}
	codes := v.I[:v.n]
	for i, old := range codes {
		codes[i] = rank[old]
	}
	for wi, w := range v.nulls {
		for ; w != 0; w &= w - 1 {
			if i := wi<<6 + bits.TrailingZeros64(w); i < v.n {
				codes[i] = 0
			}
		}
	}
	if v.pooled {
		strPark.put(v.Dict)
	}
	v.Dict = sorted
}
