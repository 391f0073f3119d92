package dimtab

// FormOf names the index form t took: direct, rank or hashed.
var FormOf = formOf

// ProbeBytes is what t's probe structures hold, beside its entry batch: the
// direct array, the rank form's words and first entries, the hashed slots
// and the chain of repeated keys.
func ProbeBytes(t *Table) int64 {
	return int64(4*cap(t.direct) + 16*cap(t.words) +
		4*cap(t.first) + 4*cap(t.slots) + 4*cap(t.next))
}
