package types

import (
	"fmt"
	"strings"
)

// Row is a tuple: one datum per schema column.
type Row []Datum

// Clone returns a deep copy of the row. Datums are value types, so copying
// the slice copies the payloads; string bytes are shared, which is safe
// because datums are immutable once produced.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Concat returns a new row holding r followed by o (used by joins).
func (r Row) Concat(o Row) Row {
	c := make(Row, 0, len(r)+len(o))
	c = append(c, r...)
	c = append(c, o...)
	return c
}

// Hash folds all columns of the row into a 64-bit hash seeded with h.
func (r Row) Hash(h uint64) uint64 {
	for _, d := range r {
		h = d.Hash(h)
	}
	return h
}

// Equal reports column-wise equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the row as a pipe-separated record.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return strings.Join(parts, "|")
}

// Column describes one schema column. Where rows are stored (a storage heap
// file) the kind is enforced: every stored datum of the column is NULL or of
// Kind, which must not be KindNull.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from the given columns. Column names must be
// unique; duplicates panic because they are programming errors in the
// catalog, not runtime conditions.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("types: duplicate column %q in schema", c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the position of the named column.
func (s *Schema) ColIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustColIndex is ColIndex that panics on unknown names; plan builders use it
// because an unknown column is a bug in the hand-built plan.
func (s *Schema) MustColIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("types: unknown column %q", name))
	}
	return i
}

// Concat returns the schema of a join output: the columns of s followed by
// the columns of o. Name collisions are disambiguated with a "r_" prefix on
// the right side, matching how the hand-built plans reference join outputs.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	for _, c := range o.Cols {
		name := c.Name
		if _, dup := s.byName[name]; dup {
			name = "r_" + name
		}
		cols = append(cols, Column{Name: name, Kind: c.Kind})
	}
	return NewSchema(cols...)
}

// Project returns a schema containing the columns at the given indexes.
func (s *Schema) Project(idxs []int) *Schema {
	cols := make([]Column, len(idxs))
	for i, idx := range idxs {
		cols[i] = s.Cols[idx]
	}
	return NewSchema(cols...)
}

// String renders "name:kind" pairs, used in diagnostics.
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + ":" + c.Kind.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}
