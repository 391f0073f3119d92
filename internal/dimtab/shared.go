package dimtab

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vec"
)

// Source is a stored table as a shared index reads it: its pages, each
// opened into a column batch in schema order, its row count and its content
// version. storage.HeapFile is one.
type Source interface {
	Schema() *types.Schema
	NumPages() int
	NumRows() int
	PageCols(p int) (*vec.ColBatch, error)
	Version() uint64
}

// buildIndex indexes every row of src on column key, keeping every column in
// schema order: the one build loop of a shared index. The table is reserved
// for src's row count before the first page, so every column is taken once
// at its final size and none is regrown and copied.
func buildIndex(src Source, key int) (*Table, error) {
	tab := New(key, src.Schema().Len())
	tab.Reserve(src.NumRows())
	for p, np := 0, src.NumPages(); p < np; p++ {
		page, err := src.PageCols(p)
		if err != nil {
			tab.Release()
			return nil, err
		}
		tab.Append(page, page.AllSel())
		page.Release()
	}
	if err := tab.Seal(); err != nil {
		tab.Release()
		return nil, err
	}
	return tab, nil
}

// Set is one table's shared join indexes: at most one current Index per key
// column, for the content version it was built at. The zero Set is empty
// and ready.
type Set struct {
	mu     sync.Mutex
	cur    map[int]*Index // by key column
	builds atomic.Int64
}

// Index is a reference-counted shared join index: a Table of every row and
// column of its source, freed when its last holder lets go. Every holder
// reads it concurrently and none writes it.
type Index struct {
	set     *Set
	key     int
	version uint64
	refs    int           // under set.mu
	ready   chan struct{} // closed once tab or err is set
	tab     *Table
	err     error
}

// Acquire returns a reference to src's index on column key at src's
// current version, building it on the caller's goroutine if no holder has
// one. Concurrent callers for one (key, version) wait for that one build
// (single flight) and all receive its error if it fails; a failed build is
// never kept, so the next caller builds again. An index built at an older
// version stays valid for its holders but is never handed out again. A
// caller whose ctx ends while it waits for another's build gets ctx's
// error; the build itself runs to its end. The caller releases the
// reference with Release, exactly once.
func (s *Set) Acquire(ctx context.Context, src Source, key int) (*Index, error) {
	v := src.Version()
	s.mu.Lock()
	ix := s.cur[key]
	if ix != nil && ix.version == v {
		ix.refs++
		s.mu.Unlock()
		select {
		case <-ix.ready:
		case <-ctx.Done():
			ix.Release()
			return nil, ctx.Err()
		}
		if ix.err != nil {
			ix.Release()
			return nil, ix.err
		}
		return ix, nil
	}
	ix = &Index{set: s, key: key, version: v, refs: 1, ready: make(chan struct{})}
	if s.cur == nil {
		s.cur = make(map[int]*Index)
	}
	s.cur[key] = ix // an older version stays with its holders
	s.mu.Unlock()

	s.builds.Add(1)
	ix.tab, ix.err = buildIndex(src, key)
	if ix.err != nil {
		ix.err = fmt.Errorf("dimtab: build index on column %d: %w", key, ix.err)
		s.mu.Lock()
		if s.cur[key] == ix { // a newer version may have taken the slot
			delete(s.cur, key)
		}
		s.mu.Unlock()
	}
	close(ix.ready)
	if ix.err != nil {
		ix.Release()
		return nil, ix.err
	}
	return ix, nil
}

// Builds returns how many index builds the set has run, failed ones
// included.
func (s *Set) Builds() int64 { return s.builds.Load() }

// Table returns the sealed index: every column of the source in schema
// order, keyed on the acquired column. It is valid until Release.
func (ix *Index) Table() *Table { return ix.tab }

// Release drops the caller's reference. The last one frees the table and,
// if the index is still its set's current one, forgets it: an index no one
// holds is built again on next use.
func (ix *Index) Release() {
	s := ix.set
	s.mu.Lock()
	ix.refs--
	last := ix.refs == 0
	if last && s.cur[ix.key] == ix {
		delete(s.cur, ix.key)
	}
	s.mu.Unlock()
	if last && ix.tab != nil {
		ix.tab.Release()
	}
}
