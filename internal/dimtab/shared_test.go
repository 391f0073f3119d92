package dimtab

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// The probe under a Keep against Probe filtered by the kept entries: every
// key set of the oracle, each kept at random, probed with every probe
// column and the set's own keys, under a nil Keep, a Keep by entry alone
// and, after ProbeKeys, one whose direct or rank index has distinct keys
// and so also tests a key bit before the entry load.
func TestProbeKeptMatchesFilteredProbe(t *testing.T) {
	base := vec.LiveBatches()
	for ci, ks := range keySets {
		r := rand.New(rand.NewSource(int64(ci)))
		keys := drawKeys(ks, r, 1000)
		probes := append(probeCols(), keyProbes(keys)...)
		tab, _ := build(t, r, keys, 64)
		if got := formOf(tab); got != ks.form || ks.distinct != (tab.Dup() < 0) {
			t.Fatalf("%s: %s form, Dup = %d; want %s form, distinct keys %v", ks.name, got, tab.Dup(), ks.form, ks.distinct)
		}
		// check holds ProbeKept under k to Probe filtered by kept (nil:
		// every entry).
		check := func(k *Keep, kept map[int32]bool, share int) {
			t.Helper()
			for _, pc := range probes {
				all := rows(pc.Len())
				ml, me := tab.Probe(pc, all, nil, nil)
				var wantL, wantE []int32
				for i := range ml {
					if kept == nil || kept[me[i]] {
						wantL, wantE = append(wantL, ml[i]), append(wantE, me[i])
					}
				}
				gotL, gotE := tab.ProbeKept(pc, all, k, nil, nil)
				if !slices.Equal(gotL, wantL) || !slices.Equal(gotE, wantE) {
					t.Fatalf("%s, %d/10 kept, key bitset %v: ProbeKept returned %d pairs, the filtered Probe %d",
						ks.name, share, k != nil && k.key != nil, len(gotL), len(wantL))
				}
			}
		}
		check(nil, nil, 10)
		var nilKeep *Keep
		nilKeep.ProbeKeys()                     // a no-op
		for _, share := range []int{0, 3, 10} { // of 10 entries kept
			k := tab.NewKeep()
			if k.key != nil {
				t.Fatalf("%s: a new Keep has a key bitset", ks.name)
			}
			kept := make(map[int32]bool)
			var es []int32
			for e := int32(0); e < int32(tab.Len()); e++ {
				if r.Intn(10) < share {
					es = append(es, e)
				}
			}
			// Half the entries before ProbeKeys, half after: the key
			// bitset covers both.
			half := len(es) / 2
			k.Add(es[:half])
			for _, e := range es[:half] {
				kept[e] = true
			}
			check(k, kept, share)
			k.ProbeKeys()
			if got, want := k.key != nil, ks.distinct && ks.form != "hashed"; got != want {
				t.Fatalf("%s: key bitset after ProbeKeys = %v, want %v", ks.name, got, want)
			}
			k.Add(es[half:])
			for _, e := range es[half:] {
				kept[e] = true
			}
			check(k, kept, share)
		}
		tab.Release()
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d, want baseline %d", live, base)
	}
}

// pagesSource is a Source over in-memory pages of (key, position) rows. A
// page read fails while failing is set, and reads counts the page reads.
type pagesSource struct {
	mu      sync.Mutex
	pages   [][]types.Row
	version uint64
	failing atomic.Bool
	reads   atomic.Int64
	gate    chan struct{} // when set, a page read waits for it
}

var errRead = errors.New("page read failed")

func (s *pagesSource) Schema() *types.Schema {
	return types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "pos", Kind: types.KindInt})
}

func (s *pagesSource) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

func (s *pagesSource) NumRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.pages {
		n += len(p)
	}
	return n
}

func (s *pagesSource) PageCols(p int) (*vec.ColBatch, error) {
	s.reads.Add(1)
	if s.gate != nil {
		<-s.gate
	}
	if s.failing.Load() {
		return nil, errRead
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cb := vec.Get(2)
	for _, r := range s.pages[p] {
		cb.AppendRow(r)
	}
	cb.Seal(len(s.pages[p]))
	return cb, nil
}

func (s *pagesSource) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// add appends a page of n rows with keys from lo and moves the version.
func (s *pagesSource) add(lo, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	page := make([]types.Row, n)
	for i := range page {
		page[i] = types.Row{types.NewInt(int64(lo + i)), types.NewInt(int64(lo + i))}
	}
	s.pages = append(s.pages, page)
	s.version++
}

// Concurrent callers for one version share one build; an index no one holds
// is built again; a version change builds anew while holders of the old
// version keep reading theirs.
func TestSetBuildsOncePerVersion(t *testing.T) {
	base := vec.LiveBatches()
	src := &pagesSource{gate: make(chan struct{})}
	src.add(0, 100)
	var set Set
	ctx := context.Background()
	held := make([]*Index, 8)
	var wg sync.WaitGroup
	for i := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix, err := set.Acquire(ctx, src, 0)
			if err != nil {
				t.Error(err)
				return
			}
			held[i] = ix
		}()
	}
	close(src.gate) // the first caller's build was waiting on its page read
	wg.Wait()
	if set.Builds() != 1 || src.reads.Load() != 1 {
		t.Fatalf("8 concurrent callers ran %d builds reading %d pages, want 1 and 1", set.Builds(), src.reads.Load())
	}
	for _, ix := range held[1:] {
		if ix != held[0] {
			t.Fatal("concurrent callers got different indexes for one version")
		}
	}

	src.add(100, 50)
	fresh, err := set.Acquire(ctx, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Builds() != 2 || fresh.Table().Len() != 150 {
		t.Fatalf("after an append: %d builds and %d entries, want 2 and 150", set.Builds(), fresh.Table().Len())
	}
	old := held[0].Table()
	if old.Len() != 100 || old.FindInt(120) >= 0 || old.FindInt(99) < 0 {
		t.Fatalf("a holder of the old version sees %d entries", old.Len())
	}
	for _, ix := range held {
		ix.Release()
	}
	again, err := set.Acquire(ctx, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != fresh || set.Builds() != 2 {
		t.Fatalf("the held current version was rebuilt (%d builds)", set.Builds())
	}
	again.Release()
	fresh.Release()
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d after every release, want baseline %d", live, base)
	}
	ix, err := set.Acquire(ctx, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix.Release()
	if set.Builds() != 3 {
		t.Fatalf("an index no one held was not rebuilt: %d builds, want 3", set.Builds())
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d, want baseline %d", live, base)
	}
}

// A failed build fails every caller waiting for it and is not kept: the
// next caller builds again. A waiter whose context ends stops waiting, and
// the build it waited for still completes for the others.
func TestSetFailedBuildIsNotKept(t *testing.T) {
	base := vec.LiveBatches()
	src := &pagesSource{gate: make(chan struct{})}
	src.add(0, 100)
	src.add(100, 100)
	src.failing.Store(true)
	var set Set
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = set.Acquire(context.Background(), src, 0)
		}()
	}
	// Wait until one caller builds, at its first page, and three wait.
	for refs := 0; refs != 4; runtime.Gosched() {
		set.mu.Lock()
		if ix := set.cur[0]; ix != nil {
			refs = ix.refs
		}
		set.mu.Unlock()
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := set.Acquire(canceled, src, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("a canceled waiter got %v, want context.Canceled", err)
	}
	close(src.gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errRead) {
			t.Fatalf("caller %d: %v, want the read error", i, err)
		}
	}
	if set.Builds() != 1 {
		t.Fatalf("%d builds, want 1", set.Builds())
	}
	src.failing.Store(false)
	ix, err := set.Acquire(context.Background(), src, 0)
	if err != nil {
		t.Fatalf("the build after a failed one: %v", err)
	}
	if set.Builds() != 2 || ix.Table().Len() != 200 {
		t.Fatalf("%d builds and %d entries, want 2 and 200", set.Builds(), ix.Table().Len())
	}
	ix.Release()
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d, want baseline %d", live, base)
	}
}

// Indexes on different key columns of one source are independent.
func TestSetKeysAreIndependent(t *testing.T) {
	src := &pagesSource{}
	src.add(0, 10)
	var set Set
	a, err := set.Acquire(context.Background(), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	b, err := set.Acquire(context.Background(), src, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if a == b || set.Builds() != 2 {
		t.Fatalf("two key columns share an index (%d builds)", set.Builds())
	}
}
