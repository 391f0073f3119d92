package dimtab

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/vec"
)

// keySet is one oracle case: how the build key of row i is drawn, the
// index form the keys must take, and whether they are all distinct.
type keySet struct {
	name     string
	form     string
	distinct bool
	key      func(r *rand.Rand, i int) types.Datum
}

var keySets = []keySet{
	{"dense ints", "direct", false, func(r *rand.Rand, _ int) types.Datum { return types.NewInt(int64(100 + r.Intn(300))) }},
	{"dense dates and NULLs", "direct", false, func(r *rand.Rand, _ int) types.Datum {
		if r.Intn(10) == 0 {
			return types.Null
		}
		return types.NewDate(int64(100 + r.Intn(300)))
	}},
	{"sparse ints", "hashed", false, func(r *rand.Rand, _ int) types.Datum { return types.NewInt(int64(r.Intn(300)) * 1_000_003) }},
	{"integral floats", "hashed", false, func(r *rand.Rand, _ int) types.Datum { return types.NewFloat(float64(100 + r.Intn(300))) }},
	{"strings and NULLs", "hashed", false, func(r *rand.Rand, _ int) types.Datum {
		if r.Intn(10) == 0 {
			return types.Null
		}
		return types.NewString(fmt.Sprintf("key-%d", r.Intn(300)))
	}},
	{"halves and NULLs", "hashed", false, func(r *rand.Rand, _ int) types.Datum {
		if r.Intn(5) == 0 {
			return types.Null
		}
		return types.NewFloat(float64(100+r.Intn(300)) / 2)
	}},
	// SSB's d_datekey, yyyymmdd: every other day from 1992-01-01 for 600
	// days, so the keys span ~10 700 values for ~800 entries (the SSB date
	// dimension spans 24 values an entry).
	{"yyyymmdd dates", "rank", false, func(r *rand.Rand, _ int) types.Datum { return types.NewDate(yyyymmdd(2 * r.Intn(300))) }},
	// Every 8th day over 1992–1998: ~75 values an entry, past the rank form.
	{"yyyymmdd dates 8 days apart", "hashed", false, func(r *rand.Rand, _ int) types.Datum {
		return types.NewDate(yyyymmdd(8 * r.Intn(300)))
	}},
	// The rank form's span runs from 4× to 64× the ~800 entries a build
	// keeps of its 1 000 rows.
	{"ints over 5× the entries", "rank", false, func(r *rand.Rand, _ int) types.Datum { return types.NewInt(int64(95 + r.Intn(4500))) }},
	{"ints over 50× the entries", "rank", false, func(r *rand.Rand, _ int) types.Datum { return types.NewInt(int64(95 + 137*r.Intn(300))) }},
	{"negative ints and NULLs", "rank", false, func(r *rand.Rand, _ int) types.Datum {
		if r.Intn(10) == 0 {
			return types.Null
		}
		return types.NewInt(int64(-7 * r.Intn(2000)))
	}},
	{"ints below the int64 maximum", "rank", false, func(r *rand.Rand, _ int) types.Datum {
		return types.NewInt(math.MaxInt64 - int64(20*r.Intn(300)))
	}},
	{"ints above the int64 minimum", "rank", false, func(r *rand.Rand, _ int) types.Datum {
		return types.NewInt(math.MinInt64 + int64(20*r.Intn(300)))
	}},
	{"ints at both int64 extremes", "hashed", false, func(r *rand.Rand, _ int) types.Datum {
		if r.Intn(2) == 0 {
			return types.NewInt(math.MaxInt64 - int64(r.Intn(300)))
		}
		return types.NewInt(math.MinInt64 + int64(r.Intn(300)))
	}},
	{"distinct dense ints", "direct", true, func(_ *rand.Rand, i int) types.Datum { return types.NewInt(int64(100 + i)) }},
	{"distinct sparse ints", "rank", true, func(r *rand.Rand, i int) types.Datum { return types.NewInt(int64(20*i + r.Intn(20))) }},
	{"distinct ints at both int64 extremes", "hashed", true, func(_ *rand.Rand, i int) types.Datum {
		if i%2 == 0 {
			return types.NewInt(math.MaxInt64 - int64(i))
		}
		return types.NewInt(math.MinInt64 + int64(i))
	}},
}

// keySetNamed returns the oracle case called name.
func keySetNamed(name string) keySet {
	for _, ks := range keySets {
		if ks.name == name {
			return ks
		}
	}
	panic("no key set " + name)
}

// drawKeys draws n build keys of ks.
func drawKeys(ks keySet, r *rand.Rand, n int) []types.Datum {
	keys := make([]types.Datum, n)
	for i := range keys {
		keys[i] = ks.key(r, i)
	}
	return keys
}

// formOf names the index form t took.
func formOf(t *Table) string {
	switch {
	case t.direct != nil && t.words == nil && t.slots == nil:
		return "direct"
	case t.words != nil && t.direct == nil && t.slots == nil:
		return "rank"
	case t.slots != nil && t.direct == nil && t.words == nil:
		return "hashed"
	case t.n == 0:
		return "empty"
	}
	return "mixed"
}

// yyyymmdd is the date day days after 1992-01-01 as the integer yyyymmdd.
func yyyymmdd(day int) int64 {
	d := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
	return int64(d.Year()*10000 + int(d.Month())*100 + d.Day())
}

// probeCols returns probe keys over every kind, one column each of ints,
// dates, floats and strings, and columns of ints and of strings with NULLs.
func probeCols() []*vec.Vec {
	var ints, dates, floats, strs, intNulls, strNulls vec.Vec
	for k := int64(95); k < 405; k++ {
		ints.AppendDatum(types.NewInt(k))
		ints.AppendDatum(types.NewInt(k * 1_000_003))
		dates.AppendDatum(types.NewDate(k))
		dates.AppendDatum(types.NewDate(yyyymmdd(2 * int(k-100))))
		floats.AppendDatum(types.NewFloat(float64(k)))
		floats.AppendDatum(types.NewFloat(float64(k) + 0.5))
		strs.AppendDatum(types.NewString(fmt.Sprintf("key-%d", k)))
		intNulls.AppendDatum(types.NewInt(k))
		intNulls.AppendDatum(types.Null)
		strNulls.AppendDatum(types.Null)
		strNulls.AppendDatum(types.NewString(fmt.Sprintf("key-%d", k)))
	}
	return []*vec.Vec{&ints, &dates, &floats, &strs, &intNulls, &strNulls}
}

// keyProbes returns probe columns drawn from a key set's own keys: the
// integer keys and their neighbours as ints, with NULLs between them, and
// as integral and non-integral floats where a float holds them exactly.
func keyProbes(keys []types.Datum) []*vec.Vec {
	var ints, intNulls, floats vec.Vec
	for _, k := range keys {
		if k.K != types.KindInt && k.K != types.KindDate {
			continue
		}
		for _, d := range []int64{-1, 0, 1} {
			if v := k.I + d; (d > 0) == (v > k.I) { // no wrap past an extreme
				ints.AppendDatum(types.NewInt(v))
			}
		}
		intNulls.AppendDatum(types.NewInt(k.I))
		intNulls.AppendDatum(types.Null)
		if k.I > -1<<52 && k.I < 1<<52 {
			floats.AppendDatum(types.NewFloat(float64(k.I)))
			floats.AppendDatum(types.NewFloat(float64(k.I) + 0.5))
		}
	}
	return []*vec.Vec{&ints, &intNulls, &floats}
}

// build appends rows keys in pooled batches of per rows, each under a
// random selection, and seals the table; column 1 carries the input row's
// position so the oracle can check arrival order. It returns the table and
// the keys of the rows it was offered, in arrival order.
func build(t *testing.T, r *rand.Rand, keys []types.Datum, per int) (*Table, []types.Datum) {
	t.Helper()
	tab := New(0, 2)
	var offered []types.Datum
	for lo := 0; lo < len(keys); lo += per {
		hi := min(lo+per, len(keys))
		cb := vec.Get(2)
		var sel []int32
		for i := lo; i < hi; i++ {
			cb.AppendRow(types.Row{keys[i], types.NewInt(int64(len(offered)))})
			if r.Intn(5) != 0 {
				sel = append(sel, int32(i-lo))
				offered = append(offered, keys[i])
			}
		}
		cb.Seal(hi - lo)
		tab.Append(cb, sel)
		cb.Release()
	}
	if err := tab.Seal(); err != nil {
		t.Fatal(err)
	}
	return tab, offered
}

// naive returns the entries whose key equals d — a linear scan over the
// offered keys with Datum.Equal, NULL matching nothing — and the entry
// numbering the table must use (offered rows with a non-NULL key).
func naive(offered []types.Datum, d types.Datum) []int32 {
	var out []int32
	e := int32(0)
	for _, k := range offered {
		if k.IsNull() {
			continue
		}
		if !d.IsNull() && k.Equal(d) {
			out = append(out, e)
		}
		e++
	}
	return out
}

// The join index against a naive scan: random key sets of every kind and
// every form, with and without duplicates (dense, sparse over 4× to 64× the
// entries, negative, near the int64 extremes), built at 1, 3 and 1 024 rows
// per Append, probed with int, date, float, string and NULL keys and with
// the set's own keys as ints and as integral and non-integral floats,
// through Find, FindInt, the Next chain and Probe; each case asserts the
// index form it took, the first repeated entry Dup reports, and that a
// table whose keys are distinct holds no chain.
func TestIndexMatchesNaiveScan(t *testing.T) {
	base := vec.LiveBatches()
	for ci, ks := range keySets {
		for _, per := range []int{1, 3, 1024} {
			r := rand.New(rand.NewSource(int64(ci*10 + per)))
			keys := drawKeys(ks, r, 1000)
			probes := append(probeCols(), keyProbes(keys)...)
			tab, offered := build(t, r, keys, per)
			name := fmt.Sprintf("%s/per=%d", ks.name, per)
			if got := formOf(tab); got != ks.form {
				t.Errorf("%s: %s form, want %s", name, got, ks.form)
			}
			if distinct := tab.Dup() < 0; distinct != ks.distinct || distinct != (tab.next == nil) {
				t.Errorf("%s: Dup = %d and a chain of %d, want distinct keys %v and a chain only for repeats",
					name, tab.Dup(), len(tab.next), ks.distinct)
			}

			// Entries keep arrival order, NULL keys left out.
			pos := tab.Batch().Col(1)
			var nonNull []types.Datum
			for i, k := range offered {
				if !k.IsNull() {
					if e := len(nonNull); e >= tab.Len() || pos.I[e] != int64(i) {
						t.Fatalf("%s: entry %d is not offered row %d", name, e, i)
					}
					nonNull = append(nonNull, k)
				}
			}
			if tab.Len() != len(nonNull) {
				t.Fatalf("%s: %d entries, want %d", name, tab.Len(), len(nonNull))
			}
			wantDup := int32(-1)
			for e := len(nonNull) - 1; e >= 0; e-- {
				for _, later := range nonNull[e+1:] {
					if later.Equal(nonNull[e]) {
						wantDup = int32(e)
						break
					}
				}
			}
			if tab.Dup() != wantDup {
				t.Errorf("%s: Dup = %d, want %d", name, tab.Dup(), wantDup)
			}

			for _, pc := range probes {
				var wantRows, wantEnts []int32
				for row := 0; row < pc.Len(); row++ {
					d := pc.Datum(row)
					want := naive(offered, d)
					var chain []int32
					for e := tab.Find(pc, row); e >= 0; e = tab.Next(e) {
						chain = append(chain, e)
					}
					if !slices.Equal(chain, want) {
						t.Fatalf("%s: Find/Next(%v) = %v, want %v", name, d, chain, want)
					}
					if d.K == types.KindInt || d.K == types.KindDate {
						if got := tab.FindInt(d.I); got != first(want) {
							t.Fatalf("%s: FindInt(%v) = %d, want %d", name, d, got, first(want))
						}
					}
					for _, e := range want {
						wantRows, wantEnts = append(wantRows, int32(row)), append(wantEnts, e)
					}
				}
				ml, me := tab.Probe(pc, rows(pc.Len()), nil, nil)
				if !slices.Equal(ml, wantRows) || !slices.Equal(me, wantEnts) {
					t.Fatalf("%s: Probe pairs differ from the nested loop (%d vs %d pairs)", name, len(ml), len(wantRows))
				}
			}
			tab.Release()
		}
	}
	if live := vec.LiveBatches(); live != base {
		t.Fatalf("LiveBatches = %d, want baseline %d", live, base)
	}
}

// rows returns the selection of every one of n rows.
func rows(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

func first(es []int32) int32 {
	if len(es) == 0 {
		return -1
	}
	return es[0]
}

// An empty build side seals to a table every probe misses.
func TestEmptyTableMatchesNothing(t *testing.T) {
	tab := New(0, 1)
	defer tab.Release()
	if err := tab.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, pc := range probeCols() {
		if ml, _ := tab.Probe(pc, []int32{0, 1, 2}, nil, nil); len(ml) != 0 {
			t.Fatalf("empty table matched %d rows", len(ml))
		}
	}
	if tab.FindInt(7) != -1 || tab.Dup() != -1 {
		t.Fatal("empty table found a key")
	}
}

// An int-keyed build gathers into an int key column and a string payload
// into a string one, so int probes resolve from the raw int64 payloads in
// every form: the probe's arm follows from the two key columns' kinds.
func TestTypedPathsLive(t *testing.T) {
	forms := map[int64]string{1: "direct", 20: "rank", 1_000_003: "hashed"}
	for _, stride := range []int64{1, 20, 1_000_003} {
		build := vec.Get(2)
		for i := int64(0); i < 100; i++ {
			build.Col(0).AppendDatum(types.NewInt(i % 50 * stride)) // duplicate keys chain
			build.Col(1).AppendDatum(types.NewString("p"))
		}
		build.Seal(100)
		tab := New(0, 2)
		tab.Append(build, build.AllSel())
		build.Release()
		if err := tab.Seal(); err != nil {
			t.Fatal(err)
		}
		if tab.kv.Kind != types.KindInt {
			t.Fatalf("int-keyed entry batch has kind %v: the typed probe path is dead", tab.kv.Kind)
		}
		if k := tab.Batch().Col(1).Kind; k != types.KindString {
			t.Fatalf("string payload column has kind %v", k)
		}
		if got := formOf(tab); got != forms[stride] {
			t.Fatalf("stride %d: %s form, want %s", stride, got, forms[stride])
		}

		var probe vec.Vec
		for _, k := range []int64{7, 99, 49} {
			probe.AppendDatum(types.NewInt(k * stride))
		}
		ml, me := tab.Probe(&probe, []int32{0, 1, 2}, nil, nil)
		if len(ml) != 4 { // 7 and 49 match two entries each, 99 none
			t.Fatalf("stride %d: typed probe found %d matches, want 4 (rows %v, entries %v)", stride, len(ml), ml, me)
		}
		tab.Release()
	}
}

// sharedTables builds one table of each form for the reader tests: direct,
// hashed, and rank over keys that repeat and over distinct ones.
func sharedTables(t *testing.T) []*Table {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	var tabs []*Table
	for _, name := range []string{"dense ints", "halves and NULLs", "ints over 50× the entries", "distinct sparse ints"} {
		tab, _ := build(t, r, drawKeys(keySetNamed(name), r, 2000), 1024)
		tabs = append(tabs, tab)
	}
	return tabs
}

// A sealed table is read by many goroutines at once, as CJOIN's probe
// workers share each dimension: every reader's Find/Next chains and Probe
// pairs match the ones computed alone (and -race sees no write).
func TestConcurrentReaders(t *testing.T) {
	tabs := sharedTables(t)
	probes := probeCols()
	type answer struct{ find, rows, ents []int32 }
	want := make([][]answer, len(tabs))
	ask := func(tab *Table) []answer {
		var out []answer
		for _, pc := range probes {
			var a answer
			for row := 0; row < pc.Len(); row++ {
				for e := tab.Find(pc, row); e >= 0; e = tab.Next(e) {
					a.find = append(a.find, e)
				}
				a.find = append(a.find, -1)
			}
			a.rows, a.ents = tab.Probe(pc, rows(pc.Len()), nil, nil)
			out = append(out, a)
		}
		return out
	}
	for i, tab := range tabs {
		want[i] = ask(tab)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers*len(tabs))
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tab := range tabs {
				for j, a := range ask(tab) {
					w := want[i][j]
					if !slices.Equal(a.find, w.find) || !slices.Equal(a.rows, w.rows) || !slices.Equal(a.ents, w.ents) {
						errs <- fmt.Sprintf("table %d probe column %d: concurrent answer differs", i, j)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, tab := range tabs {
		tab.Release()
	}
}

// Find, FindInt and a Probe into arenas with room allocate nothing, in
// every form: CJOIN calls them once per fact tuple and dimension.
func TestFindZeroAlloc(t *testing.T) {
	tabs := sharedTables(t)
	probes := probeCols()
	ml, me := make([]int32, 0, 1<<16), make([]int32, 0, 1<<16)
	sels := make([][]int32, len(probes))
	for j, pc := range probes {
		sels[j] = rows(pc.Len())
	}
	for i, tab := range tabs {
		allocs := testing.AllocsPerRun(20, func() {
			for _, pc := range probes {
				for row := 0; row < pc.Len(); row++ {
					tab.Find(pc, row)
				}
			}
			for k := int64(0); k < 500; k++ {
				tab.FindInt(k)
			}
			for j, pc := range probes {
				ml, me = tab.Probe(pc, sels[j], ml[:0], me[:0])
			}
		})
		if allocs != 0 {
			t.Errorf("table %d: lookups allocate %v objects per run, want 0", i, allocs)
		}
		tab.Release()
	}
}
