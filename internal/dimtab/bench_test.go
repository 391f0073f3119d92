package dimtab

import (
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// BenchmarkProbe measures the join index's two integer probes over 2 557
// distinct keys in each form: FindInt, CJOIN's probe of one key at a time,
// and ProbeKept, the hash join's probe of a selection under a Keep of half
// the entries with its bitset by key. The keys are dense (direct), SSB's
// yyyymmdd dates, every day of 1992–1998 (rank), or a million apart
// (hashed); the probes are 65 536 keys drawn from the table's. It reports
// ns/probe.
func BenchmarkProbe(b *testing.B) {
	const entries, nprobes = 2557, 1 << 16
	forms := []struct {
		form string
		key  func(i int) int64
	}{
		{"direct", func(i int) int64 { return int64(i) }},
		{"rank", func(i int) int64 { return yyyymmdd(i) }},
		{"hashed", func(i int) int64 { return int64(i) * 1_000_003 }},
	}
	for _, f := range forms {
		build := vec.Get(1)
		for i := range entries {
			build.Col(0).AppendDatum(types.NewInt(f.key(i)))
		}
		build.Seal(entries)
		tab := New(0, 1)
		tab.Append(build, build.AllSel())
		build.Release()
		if err := tab.Seal(); err != nil {
			b.Fatal(err)
		}
		if got := formOf(tab); got != f.form {
			b.Fatalf("%s keys took the %s form", f.form, got)
		}
		r := rand.New(rand.NewSource(1))
		var probe vec.Vec
		for range nprobes {
			probe.AppendDatum(types.NewInt(f.key(r.Intn(entries))))
		}
		sel := rows(nprobes)
		keep := tab.NewKeep()
		for e := int32(0); e < entries; e += 2 {
			keep.Add([]int32{e})
		}
		keep.ProbeKeys()
		ml, me := make([]int32, 0, nprobes), make([]int32, 0, nprobes)

		b.Run("form="+f.form+"/op=FindInt", func(b *testing.B) {
			var hits int
			for range b.N {
				for _, k := range probe.I {
					if tab.FindInt(k) >= 0 {
						hits++
					}
				}
			}
			if hits != b.N*nprobes {
				b.Fatalf("%d hits of %d probes", hits, b.N*nprobes)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nprobes), "ns/probe")
		})
		b.Run("form="+f.form+"/op=ProbeKept", func(b *testing.B) {
			for range b.N {
				ml, me = tab.ProbeKept(&probe, sel, keep, ml[:0], me[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nprobes), "ns/probe")
		})
		tab.Release()
	}
}
