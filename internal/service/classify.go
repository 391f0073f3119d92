package service

import (
	"sync"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Class is a latency class. Queries are classified at arrival by the
// estimated fraction of fact pages their predicate can touch (plan
// fingerprint + zone-map sampling), so short selective scans are scheduled
// on their own slots and never wait behind 100%-selectivity sweeps.
type Class int

const (
	// ClassShort is the low-page-coverage class: selective scans whose
	// zone-map estimate proves most pages irrelevant.
	ClassShort Class = iota
	// ClassLong is the high-coverage class: full (or nearly full) sweeps.
	ClassLong
	numClasses
)

// String names the class.
func (c Class) String() string {
	if c == ClassShort {
		return "short"
	}
	return "long"
}

// shortPageFrac is the zone-map page-coverage threshold at or below which a
// query is classified short.
const shortPageFrac = 0.3

// sampleZonePages bounds how many pages the classifier samples per estimate.
const sampleZonePages = 64

// classifyCacheMax bounds the fingerprint → class cache; at the bound the
// cache is dropped wholesale (templated workloads re-fill it immediately).
const classifyCacheMax = 8192

// classified is one cached classification.
type classified struct {
	class Class
	frac  float64 // estimated fraction of fact pages the query can touch
}

// classifier assigns latency classes, memoized by plan fingerprint.
type classifier struct {
	mu    sync.Mutex
	cache map[expr.Fp]classified
}

func newClassifier() *classifier {
	return &classifier{cache: make(map[expr.Fp]classified)}
}

// classify returns the plan's latency class and its coverage estimate.
func (c *classifier) classify(root plan.Node) (Class, float64) {
	fp := plan.Fingerprint(root)
	c.mu.Lock()
	if got, ok := c.cache[fp]; ok {
		c.mu.Unlock()
		return got.class, got.frac
	}
	c.mu.Unlock()

	frac := c.estimate(root)
	class := ClassLong
	if frac <= shortPageFrac {
		class = ClassShort
	}

	c.mu.Lock()
	if len(c.cache) >= classifyCacheMax {
		c.cache = make(map[expr.Fp]classified)
	}
	c.cache[fp] = classified{class: class, frac: frac}
	c.mu.Unlock()
	return class, frac
}

// estimate samples the fact table's per-page zone maps against the query's
// pushed-down predicate and returns the fraction of sampled pages the
// predicate can match. Queries without a recognizable fact scan, without a
// predicate, or over tables without zone maps estimate 1.0 (conservative:
// they are scheduled long, so they cannot head-of-line block the short
// class).
func (c *classifier) estimate(root plan.Node) float64 {
	tbl, pred := factOf(root)
	if tbl == nil || pred == nil {
		return 1.0
	}
	check := expr.CompilePrune(pred)
	if check == nil {
		return 1.0
	}
	pages := tbl.File.NumPages()
	if pages == 0 {
		return 1.0
	}
	sample := min(sampleZonePages, pages)
	matches := 0
	for i := 0; i < sample; i++ {
		idx := i * pages / sample
		// A nil zone slice (page never decoded under a zone-aware format)
		// counts as a match: nothing about it is provably skippable.
		if zones := tbl.File.PageZones(idx); zones == nil || check(zones) {
			matches++
		}
	}
	return float64(matches) / float64(sample)
}

// factOf locates the plan's dominant base-table scan — the CJOIN star's fact
// table, or the largest scanned table — and the predicate constraining it.
// A filter directly above an unfiltered scan contributes its predicate.
func factOf(n plan.Node) (*storage.Table, expr.Expr) {
	switch v := n.(type) {
	case *plan.CJoin:
		return v.Star.Fact, v.Star.FactPred
	case *plan.Scan:
		return v.Table, v.Pred
	case *plan.Filter:
		t, p := factOf(v.Input)
		if t != nil && p == nil {
			p = v.Pred
		}
		return t, p
	default:
		var bestT *storage.Table
		var bestP expr.Expr
		for _, child := range n.Children() {
			t, p := factOf(child)
			if t == nil {
				continue
			}
			if bestT == nil || t.File.NumPages() > bestT.File.NumPages() {
				bestT, bestP = t, p
			}
		}
		return bestT, bestP
	}
}
