package expr

import (
	"testing"
)

// FuzzSubsumes checks the implication checker's one hard contract —
// soundness: whenever Subsumes(p, q) reports true, brute-force Eval over
// random rows (mixing NULL, NaN, strings, and cross-kind numerics) must
// never find a row satisfying q but not p. Half the programs derive
// related pairs (q = p AND extra), half fully
// independent trees; both directions are probed. Reflexivity
// (Subsumes(p, p)) is the only completeness property asserted, since the
// checker is allowed to be conservative everywhere else.
func FuzzSubsumes(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{6, 0, 3, 200, 17, 5, 2, 9, 6, 1, 0, 44, 3, 3, 3, 250, 128})
	f.Add([]byte{3, 5, 5, 0, 0, 7, 7, 1, 64, 32, 5, 2, 9, 9, 9, 9})
	f.Add([]byte("subsumption-soundness"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		const width = 4
		g := &exprGen{buf: prog}
		related := g.next()%2 == 0
		p := g.expr(3, width)
		var q Expr
		if related {
			q = And{L: p, R: g.expr(2, width)}
		} else {
			q = g.expr(3, width)
		}

		pq := Subsumes(p, q)
		qp := Subsumes(q, p)
		if !Subsumes(p, p) {
			t.Fatalf("Subsumes must be reflexive: %s", p.Signature())
		}
		if !pq && !qp {
			return
		}
		for i := 0; i < 256; i++ {
			row := g.row(width)
			pv := p.Eval(row).Bool()
			qv := q.Eval(row).Bool()
			if pq && qv && !pv {
				t.Fatalf("unsound: Subsumes(p, q) but row satisfies q not p\n p: %s\n q: %s\n row: %s",
					p.Signature(), q.Signature(), row)
			}
			if qp && pv && !qv {
				t.Fatalf("unsound: Subsumes(q, p) but row satisfies p not q\n p: %s\n q: %s\n row: %s",
					p.Signature(), q.Signature(), row)
			}
		}
	})
}
