package expr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

func q1Style(loDate, hiDate, loDisc, hiDisc, qty int64) Expr {
	return NewAnd(
		NewBetween(C(5, "lo_orderdate"), Int(loDate), Int(hiDate)),
		NewBetween(C(11, "lo_discount"), Int(loDisc), Int(hiDisc)),
		NewBetween(C(8, "lo_quantity"), Int(0), Int(qty)),
	)
}

func TestSubsumesTable(t *testing.T) {
	x := C(0, "x")
	y := C(1, "y")
	cases := []struct {
		name string
		p, q Expr
		want bool
	}{
		{"identical", Eq(x, Int(5)), Eq(x, Int(5)), true},
		{"nil p is TRUE", nil, Eq(x, Int(5)), true},
		{"nil q under nonnil p", Eq(x, Int(5)), nil, false},
		{"both nil", nil, nil, true},
		{"conjunct extension", Eq(x, Int(5)), NewAnd(Eq(x, Int(5)), NewCmp(GT, y, Int(3))), true},
		{"between narrows", NewBetween(x, Int(3), Int(7)), NewBetween(x, Int(4), Int(6)), true},
		{"between widens", NewBetween(x, Int(4), Int(6)), NewBetween(x, Int(3), Int(7)), false},
		{"eq inside between", NewBetween(x, Int(3), Int(7)), Eq(x, Int(5)), true},
		{"eq outside between", NewBetween(x, Int(3), Int(7)), Eq(x, Int(9)), false},
		{"ge relaxes ge", NewCmp(GE, x, Int(3)), NewCmp(GE, x, Int(5)), true},
		{"ge tightens ge", NewCmp(GE, x, Int(5)), NewCmp(GE, x, Int(3)), false},
		{"gt from gt", NewCmp(GT, x, Int(5)), NewCmp(GT, x, Int(10)), true},
		// GE admits NaN, GT rejects it, so ge(6) ⇒ gt(5) does NOT hold.
		{"gt from ge above (NaN)", NewCmp(GT, x, Int(5)), NewCmp(GE, x, Int(6)), false},
		{"gt from ge at point", NewCmp(GT, x, Int(5)), NewCmp(GE, x, Int(5)), false},
		// NaN values satisfy EQ/LE/GE/BETWEEN/IN atoms with numeric
		// constants but fail LT/GT/NE, so eq ⇒ gt is NOT implied under
		// Eval semantics and the checker must say false.
		{"eq does not imply gt (NaN)", NewCmp(GT, x, Int(4)), Eq(x, Int(5)), false},
		{"eq implies ge (NaN safe)", NewCmp(GE, x, Int(4)), Eq(x, Int(5)), true},
		{"lt on q excludes NaN", NewCmp(GT, x, Int(2)), NewAnd(NewCmp(GT, x, Int(4)), NewCmp(LT, x, Int(9))), true},
		{"string eq inside string range", NewBetween(x, Str("a"), Str("c")), Eq(x, Str("b")), true},
		{"string eq implies string gt", NewCmp(GT, x, Str("a")), Eq(x, Str("b")), true},
		{"in subset", NewIn(x, types.NewInt(1), types.NewInt(2), types.NewInt(3)), NewIn(x, types.NewInt(1), types.NewInt(3)), true},
		{"in superset", NewIn(x, types.NewInt(1), types.NewInt(3)), NewIn(x, types.NewInt(1), types.NewInt(2), types.NewInt(3)), false},
		{"in within le", NewCmp(LE, x, Int(5)), NewIn(x, types.NewInt(2), types.NewInt(4)), true},
		{"in not within lt (NaN)", NewCmp(LT, x, Int(5)), NewIn(x, types.NewInt(2), types.NewInt(4)), false},
		{"eq point in set", NewIn(x, types.NewInt(4), types.NewInt(7)), Eq(x, Int(7)), true},
		{"eq point not in set", NewIn(x, types.NewInt(4), types.NewInt(7)), Eq(x, Int(6)), false},
		{"flipped const side", NewCmp(LT, Int(3), x), NewCmp(GT, x, Int(5)), true},
		{"or on q side", NewCmp(GT, x, Int(2)), NewOr(NewCmp(GT, x, Int(5)), NewCmp(GT, x, Int(3))), true},
		{"or on q side one leaks", NewCmp(GT, x, Int(4)), NewOr(NewCmp(GT, x, Int(5)), NewCmp(GT, x, Int(3))), false},
		{"or on p side", NewOr(Eq(x, Int(5)), Eq(y, Int(2))), Eq(x, Int(5)), true},
		{"col mismatch", NewCmp(GT, x, Int(2)), NewCmp(GT, y, Int(5)), false},
		// Contradictions are only detected on the column p constrains;
		// a dead range on an unrelated column stays conservative-false.
		{"contradictory q same col", Eq(x, Int(99)), NewAnd(NewCmp(LT, x, Int(3)), NewCmp(GT, x, Int(5))), true},
		{"contradictory q other col", Eq(y, Int(1)), NewAnd(NewCmp(LT, x, Int(3)), NewCmp(GT, x, Int(5))), false},
		{"contradictory q eq keeps NaN", NewCmp(LT, x, Int(3)), NewAnd(Eq(x, Int(5)), Eq(x, Int(7))), false},
		{"null literal q", Eq(y, Int(1)), NewCmp(GT, x, Const{D: types.Null}), true},
		{"empty in q", Eq(y, Int(1)), NewIn(x), true},
		{"ne unprovable", NewCmp(NE, x, Int(5)), NewCmp(NE, x, Int(4)), false},
		{"ne from disjoint range", NewCmp(NE, x, Int(9)), NewAnd(NewCmp(GT, x, Int(1)), NewCmp(LT, x, Int(5))), true},
		{"not is opaque", Not{E: Eq(x, Int(5))}, Not{E: Eq(x, Int(5))}, true},
		{"not vs other", Not{E: Eq(x, Int(5))}, Eq(x, Int(5)), false},
		{"ssb q1 window narrows", q1Style(100, 400, 1, 3, 25), q1Style(150, 350, 1, 3, 24), true},
		{"ssb q1 window shifts out", q1Style(100, 400, 1, 3, 25), q1Style(150, 450, 1, 3, 24), false},
		{"ssb q1 window widens on p", q1Style(100, 400, 1, 3, 25), NewAnd(q1Style(100, 400, 1, 3, 25), Eq(C(3, "lo_tax"), Int(2))), true},
		{"nan const opaque", NewCmp(GE, x, Float(1)), Eq(x, Const{D: types.NewFloat(math.NaN())}), false},
		{"huge const opaque", NewCmp(GE, x, Int(1)), Eq(x, Int(1<<60)), false},
	}
	for _, tc := range cases {
		if got := Subsumes(tc.p, tc.q); got != tc.want {
			t.Errorf("%s: Subsumes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// randAtomPred builds a random conjunction of provable atoms over the given
// column count.
func randAtomPred(r *rand.Rand, width, natoms int) Expr {
	atoms := make([]Expr, 0, natoms)
	for i := 0; i < natoms; i++ {
		c := C(r.Intn(width), "c")
		switch r.Intn(5) {
		case 0:
			atoms = append(atoms, NewCmp(CmpOp(r.Intn(6)), c, Int(int64(r.Intn(40)-20))))
		case 1:
			lo := int64(r.Intn(30) - 15)
			atoms = append(atoms, NewBetween(c, Int(lo), Int(lo+int64(r.Intn(10)))))
		case 2:
			set := make([]types.Datum, 1+r.Intn(3))
			for j := range set {
				set[j] = types.NewInt(int64(r.Intn(20) - 10))
			}
			atoms = append(atoms, NewIn(c, set...))
		case 3:
			atoms = append(atoms, NewCmp(CmpOp(r.Intn(6)), c, Float(float64(r.Intn(30))-15+0.5)))
		default:
			atoms = append(atoms, Eq(c, Str(string(rune('a'+r.Intn(6))))))
		}
	}
	return NewAnd(atoms...)
}

func randRow(r *rand.Rand, width int) types.Row {
	row := make(types.Row, width)
	for i := range row {
		switch r.Intn(8) {
		case 0:
			row[i] = types.Null
		case 1:
			row[i] = types.NewFloat(math.NaN())
		case 2:
			row[i] = types.NewString(string(rune('a' + r.Intn(6))))
		case 3:
			row[i] = types.NewFloat(float64(r.Intn(40)-20) + 0.5)
		default:
			row[i] = types.NewInt(int64(r.Intn(40) - 20))
		}
	}
	return row
}

// TestSubsumesRandomImpliedPairs is the checker's completeness property:
// 400 random (p, q = p AND extra) pairs must all be provable, and proven
// pairs must never disagree with brute-force Eval on random rows
// (soundness).
func TestSubsumesRandomImpliedPairs(t *testing.T) {
	const width = 4
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		p := randAtomPred(r, width, 1+r.Intn(3))
		extra := randAtomPred(r, width, 1+r.Intn(2))
		q := And{L: p, R: extra}
		if !Subsumes(p, q) {
			t.Fatalf("pair %d: q = p AND extra must always be provable\n p: %s\n q: %s",
				i, p.Signature(), q.Signature())
		}
		for j := 0; j < 64; j++ {
			row := randRow(r, width)
			if q.Eval(row).Bool() && !p.Eval(row).Bool() {
				t.Fatalf("pair %d: unsound: row %s satisfies q but not p\n p: %s\n q: %s",
					i, row, p.Signature(), q.Signature())
			}
		}
	}
}

// TestSubsumesRandomSoundness stresses soundness on unrelated random pairs:
// whenever the checker proves q ⇒ p, no random row may witness q∧¬p.
func TestSubsumesRandomSoundness(t *testing.T) {
	const width = 3
	r := rand.New(rand.NewSource(7))
	proved := 0
	for i := 0; i < 2000; i++ {
		p := randAtomPred(r, width, 1+r.Intn(2))
		q := randAtomPred(r, width, 1+r.Intn(3))
		if !Subsumes(p, q) {
			continue
		}
		proved++
		for j := 0; j < 128; j++ {
			row := randRow(r, width)
			if q.Eval(row).Bool() && !p.Eval(row).Bool() {
				t.Fatalf("pair %d: unsound: row %s satisfies q but not p\n p: %s\n q: %s",
					i, row, p.Signature(), q.Signature())
			}
		}
	}
	if proved == 0 {
		t.Fatal("checker proved nothing across 2000 random pairs; too conservative to be useful")
	}
}

func TestEqualStructural(t *testing.T) {
	x := C(0, "x")
	cases := []struct {
		a, b Expr
		want bool
	}{
		{Eq(x, Int(5)), Eq(C(0, "renamed"), Int(5)), true}, // names are display-only
		{Eq(x, Int(5)), Eq(C(1, "x"), Int(5)), false},
		{Eq(x, Int(5)), Eq(x, Float(5)), false}, // kind matters
		{Eq(x, Const{D: types.NewFloat(math.NaN())}), Eq(x, Const{D: types.NewFloat(math.NaN())}), true},
		{NewIn(x, types.NewInt(1), types.NewInt(2)), NewIn(x, types.NewInt(2), types.NewInt(1)), false}, // order-sensitive
		{NewAnd(Eq(x, Int(1)), Eq(x, Int(2))), NewAnd(Eq(x, Int(2)), Eq(x, Int(1))), false},
		{nil, nil, true},
		{Eq(x, Int(1)), nil, false},
	}
	for i, tc := range cases {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: Equal = %v, want %v", i, got, tc.want)
		}
	}
}

func TestFingerprintAgreesWithEqual(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	exprs := make([]Expr, 0, 60)
	for i := 0; i < 60; i++ {
		exprs = append(exprs, randAtomPred(r, 4, 1+r.Intn(3)))
	}
	exprs = append(exprs, nil)
	for i, a := range exprs {
		for j, b := range exprs {
			fa, fb := Fingerprint(a), Fingerprint(b)
			if Equal(a, b) && fa != fb {
				t.Fatalf("exprs %d,%d Equal but fingerprints differ", i, j)
			}
			if !Equal(a, b) && fa == fb {
				t.Fatalf("fingerprint collision between structurally distinct exprs %d,%d", i, j)
			}
		}
	}
	// Column names must not affect the fingerprint.
	if Fingerprint(Eq(C(2, "a"), Int(7))) != Fingerprint(Eq(C(2, "b"), Int(7))) {
		t.Error("fingerprint depends on display name")
	}
	// NaN constants collapse to one fingerprint.
	n1 := Eq(C(0, "x"), Const{D: types.NewFloat(math.NaN())})
	n2 := Eq(C(0, "x"), Const{D: types.NewFloat(math.Float64frombits(0x7ff8000000000123))})
	if Fingerprint(n1) != Fingerprint(n2) {
		t.Error("NaN payloads must fingerprint identically")
	}
}

// TestSubsumesConstantAllocs pins the checker at zero allocations; CI's
// perf-smoke job also gates BenchmarkSubsumes at 0 allocs/op.
func TestSubsumesConstantAllocs(t *testing.T) {
	p := q1Style(100, 400, 1, 3, 25)
	q := And{L: p, R: NewBetween(C(11, "lo_discount"), Int(2), Int(3))}
	hard := q1Style(120, 380, 2, 3, 20) // no shared conjunct: full interval reasoning
	if !Subsumes(p, q) || !Subsumes(p, hard) {
		t.Fatal("both pairs must be provable")
	}
	allocs := testing.AllocsPerRun(200, func() {
		Subsumes(p, q)
		Subsumes(p, hard)
	})
	if allocs != 0 {
		t.Errorf("Subsumes allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkSubsumes measures the implication check on an SSB Q1-shaped
// pair — gated at 0 allocs/op by CI.
func BenchmarkSubsumes(b *testing.B) {
	p := q1Style(100, 400, 1, 3, 25)
	q := And{L: p, R: NewBetween(C(11, "lo_discount"), Int(2), Int(3))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Subsumes(p, q) {
			b.Fatal("must subsume")
		}
	}
}

// BenchmarkSubsumesInterval exercises the pure interval path (no shared
// conjuncts between p and q).
func BenchmarkSubsumesInterval(b *testing.B) {
	p := NewBetween(C(5, "d"), Int(100), Int(400))
	q := NewAnd(NewCmp(GE, C(5, "d"), Int(150)), NewCmp(LE, C(5, "d"), Int(350)))
	if !Subsumes(p, q) {
		b.Fatal("must subsume")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Subsumes(p, q)
	}
}
