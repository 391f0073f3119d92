package engine

import (
	"context"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// Join edge cases: duplicate keys on the build side (one probe row matches
// several build rows), NULL join keys (never match), and empty inputs.
func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 32)
	left, err := cat.CreateTable("l", types.NewSchema(
		types.Column{Name: "lk", Kind: types.KindInt},
		types.Column{Name: "lv", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	right, err := cat.CreateTable("r", types.NewSchema(
		types.Column{Name: "rk", Kind: types.KindInt},
		types.Column{Name: "rv", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	lrows := []types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("b")},
		{types.Null, types.NewString("n")},
	}
	rrows := []types.Row{
		{types.NewInt(1), types.NewString("x")},
		{types.NewInt(1), types.NewString("y")}, // duplicate build key
		{types.NewInt(3), types.NewString("z")},
		{types.Null, types.NewString("m")},
	}
	if err := left.File.Append(lrows...); err != nil {
		t.Fatal(err)
	}
	if err := right.File.Append(rrows...); err != nil {
		t.Fatal(err)
	}
	if err := left.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := right.File.Seal(); err != nil {
		t.Fatal(err)
	}

	e := New(cat, Config{})
	res, err := e.Execute(context.Background(),
		plan.NewHashJoin(plan.NewScan(left), plan.NewScan(right), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Expected: (1,a,1,x) and (1,a,1,y); NULLs never join; key 2 and 3 have
	// no partner.
	want := []types.Row{
		lrows[0].Concat(rrows[0]),
		lrows[0].Concat(rrows[1]),
	}
	mustEqualRows(t, res.Rows, want)
}

func TestHashJoinEmptyBuildSide(t *testing.T) {
	cat := testDB(t, 200)
	e := New(cat, Config{})
	sales := cat.MustTable("sales")
	dept := cat.MustTable("dept")
	// Filter the build side down to nothing.
	never := plan.NewFilter(plan.NewScan(dept),
		expr.NewCmp(expr.LT, expr.C(0, "dk"), expr.Int(-1)))
	res, err := e.Execute(context.Background(),
		plan.NewHashJoin(plan.NewScan(sales), never, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("join against empty build side returned %d rows", len(res.Rows))
	}
}
