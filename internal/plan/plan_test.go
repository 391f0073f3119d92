package plan

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

func testTables(t *testing.T) (*storage.Table, *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 32, true)
	fact, err := cat.CreateTable("fact", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "fk", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	dim, err := cat.CreateTable("dim", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*storage.Table{fact, dim} {
		if err := tbl.File.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	return fact, dim
}

func TestScanSignatures(t *testing.T) {
	fact, dim := testTables(t)
	if NewScan(fact).Signature() == NewScan(dim).Signature() {
		t.Error("scans of different tables must differ")
	}
	if NewScan(fact).Signature() != NewScan(fact).Signature() {
		t.Error("scans of the same table must match")
	}
	p := expr.Eq(expr.C(0, "id"), expr.Int(1))
	if NewScanFiltered(fact, p).Signature() == NewScan(fact).Signature() {
		t.Error("pushed predicate must change the scan signature")
	}
}

func TestNodeKindsAndSchemas(t *testing.T) {
	fact, dim := testTables(t)
	scan := NewScan(fact)
	filter := NewFilter(scan, expr.Eq(expr.C(0, "id"), expr.Int(1)))
	proj := NewProject(filter, []ProjCol{{Name: "x", Kind: types.KindInt, Expr: expr.C(0, "id")}})
	join := NewHashJoin(scan, NewScan(dim), 1, 0)
	agg := NewAggregate(scan,
		[]GroupCol{{Name: "fk", Kind: types.KindInt, Expr: expr.C(1, "fk")}},
		[]AggSpec{
			{Func: AggSum, Arg: expr.C(2, "v"), Name: "s"},
			{Func: AggCount, Name: "n"},
			{Func: AggMin, Arg: expr.C(2, "v"), Name: "lo", ArgKind: types.KindFloat},
		})
	sortN := NewSort(scan, []SortKey{{Col: 0, Desc: true}})
	limit := NewLimit(sortN, 10)

	cases := []struct {
		n    Node
		kind Kind
		cols int
	}{
		{scan, KindScan, 3},
		{filter, KindFilter, 3},
		{proj, KindProject, 1},
		{join, KindHashJoin, 5},
		{agg, KindAggregate, 4},
		{sortN, KindSort, 3},
		{limit, KindLimit, 3},
	}
	for _, c := range cases {
		if c.n.Kind() != c.kind {
			t.Errorf("%T Kind = %v, want %v", c.n, c.n.Kind(), c.kind)
		}
		if c.n.Schema().Len() != c.cols {
			t.Errorf("%T schema width = %d, want %d", c.n, c.n.Schema().Len(), c.cols)
		}
	}
	// Aggregate output kinds: sum -> float, count -> int, min -> arg kind.
	sch := agg.Schema()
	wantKinds := []types.Kind{types.KindInt, types.KindFloat, types.KindInt, types.KindFloat}
	for i, w := range wantKinds {
		if sch.Cols[i].Kind != w {
			t.Errorf("agg col %d kind = %v, want %v", i, sch.Cols[i].Kind, w)
		}
	}
}

func TestSignatureIncorporatesEveryParameter(t *testing.T) {
	fact, dim := testTables(t)
	scan := NewScan(fact)
	base := NewSort(NewHashJoin(scan, NewScan(dim), 1, 0), []SortKey{{Col: 0}}).Signature()

	variants := []Node{
		NewSort(NewHashJoin(scan, NewScan(dim), 0, 0), []SortKey{{Col: 0}}),             // join key
		NewSort(NewHashJoin(scan, NewScan(dim), 1, 1), []SortKey{{Col: 0}}),             // right key
		NewSort(NewHashJoin(scan, NewScan(dim), 1, 0), []SortKey{{Col: 1}}),             // sort col
		NewSort(NewHashJoin(scan, NewScan(dim), 1, 0), []SortKey{{Col: 0, Desc: true}}), // direction
	}
	for i, v := range variants {
		if v.Signature() == base {
			t.Errorf("variant %d did not change the signature", i)
		}
	}
	if NewLimit(scan, 5).Signature() == NewLimit(scan, 6).Signature() {
		t.Error("limit count must change the signature")
	}
}

// Two joins that differ only in what they carry up produce different
// streams: both the SP key and the result-cache key must tell them apart,
// and the all-columns constructor is exactly the identity lists.
func TestJoinOutputListsAreIdentity(t *testing.T) {
	fact, dim := testTables(t)
	mk := func(leftOut, rightOut []int) *HashJoin {
		return NewHashJoinOut(NewScan(fact), NewScan(dim), 1, 0, leftOut, rightOut)
	}
	base := mk([]int{0, 2}, []int{1})
	same := mk([]int{0, 2}, []int{1})
	if base.Signature() != same.Signature() || Fingerprint(base) != Fingerprint(same) {
		t.Error("identical output lists must give identical signature and fingerprint")
	}
	if got := base.Schema().String(); got != "(id:int,v:float,name:string)" {
		t.Errorf("narrowed join schema = %s", got)
	}
	for name, v := range map[string]*HashJoin{
		"left list":        mk([]int{0}, []int{1}),
		"left order":       mk([]int{2, 0}, []int{1}),
		"right list":       mk([]int{0, 2}, nil),
		"moved across '|'": mk([]int{0}, []int{0, 1}),
	} {
		if v.Signature() == base.Signature() {
			t.Errorf("%s: signature did not change", name)
		}
		if Fingerprint(v) == Fingerprint(base) {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
	full := NewHashJoin(NewScan(fact), NewScan(dim), 1, 0)
	ident := mk([]int{0, 1, 2}, []int{0, 1})
	if full.Signature() != ident.Signature() || Fingerprint(full) != Fingerprint(ident) ||
		full.Schema().String() != ident.Schema().String() {
		t.Error("NewHashJoin must be the identity output lists")
	}
}

// QueryCentric narrows the chain at build time: each join carries the output
// fact columns, the keys of the joins still to come and the payloads gathered
// so far — nothing else — and a dimension that only filters is an existence
// probe.
func TestQueryCentricCarriesOnlyLiveColumns(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 32, true)
	mkTable := func(name string, cols ...string) *storage.Table {
		sc := make([]types.Column, len(cols))
		for i, c := range cols {
			sc[i] = types.Column{Name: c, Kind: types.KindInt}
		}
		tab, err := cat.CreateTable(name, types.NewSchema(sc...))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	fact := mkTable("fact", "f_id", "f_a", "f_b", "f_c", "f_rev", "f_pad")
	da := mkTable("da", "a_key", "a_year", "a_pad")
	db := mkTable("db", "b_key", "b_brand")
	dc := mkTable("dc", "c_key", "c_region")
	q := &StarQuery{
		Fact:     fact,
		FactCols: []int{4},
		Dims: []DimJoin{
			{Table: da, FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}},
			{Table: db, FactKeyCol: 2, DimKeyCol: 0, PayloadCols: []int{1}},
			{Table: dc, FactKeyCol: 3, DimKeyCol: 0, Pred: expr.Eq(expr.C(1, "c_region"), expr.Int(1))},
		},
	}
	n := q.QueryCentric()
	if n.Schema().String() != q.OutputSchema().String() {
		t.Fatalf("query-centric schema %s != star schema %s", n.Schema(), q.OutputSchema())
	}
	ex := Explain(n)
	for _, want := range []string{
		"HashJoin f_a = a_key → [f_rev f_b f_c | a_year]",
		"HashJoin f_b = b_key → [f_rev f_c a_year | b_brand]",
		"HashJoin f_c = c_key → [f_rev a_year b_brand | ]", // existence probe
		"Project [f_rev a_year b_brand]",
	} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
}

func TestStarQuerySignatureAndSchema(t *testing.T) {
	fact, dim := testTables(t)
	mk := func(pred expr.Expr) *StarQuery {
		return &StarQuery{
			Fact:     fact,
			FactPred: pred,
			FactCols: []int{0, 2},
			Dims: []DimJoin{{
				Table: dim, FactKeyCol: 1, DimKeyCol: 0,
				Pred:        expr.Eq(expr.C(1, "name"), expr.Str("x")),
				PayloadCols: []int{1},
			}},
		}
	}
	a := mk(nil)
	b := mk(expr.Eq(expr.C(0, "id"), expr.Int(1)))
	if a.Signature() == b.Signature() {
		t.Error("fact predicate must change the star signature")
	}
	out := a.OutputSchema()
	if out.Len() != 3 || out.Cols[2].Name != "name" {
		t.Errorf("star output schema = %v", out)
	}
	cj := NewCJoin(a)
	if cj.Kind() != KindCJoin || cj.Schema().Len() != 3 || len(cj.Children()) != 0 {
		t.Error("CJoin node shape wrong")
	}
	if cj.Signature() == NewCJoin(b).Signature() {
		t.Error("CJoin signatures must track the star query")
	}
}

func TestQueryCentricShapeAndSchema(t *testing.T) {
	fact, dim := testTables(t)
	q := &StarQuery{
		Fact:     fact,
		FactPred: expr.NewCmp(expr.GE, expr.C(2, "v"), expr.Float(1)),
		FactCols: []int{0},
		Dims: []DimJoin{{
			Table: dim, FactKeyCol: 1, DimKeyCol: 0,
			Pred:        expr.Eq(expr.C(1, "name"), expr.Str("x")),
			PayloadCols: []int{1},
		}},
	}
	n := q.QueryCentric()
	// Top is a projection to the star output schema.
	if n.Kind() != KindProject {
		t.Fatalf("query-centric top = %v, want project", n.Kind())
	}
	if n.Schema().String() != q.OutputSchema().String() {
		t.Errorf("query-centric schema %s != star schema %s", n.Schema(), q.OutputSchema())
	}
	// The tree must contain the join and both filters.
	ex := Explain(n)
	for _, want := range []string{"Project", "HashJoin", "Filter", "Scan fact", "Scan dim"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
}

func TestExplainRendersTree(t *testing.T) {
	fact, dim := testTables(t)
	q := &StarQuery{
		Fact: fact, FactCols: []int{0},
		Dims: []DimJoin{{Table: dim, FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{1}}},
	}
	root := NewLimit(NewSort(NewAggregate(NewCJoin(q),
		[]GroupCol{{Name: "name", Kind: types.KindString, Expr: expr.C(1, "name")}},
		[]AggSpec{{Func: AggCount, Name: "n"}}),
		[]SortKey{{Col: 1, Desc: true}}), 5)
	got := Explain(root)
	wantLines := []string{"Limit 5", "Sort [1 desc]", "Aggregate group=[name] aggs=[count(n)]", "CJoin star(fact, dims=[dim])"}
	for _, w := range wantLines {
		if !strings.Contains(got, w) {
			t.Errorf("Explain missing %q:\n%s", w, got)
		}
	}
	// Tree connectors must appear for nested children.
	if !strings.Contains(got, "└─") {
		t.Errorf("Explain has no tree connectors:\n%s", got)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindScan: "scan", KindFilter: "filter", KindProject: "project",
		KindHashJoin: "join", KindAggregate: "agg", KindSort: "sort",
		KindLimit: "limit", KindCJoin: "cjoin",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind must render something")
	}
}
