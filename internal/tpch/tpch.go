// Package tpch provides the TPC-H substrate of Scenario I: a lineitem
// generator with TPC-H-like value distributions and the TPC-H Q1 plan
// ("pricing summary report"), the scan-heavy aggregation the paper uses to
// demonstrate push- vs pull-based Simultaneous Pipelining at the table scan
// stage.
package tpch

import (
	"fmt"
	"math/rand"

	"repro/internal/storage"
	"repro/internal/types"
)

// Column positions in the lineitem schema (the subset Q1 touches).
const (
	ColQuantity = iota
	ColExtendedPrice
	ColDiscount
	ColTax
	ColReturnFlag
	ColLineStatus
	ColShipDate
)

// LineitemRowsPerSF is the TPC-H lineitem cardinality at scale factor 1.
const LineitemRowsPerSF = 6_000_000

// Schema returns the lineitem schema.
func Schema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "l_quantity", Kind: types.KindInt},
		types.Column{Name: "l_extendedprice", Kind: types.KindFloat},
		types.Column{Name: "l_discount", Kind: types.KindFloat},
		types.Column{Name: "l_tax", Kind: types.KindFloat},
		types.Column{Name: "l_returnflag", Kind: types.KindString},
		types.Column{Name: "l_linestatus", Kind: types.KindString},
		types.Column{Name: "l_shipdate", Kind: types.KindDate},
	)
}

// Generate creates and loads the lineitem table at the given scale factor
// (fractional scale factors are supported: sf=0.01 is 60k rows).
func Generate(cat *storage.Catalog, sf float64, seed int64) (*storage.Table, error) {
	n := int(float64(LineitemRowsPerSF) * sf)
	if n < 1 {
		return nil, fmt.Errorf("tpch: scale factor %g yields no rows", sf)
	}
	tbl, err := cat.CreateTable("lineitem", Schema())
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))

	// Ship dates span 1992-01-02 .. 1998-12-01; the line status cutoff is
	// 1995-06-17 as in dbgen.
	startDay := types.DateFromYMD(1992, 1, 2).I
	endDay := types.DateFromYMD(1998, 12, 1).I
	cutoff := types.DateFromYMD(1995, 6, 17).I

	err = tbl.File.Load(n, func(_ int, row *storage.RowWriter) {
		qty := int64(1 + r.Intn(50))
		price := float64(90000+r.Intn(1500000)) / 100 * float64(qty) / 25
		disc := float64(r.Intn(11)) / 100
		tax := float64(r.Intn(9)) / 100
		ship := startDay + r.Int63n(endDay-startDay+1)

		var rf, ls string
		if ship > cutoff {
			ls = "O"
			rf = "N"
		} else {
			ls = "F"
			switch r.Intn(4) {
			case 0:
				rf = "R"
			case 1:
				rf = "A"
			default:
				rf = "N"
			}
		}
		row.Int(ColQuantity, qty)
		row.Float(ColExtendedPrice, price)
		row.Float(ColDiscount, disc)
		row.Float(ColTax, tax)
		row.Str(ColReturnFlag, rf)
		row.Str(ColLineStatus, ls)
		row.Date(ColShipDate, ship)
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
