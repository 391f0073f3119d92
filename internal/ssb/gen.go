package ssb

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/storage"
	"repro/internal/types"
)

// Cardinalities at scale factor 1 (SSB specification; part grows
// logarithmically in the spec — we scale linearly with a floor, which
// preserves the fact:dimension size ratios the experiments depend on).
const (
	LineorderRowsPerSF = 6_000_000
	CustomerRowsPerSF  = 30_000
	SupplierRowsPerSF  = 2_000
	PartRowsPerSF      = 200_000
)

// DB is a generated SSB database.
type DB struct {
	SF        float64
	Lineorder *storage.Table
	Customer  *storage.Table
	Supplier  *storage.Table
	Part      *storage.Table
	Date      *storage.Table

	// DateKeys holds every d_datekey, index-aligned with the date table.
	DateKeys []int64
	// Sizes of the generated key domains (keys are 1..N).
	NCust, NSupp, NPart int
}

// GenOptions tunes data generation beyond the scale factor.
type GenOptions struct {
	// DateClustered assigns lo_orderdate monotonically across the fact table
	// instead of uniformly at random — the layout a time-ordered ingest
	// produces naturally. Each fact page then covers a narrow date range, so
	// zone maps turn a date window into a contiguous run of relevant pages.
	DateClustered bool
}

// Generate creates and loads all five SSB tables at the given scale factor.
// Fractional scale factors are supported (sf=0.01 is a 60k-row fact table).
func Generate(cat *storage.Catalog, sf float64, seed int64) (*DB, error) {
	return GenerateOpts(cat, sf, seed, GenOptions{})
}

// GenerateOpts is Generate with layout options.
func GenerateOpts(cat *storage.Catalog, sf float64, seed int64, opts GenOptions) (*DB, error) {
	if sf <= 0 {
		return nil, fmt.Errorf("ssb: scale factor must be positive, got %g", sf)
	}
	db := &DB{
		SF:    sf,
		NCust: maxInt(30, int(CustomerRowsPerSF*sf)),
		NSupp: maxInt(10, int(SupplierRowsPerSF*sf)),
		NPart: maxInt(200, int(PartRowsPerSF*sf)),
	}
	r := rand.New(rand.NewSource(seed))
	var err error
	if db.Date, db.DateKeys, err = generateDate(cat); err != nil {
		return nil, err
	}
	if db.Customer, err = generateCustomer(cat, db.NCust, r); err != nil {
		return nil, err
	}
	if db.Supplier, err = generateSupplier(cat, db.NSupp, r); err != nil {
		return nil, err
	}
	if db.Part, err = generatePart(cat, db.NPart, r); err != nil {
		return nil, err
	}
	if db.Lineorder, err = generateLineorder(cat, db, int(float64(LineorderRowsPerSF)*sf), r, opts); err != nil {
		return nil, err
	}
	return db, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// generateDate loads the 1992-1998 calendar (2557 days).
func generateDate(cat *storage.Catalog) (*storage.Table, []int64, error) {
	tbl, err := cat.CreateTable("date", DateSchema())
	if err != nil {
		return nil, nil, err
	}
	var keys []int64
	var yearMonth string // "Jan1992": formatted on the first of each month
	day := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(1998, 12, 31, 0, 0, 0, 0, time.UTC)
	for !day.After(end) {
		key := int64(day.Year()*10000 + int(day.Month())*100 + day.Day())
		keys = append(keys, key)
		if day.Day() == 1 {
			yearMonth = day.Month().String()[:3] + strconv.Itoa(day.Year())
		}
		row := types.Row{
			types.NewInt(key),
			types.NewString(day.Weekday().String()),
			types.NewString(day.Month().String()),
			types.NewInt(int64(day.Year())),
			types.NewInt(int64(day.Year()*100 + int(day.Month()))),
			types.NewString(yearMonth),
			types.NewInt(int64((day.YearDay()-1)/7 + 1)),
		}
		if err := tbl.File.Append(row); err != nil {
			return nil, nil, err
		}
		day = day.AddDate(0, 0, 1)
	}
	if err := tbl.File.Seal(); err != nil {
		return nil, nil, err
	}
	return tbl, keys, nil
}

func generateCustomer(cat *storage.Catalog, n int, r *rand.Rand) (*storage.Table, error) {
	tbl, err := cat.CreateTable("customer", CustomerSchema())
	if err != nil {
		return nil, err
	}
	for i := 1; i <= n; i++ {
		ni := r.Intn(len(Nations))
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(CityOf(Nations[ni], r.Intn(10))),
			types.NewString(Nations[ni]),
			types.NewString(nationRegion[ni]),
			types.NewString(MktSegments[r.Intn(len(MktSegments))]),
		}
		if err := tbl.File.Append(row); err != nil {
			return nil, err
		}
	}
	return tbl, tbl.File.Seal()
}

func generateSupplier(cat *storage.Catalog, n int, r *rand.Rand) (*storage.Table, error) {
	tbl, err := cat.CreateTable("supplier", SupplierSchema())
	if err != nil {
		return nil, err
	}
	for i := 1; i <= n; i++ {
		ni := r.Intn(len(Nations))
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(CityOf(Nations[ni], r.Intn(10))),
			types.NewString(Nations[ni]),
			types.NewString(nationRegion[ni]),
		}
		if err := tbl.File.Append(row); err != nil {
			return nil, err
		}
	}
	return tbl, tbl.File.Seal()
}

func generatePart(cat *storage.Catalog, n int, r *rand.Rand) (*storage.Table, error) {
	tbl, err := cat.CreateTable("part", PartSchema())
	if err != nil {
		return nil, err
	}
	// The part hierarchy's 5 manufacturers, 25 categories and 1 000 brands,
	// formatted once: MFGR#m, MFGR#mc and MFGR#mcbb.
	var mfgrs [5]string
	var cats [5 * 5]string
	var brands [5 * 5 * 40]string
	for m := range mfgrs {
		mfgrs[m] = fmt.Sprintf("MFGR#%d", m+1)
		for c := 0; c < 5; c++ {
			cats[m*5+c] = fmt.Sprintf("MFGR#%d%d", m+1, c+1)
			for b := 0; b < 40; b++ {
				brands[(m*5+c)*40+b] = fmt.Sprintf("MFGR#%d%d%02d", m+1, c+1, b+1)
			}
		}
	}
	for i := 1; i <= n; i++ {
		mfgr := r.Intn(5)
		cat := mfgr*5 + r.Intn(5)
		brand := cat*40 + r.Intn(40)
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewString(mfgrs[mfgr]),
			types.NewString(cats[cat]),
			types.NewString(brands[brand]),
			types.NewString(Colors[r.Intn(len(Colors))]),
			types.NewInt(int64(1 + r.Intn(50))),
		}
		if err := tbl.File.Append(row); err != nil {
			return nil, err
		}
	}
	return tbl, tbl.File.Seal()
}

func generateLineorder(cat *storage.Catalog, db *DB, n int, r *rand.Rand, opts GenOptions) (*storage.Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("ssb: scale factor yields no lineorder rows")
	}
	tbl, err := cat.CreateTable("lineorder", LineorderSchema())
	if err != nil {
		return nil, err
	}
	// Append copies values into the page being built, so one chunk of datums
	// serves every chunk of rows, each row's twelve datums written in place:
	// 600 bytes of garbage per row would otherwise be most of what the
	// collector sees while loading, now that the device's pages are not in
	// its heap.
	const chunk = 4096
	width := tbl.Schema.Len()
	datums := make([]types.Datum, chunk*width)
	buf := make([]types.Row, 0, chunk)
	line := 0
	order := int64(0)
	for i := 0; i < n; i++ {
		if line == 0 {
			order++
			line = 1 + r.Intn(7)
		}
		qty := int64(1 + r.Intn(50))
		price := int64(90000+r.Intn(1000000)) * qty / 25
		disc := int64(r.Intn(11))
		revenue := price * (100 - disc) / 100
		orderDate := db.DateKeys[r.Intn(len(db.DateKeys))]
		if opts.DateClustered {
			orderDate = db.DateKeys[i*len(db.DateKeys)/n]
		}
		row := types.Row(datums[len(buf)*width : (len(buf)+1)*width])
		row[0] = types.NewInt(order)
		row[1] = types.NewInt(int64(line))
		row[2] = types.NewInt(1 + r.Int63n(int64(db.NCust)))
		row[3] = types.NewInt(1 + r.Int63n(int64(db.NPart)))
		row[4] = types.NewInt(1 + r.Int63n(int64(db.NSupp)))
		row[5] = types.NewInt(orderDate)
		row[6] = types.NewInt(qty)
		row[7] = types.NewInt(price)
		row[8] = types.NewInt(disc)
		row[9] = types.NewInt(revenue)
		row[10] = types.NewInt(price * int64(40+r.Intn(30)) / 100 / 4)
		row[11] = types.NewInt(int64(r.Intn(9)))
		line--
		buf = append(buf, row)
		if len(buf) == chunk {
			if err := tbl.File.Append(buf...); err != nil {
				return nil, err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := tbl.File.Append(buf...); err != nil {
			return nil, err
		}
	}
	return tbl, tbl.File.Seal()
}
