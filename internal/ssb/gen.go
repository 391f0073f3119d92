package ssb

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/storage"
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
	db, r, err := generateDims(cat, sf, seed)
	if err != nil {
		return nil, err
	}
	if db.Lineorder, err = generateLineorder(cat, db, int(float64(LineorderRowsPerSF)*sf), r, opts); err != nil {
		return nil, err
	}
	return db, nil
}

// generateDims loads the four dimension tables and returns the random source
// the fact table draws from next.
func generateDims(cat *storage.Catalog, sf float64, seed int64) (*DB, *rand.Rand, error) {
	if sf <= 0 {
		return nil, nil, fmt.Errorf("ssb: scale factor must be positive, got %g", sf)
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
		return nil, nil, err
	}
	if db.Customer, err = generateCustomer(cat, db.NCust, r); err != nil {
		return nil, nil, err
	}
	if db.Supplier, err = generateSupplier(cat, db.NSupp, r); err != nil {
		return nil, nil, err
	}
	if db.Part, err = generatePart(cat, db.NPart, r); err != nil {
		return nil, nil, err
	}
	return db, r, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// generateDate loads the 1992-1998 calendar (2557 days). It steps one
// calendar date a row and takes weekday and month names from tables, so a
// row does no time arithmetic; the month's length is looked up on its first
// day.
func generateDate(cat *storage.Catalog) (*storage.Table, []int64, error) {
	tbl, err := cat.CreateTable("date", DateSchema())
	if err != nil {
		return nil, nil, err
	}
	start := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(1998, 12, 31, 0, 0, 0, 0, time.UTC)
	n := int(end.Sub(start)/(24*time.Hour)) + 1
	keys := make([]int64, n)
	var weekdays [7]string
	for d := range weekdays {
		weekdays[d] = time.Weekday(d).String()
	}
	var months [13]string
	for m := time.January; m <= time.December; m++ {
		months[m] = m.String()
	}
	year, month, mday, yday, wday := start.Year(), start.Month(), start.Day(), start.YearDay(), start.Weekday()
	var yearMonth string // "Jan1992": formatted on the first of each month
	var monthLen int
	err = tbl.File.Load(n, func(i int, row *storage.RowWriter) {
		if mday == 1 {
			yearMonth = months[month][:3] + strconv.Itoa(year)
			monthLen = time.Date(year, month+1, 0, 0, 0, 0, 0, time.UTC).Day()
		}
		key := int64(year*10000 + int(month)*100 + mday)
		keys[i] = key
		row.Int(0, key)
		row.Str(1, weekdays[wday])
		row.Str(2, months[month])
		row.Int(3, int64(year))
		row.Int(4, int64(year*100+int(month)))
		row.Str(5, yearMonth)
		row.Int(6, int64((yday-1)/7+1))
		wday, yday, mday = (wday+1)%7, yday+1, mday+1
		if mday > monthLen {
			mday, month = 1, month+1
			if month > time.December {
				year, month, yday = year+1, time.January, 1
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return tbl, keys, nil
}

// cities holds every SSB city name, CityOf(Nations[n], i) at [n][i].
var cities = func() [][10]string {
	cs := make([][10]string, len(Nations))
	for n, nation := range Nations {
		for i := range cs[n] {
			cs[n][i] = CityOf(nation, i)
		}
	}
	return cs
}()

func generateCustomer(cat *storage.Catalog, n int, r *rand.Rand) (*storage.Table, error) {
	tbl, err := cat.CreateTable("customer", CustomerSchema())
	if err != nil {
		return nil, err
	}
	return tbl, tbl.File.Load(n, func(i int, row *storage.RowWriter) {
		ni := r.Intn(len(Nations))
		row.Int(0, int64(i+1))
		row.Str(1, cities[ni][r.Intn(10)])
		row.Str(2, Nations[ni])
		row.Str(3, nationRegion[ni])
		row.Str(4, MktSegments[r.Intn(len(MktSegments))])
	})
}

func generateSupplier(cat *storage.Catalog, n int, r *rand.Rand) (*storage.Table, error) {
	tbl, err := cat.CreateTable("supplier", SupplierSchema())
	if err != nil {
		return nil, err
	}
	return tbl, tbl.File.Load(n, func(i int, row *storage.RowWriter) {
		ni := r.Intn(len(Nations))
		row.Int(0, int64(i+1))
		row.Str(1, cities[ni][r.Intn(10)])
		row.Str(2, Nations[ni])
		row.Str(3, nationRegion[ni])
	})
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
	return tbl, tbl.File.Load(n, func(i int, row *storage.RowWriter) {
		mfgr := r.Intn(5)
		cat := mfgr*5 + r.Intn(5)
		brand := cat*40 + r.Intn(40)
		row.Int(0, int64(i+1))
		row.Str(1, mfgrs[mfgr])
		row.Str(2, cats[cat])
		row.Str(3, brands[brand])
		row.Str(4, Colors[r.Intn(len(Colors))])
		row.Int(5, int64(1+r.Intn(50)))
	})
}

func generateLineorder(cat *storage.Catalog, db *DB, n int, r *rand.Rand, opts GenOptions) (*storage.Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("ssb: scale factor yields no lineorder rows")
	}
	tbl, err := cat.CreateTable("lineorder", LineorderSchema())
	if err != nil {
		return nil, err
	}
	line := 0
	order := int64(0)
	return tbl, tbl.File.Load(n, func(i int, row *storage.RowWriter) {
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
		row.Int(0, order)
		row.Int(1, int64(line))
		row.Int(2, 1+r.Int63n(int64(db.NCust)))
		row.Int(3, 1+r.Int63n(int64(db.NPart)))
		row.Int(4, 1+r.Int63n(int64(db.NSupp)))
		row.Int(5, orderDate)
		row.Int(6, qty)
		row.Int(7, price)
		row.Int(8, disc)
		row.Int(9, revenue)
		row.Int(10, price*int64(40+r.Intn(30))/100/4)
		row.Int(11, int64(r.Intn(9)))
		line--
	})
}
