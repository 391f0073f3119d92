// Command ssbgen generates the Star Schema Benchmark database (or the TPC-H
// lineitem table) onto a real-file disk, one page-formatted .tbl file per
// table — the offline data-generation step of the demo setup.
//
// Examples:
//
//	ssbgen -sf 0.05 -dir ./data
//	ssbgen -tpch -sf 0.1 -dir ./data-tpch
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var (
	sf      = flag.Float64("sf", 0.01, "scale factor (fraction of SF=1)")
	seed    = flag.Int64("seed", 1, "generation seed")
	dir     = flag.String("dir", "./ssb-data", "output directory")
	useTPCH = flag.Bool("tpch", false, "generate the TPC-H lineitem table instead of SSB")
)

func main() {
	log.SetFlags(0)
	flag.Parse()

	disk, err := storage.NewFileDisk(*dir)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := disk.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	cat := storage.NewCatalog(disk, 1024)

	if *useTPCH {
		tbl, err := tpch.Generate(cat, *sf, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote lineitem: %d rows, %d pages (%d KiB) to %s\n",
			tbl.NumRows(), tbl.File.NumPages(), tbl.File.NumPages()*storage.PageSize/1024, *dir)
		return
	}

	db, err := ssb.Generate(cat, *sf, *seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range []*storage.Table{db.Lineorder, db.Customer, db.Supplier, db.Part, db.Date} {
		fmt.Printf("wrote %-10s %9d rows %6d pages (%d KiB)\n",
			t.Name+":", t.NumRows(), t.File.NumPages(), t.File.NumPages()*storage.PageSize/1024)
	}
	st := disk.Stats()
	fmt.Printf("disk writes: %d pages to %s\n", st.PageWrites, *dir)
}
