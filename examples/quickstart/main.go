// Quickstart: load a small Star Schema Benchmark database, run one SSB query
// through the QPipe engine, then submit three identical queries in a batch
// and watch Simultaneous Pipelining evaluate the common plan once (the
// Figure 1a idea: one evaluation, results pipelined to every consumer).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro"
)

func main() {
	if _, err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the quickstart, printed to w. It returns the sort stage's sharing
// counters.
func run(w io.Writer) (repro.StageStats, error) {
	// A memory-resident system with a 64 MiB buffer pool. Its result cache
	// is off: it would answer the batch below from the first run's result,
	// and nothing would be left to share.
	sys := repro.NewSystem(repro.Config{DisableResultCache: true})
	defer sys.Close()

	// Generate SSB at scale factor 0.01 (60k fact rows) and start the
	// CJOIN pipeline (unused here; see examples/gqp).
	db, err := sys.LoadSSB(0.01, 42)
	if err != nil {
		return repro.StageStats{}, err
	}
	fmt.Fprintf(w, "loaded SSB: lineorder=%d customer=%d supplier=%d part=%d date=%d rows\n",
		db.Lineorder.NumRows(), db.Customer.NumRows(), db.Supplier.NumRows(),
		db.Part.NumRows(), db.Date.NumRows())

	// An engine with pull-based (Shared Pages List) Simultaneous Pipelining
	// on every stage.
	eng := sys.NewEngine(repro.EngineConfig{SP: true, Model: repro.SPPull})
	ctx := context.Background()

	// Instantiate SSB Q3.1 (revenue by nation pair and year) and execute it.
	inst := repro.InstantiateSSB(db, repro.Q3_1, rand.New(rand.NewSource(7)))
	res, err := eng.Execute(ctx, inst.Plan(false))
	if err != nil {
		return repro.StageStats{}, err
	}
	fmt.Fprintf(w, "\n%s returned %d rows; first rows:\n", inst.Name, len(res.Rows))
	fmt.Fprintf(w, "  %s\n", res.Schema)
	for i, row := range res.Rows {
		if i == 5 {
			fmt.Fprintln(w, "  ...")
			break
		}
		fmt.Fprintf(w, "  %s\n", row)
	}

	// Now submit three identical queries as one batch: SP detects the common
	// sub-plan at run time, evaluates it once, and the two satellites pull
	// the host's pages from a Shared Pages List.
	roots := []repro.Node{inst.Plan(false), inst.Plan(false), inst.Plan(false)}
	results, err := eng.ExecuteBatch(ctx, roots)
	if err != nil {
		return repro.StageStats{}, err
	}
	fmt.Fprintf(w, "\nbatch of 3 identical queries: %d/%d/%d rows (identical results)\n",
		len(results[0].Rows), len(results[1].Rows), len(results[2].Rows))

	fmt.Fprintln(w, "\nper-stage sharing counters:")
	for _, st := range eng.Stats().Stages {
		if st.Executed == 0 && st.SPAttached == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s executed=%-3d satellites=%-3d missed-window=%d\n",
			st.Kind, st.Executed, st.SPAttached, st.SPMissed)
	}
	fmt.Fprintln(w, "\nthe sort stage ran once for the batch; two queries attached as satellites.")
	return eng.StageStatsFor(repro.KindSort), nil
}
