// Push vs pull Simultaneous Pipelining (Scenario I in miniature).
//
// The paper's §4.3: sharing a table scan among identical TPC-H Q1 instances
// with the original push-based model makes the producer copy every page into
// every consumer's own 8-page list — a serialization point that grows with
// concurrency — while the pull-based Shared Pages List appends each page once
// and lets consumers pull concurrently. This example measures workload response time
// for k simultaneous Q1 instances under query-centric execution, push-SP and
// pull-SP, and prints the page-copy counters that explain the difference.
//
// Run with: go run ./examples/pushpull
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	sys := repro.NewSystem(repro.Config{})
	defer sys.Close()
	lineitem, err := sys.LoadTPCH(0.01, 1) // 60k rows
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineitem: %d rows, %d pages\n\n", lineitem.NumRows(), lineitem.File.NumPages())

	ctx := context.Background()
	scanOnly := map[repro.PlanKind]bool{repro.KindScan: true}
	modes := []struct {
		label string
		cfg   repro.EngineConfig
	}{
		{"query-centric", repro.EngineConfig{}},
		{"push-SP(copy)", repro.EngineConfig{SP: true, Model: repro.SPPush, SPStages: scanOnly}},
		{"pull-SP(SPL)", repro.EngineConfig{SP: true, Model: repro.SPPull, SPStages: scanOnly}},
	}

	fmt.Printf("%-14s", "concurrency")
	for _, m := range modes {
		fmt.Printf("%16s", m.label)
	}
	fmt.Println("   (response time; lower is better)")

	type statLine struct {
		label                        string
		executed, satellites, copies int64
	}
	var finalStats []statLine
	for _, k := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("%-14d", k)
		for _, m := range modes {
			eng := sys.NewEngine(m.cfg)
			roots := make([]repro.Node, k)
			for i := range roots {
				roots[i] = repro.Q1Plan(lineitem, 90)
			}
			start := time.Now()
			if _, err := eng.ExecuteBatch(ctx, roots); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%16s", time.Since(start).Round(100*time.Microsecond))
			if k == 16 {
				st := eng.StageStatsFor(repro.KindScan)
				finalStats = append(finalStats, statLine{m.label, st.Executed, st.SPAttached, st.Copies})
			}
		}
		fmt.Println()
	}

	fmt.Println("\nscan-stage counters at concurrency 16:")
	for _, s := range finalStats {
		fmt.Printf("  %-14s scan packets=%-3d satellites=%-3d page-copies=%d\n",
			s.label, s.executed, s.satellites, s.copies)
	}
	fmt.Println("\npush-SP's page-copies are the serialization point; pull-SP shares pages with zero copies.")
}
