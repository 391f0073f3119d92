package storage

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/arena"
	"repro/internal/vec"
)

// TestMain poisons freed arena pages for the whole run, so a page or a decoded
// column read after its owner let go fails a decode or a comparison instead
// of passing on stale bytes, and fails the package if anything wrote through
// the identity selection or the kind runs that every batch shares.
func TestMain(m *testing.M) {
	flag.Parse()
	arena.SetPoison(flag.Lookup("test.bench").Value.String() == "") // benchmarks time the real Free
	code := m.Run()
	for _, err := range []error{vec.CheckIdentity(), vec.CheckKindRuns()} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
