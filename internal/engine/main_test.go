package engine

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/arena"
	"repro/internal/vec"
)

// TestMain fails the package if any kernel the tests drove wrote through
// ColBatch.AllSel: the identity selection is shared by every batch. Freed
// arena pages are poisoned for the whole run, so a page or a decoded column
// read after its owner let go fails a decode or a result check instead of
// passing on stale bytes.
func TestMain(m *testing.M) {
	flag.Parse()
	arena.SetPoison(flag.Lookup("test.bench").Value.String() == "") // benchmarks time the real Free
	code := m.Run()
	if err := vec.CheckIdentity(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
