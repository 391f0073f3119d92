package workload

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/vec"
)

// TestMain fails the package if any kernel the tests drove wrote through
// ColBatch.AllSel: the identity selection is one slice shared by every batch.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := vec.CheckIdentity(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
