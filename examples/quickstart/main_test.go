package main

import (
	"io"
	"testing"
)

// The quickstart's batch of three identical queries runs the sort stage once
// and attaches the other two as satellites; with the solo run before it, the
// stage has executed twice.
func TestQuickstartBatchSharesTheSortStage(t *testing.T) {
	st, err := run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 2 || st.SPAttached != 2 {
		t.Fatalf("sort stage: executed=%d satellites=%d, want executed=2 satellites=2", st.Executed, st.SPAttached)
	}
}
