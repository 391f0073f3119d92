package spl

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/types"
)

func page(v int64) *batch.Batch {
	return batch.Of(types.Row{types.NewInt(v)})
}

func readAll(t *testing.T, r *Reader) []int64 {
	t.Helper()
	var out []int64
	for {
		b, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, b.RowsView()[0][0].I)
	}
}

func TestSingleConsumerStream(t *testing.T) {
	l := New(4)
	r, err := l.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := int64(0); i < 10; i++ {
			if err := l.Append(page(i)); err != nil {
				t.Error(err)
				return
			}
		}
		l.Close(nil)
	}()
	got := readAll(t, r)
	if len(got) != 10 {
		t.Fatalf("read %d pages, want 10", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("page %d = %d", i, v)
		}
	}
}

func TestMultipleConsumersSeeIdenticalStream(t *testing.T) {
	l := New(4)
	const consumers = 5
	readers := make([]*Reader, consumers)
	for i := range readers {
		var err error
		readers[i], err = l.NewReader()
		if err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		for i := int64(0); i < 50; i++ {
			if err := l.Append(page(i)); err != nil {
				t.Error(err)
				return
			}
		}
		l.Close(nil)
	}()
	var wg sync.WaitGroup
	results := make([][]int64, consumers)
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = readAll(t, readers[i])
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if len(got) != 50 {
			t.Fatalf("consumer %d read %d pages", i, len(got))
		}
		for j, v := range got {
			if v != int64(j) {
				t.Fatalf("consumer %d page %d = %d", i, j, v)
			}
		}
	}
}

func TestWatermarkReclamation(t *testing.T) {
	l := New(100)
	r, _ := l.NewReader()
	for i := int64(0); i < 10; i++ {
		if err := l.Append(page(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Retained(); got != 10 {
		t.Fatalf("Retained = %d before reads", got)
	}
	for i := 0; i < 7; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Retained(); got != 3 {
		t.Fatalf("Retained = %d after 7 reads, want 3", got)
	}
}

func TestReclamationWaitsForSlowestConsumer(t *testing.T) {
	l := New(100)
	fast, _ := l.NewReader()
	slow, _ := l.NewReader()
	for i := int64(0); i < 8; i++ {
		l.Append(page(i))
	}
	for i := 0; i < 8; i++ {
		if _, err := fast.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Retained(); got != 8 {
		t.Fatalf("Retained = %d with slow reader at 0, want 8", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := slow.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Retained(); got != 5 {
		t.Fatalf("Retained = %d after slow read 3, want 5", got)
	}
}

func TestLateAttachAfterReclaimFails(t *testing.T) {
	l := New(100)
	r, _ := l.NewReader()
	l.Append(page(0))
	l.Append(page(1))
	if _, err := r.Next(); err != nil { // reclaims page 0
		t.Fatal(err)
	}
	if _, err := l.NewReader(); err != ErrTooLate {
		t.Fatalf("late attach error = %v, want ErrTooLate", err)
	}
}

func TestLateAttachBeforeReclaimSucceeds(t *testing.T) {
	l := New(100)
	first, _ := l.NewReader()
	l.Append(page(0))
	l.Append(page(1))
	second, err := l.NewReader()
	if err != nil {
		t.Fatalf("attach before any reclamation must succeed: %v", err)
	}
	l.Close(nil)
	if got := readAll(t, second); len(got) != 2 {
		t.Fatalf("late reader saw %d pages, want 2", len(got))
	}
	if got := readAll(t, first); len(got) != 2 {
		t.Fatalf("first reader saw %d pages, want 2", len(got))
	}
}

func TestProducerBlocksAtMaxPagesAndResumes(t *testing.T) {
	l := New(2)
	r, _ := l.NewReader()
	l.Append(page(0))
	l.Append(page(1))

	appended := make(chan error, 1)
	go func() { appended <- l.Append(page(2)) }()
	select {
	case <-appended:
		t.Fatal("Append must block at maxPages")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := r.Next(); err != nil { // frees one slot
		t.Fatal(err)
	}
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Append did not resume after reclamation")
	}
}

func TestAllConsumersDetachAbortsProducer(t *testing.T) {
	l := New(2)
	r, _ := l.NewReader()
	if err := l.Append(page(0)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := l.Append(page(1)); err != ErrNoConsumers {
		t.Fatalf("Append after all detach = %v, want ErrNoConsumers", err)
	}
}

func TestDetachUnblocksProducer(t *testing.T) {
	l := New(1)
	r, _ := l.NewReader()
	l.Append(page(0))
	appended := make(chan error, 1)
	go func() { appended <- l.Append(page(1)) }()
	time.Sleep(10 * time.Millisecond)
	r.Close() // the blocked producer must wake and abort
	select {
	case err := <-appended:
		if err != ErrNoConsumers {
			t.Fatalf("err = %v, want ErrNoConsumers", err)
		}
	case <-time.After(time.Second):
		t.Fatal("producer still blocked after last consumer detached")
	}
}

func TestCloseWithErrorPropagates(t *testing.T) {
	l := New(4)
	r, _ := l.NewReader()
	l.Append(page(0))
	boom := errors.New("boom")
	l.Close(boom)
	// Error delivery takes precedence over draining remaining pages: a failed
	// producer must not let consumers act on a partial stream.
	if _, err := r.Next(); err != boom {
		t.Fatalf("Next = %v, want boom", err)
	}
}

func TestCloseNilThenDrainThenEOF(t *testing.T) {
	l := New(4)
	r, _ := l.NewReader()
	l.Append(page(7))
	l.Close(nil)
	b, err := r.Next()
	if err != nil || b.RowsView()[0][0].I != 7 {
		t.Fatalf("drain after close: %v %v", b, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l := New(4)
	l.Close(nil)
	if err := l.Append(page(0)); err == nil {
		t.Fatal("append after close must fail")
	}
}

func TestReaderCloseIdempotentAndReadAfterCloseFails(t *testing.T) {
	l := New(4)
	r, _ := l.NewReader()
	r.Close()
	r.Close()
	if _, err := r.Next(); err == nil {
		t.Fatal("read after reader close must fail")
	}
}

func TestEmptyStreamSharedByLateReader(t *testing.T) {
	// A closed, empty list must still accept readers (they see EOF): this is
	// how an SP satellite shares an empty common sub-plan result.
	l := New(4)
	l.Close(nil)
	r, err := l.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestConcurrentStress(t *testing.T) {
	l := New(8)
	const consumers = 8
	const pages = 400
	readers := make([]*Reader, consumers)
	for i := range readers {
		readers[i], _ = l.NewReader()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < pages; i++ {
			if err := l.Append(page(i)); err != nil {
				t.Error(err)
				return
			}
		}
		l.Close(nil)
	}()
	sums := make([]int64, consumers)
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, v := range readAll(t, readers[i]) {
				sums[i] += v
			}
		}(i)
	}
	wg.Wait()
	want := int64(pages * (pages - 1) / 2)
	for i, s := range sums {
		if s != want {
			t.Errorf("consumer %d sum = %d, want %d", i, s, want)
		}
	}
	if l.Retained() != 0 {
		t.Errorf("Retained = %d after full drain", l.Retained())
	}
}

func TestReaderCancelUnblocksOnlyThatReader(t *testing.T) {
	l := New(4)
	rc, err := l.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	ro, err := l.NewReader()
	if err != nil {
		t.Fatal(err)
	}

	// rc blocks in Next on the empty stream; Cancel must unblock it with
	// exactly the cancel cause (the deadline/abandonment path of a shared
	// consumer).
	cause := errors.New("query deadline exceeded")
	errCh := make(chan error, 1)
	go func() {
		_, err := rc.Next()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Next park on the cond var
	rc.Cancel(cause)
	select {
	case err := <-errCh:
		if !errors.Is(err, cause) {
			t.Fatalf("canceled Next err = %v, want %v", err, cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled reader stayed blocked")
	}
	// The cancellation is sticky for this reader alone.
	if _, err := rc.Next(); !errors.Is(err, cause) {
		t.Fatalf("post-cancel Next err = %v, want sticky %v", err, cause)
	}
	rc.Close()

	// The producer and the other consumer are untouched: a full stream
	// flows through after the cancellation.
	go func() {
		for i := int64(0); i < 10; i++ {
			if err := l.Append(page(i)); err != nil {
				t.Error(err)
				return
			}
		}
		l.Close(nil)
	}()
	got := readAll(t, ro)
	if len(got) != 10 {
		t.Fatalf("surviving reader got %d pages, want 10", len(got))
	}
}
