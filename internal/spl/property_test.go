package spl

import (
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/types"
)

// TestSPLPropertyRandomSchedules drives the Shared Pages List through many
// randomized producer/consumer schedules and asserts the late-attach-window
// contract on every one:
//
//   - NewReader either attaches at page 0 and then observes every published
//     page, in order and identity-equal to what the producer appended (no
//     page is ever reclaimed before an attached reader consumed it), or it
//     fails with ErrTooLate — never a torn view.
//   - A reader that detaches early observes an exact prefix.
//   - The producer only ever fails with ErrNoConsumers, and only after at
//     least one reader attached and all detached.
//   - The list never retains more than MaxPages unreclaimed pages.
func TestSPLPropertyRandomSchedules(t *testing.T) {
	const rounds = 40
	for round := 0; round < rounds; round++ {
		round := round
		r := rand.New(rand.NewSource(int64(round)*1009 + 17))
		maxPages := 1 + r.Intn(6)
		nPages := 1 + r.Intn(90)
		nReaders := 1 + r.Intn(5)

		pages := make([]*batch.Batch, nPages)
		for i := range pages {
			pages[i] = batch.Of(types.Row{types.NewInt(int64(i))})
		}

		list := New(maxPages)

		type readerResult struct {
			got     []*batch.Batch
			tooLate bool
			early   bool // closed before EOF by its own schedule
			err     error
		}
		results := make([]readerResult, nReaders)
		var wg sync.WaitGroup

		// One reader always attaches before production starts so schedules
		// where every late reader misses the window still read something.
		first, err := list.NewReader()
		if err != nil {
			t.Fatalf("round %d: first reader: %v", round, err)
		}

		read := func(res *readerResult, rd *Reader, closeAfter int, seed int64) {
			rr := rand.New(rand.NewSource(seed))
			for {
				if closeAfter >= 0 && len(res.got) >= closeAfter {
					res.early = true
					rd.Close()
					return
				}
				b, err := rd.Next()
				if err == io.EOF {
					rd.Close()
					return
				}
				if err != nil {
					res.err = err
					rd.Close()
					return
				}
				res.got = append(res.got, b)
				if rr.Intn(4) == 0 {
					runtime.Gosched()
				}
				if rr.Intn(16) == 0 {
					time.Sleep(time.Duration(rr.Intn(50)) * time.Microsecond)
				}
			}
		}

		firstCloseAfter := -1
		if r.Intn(4) == 0 {
			firstCloseAfter = r.Intn(nPages + 1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			read(&results[0], first, firstCloseAfter, int64(round)*77+1)
		}()

		for i := 1; i < nReaders; i++ {
			wg.Add(1)
			go func(i int, delay time.Duration, closeAfter int, seed int64) {
				defer wg.Done()
				time.Sleep(delay)
				rd, err := list.NewReader()
				if errors.Is(err, ErrTooLate) {
					results[i].tooLate = true
					return
				}
				if err != nil {
					results[i].err = err
					return
				}
				read(&results[i], rd, closeAfter, seed)
			}(i,
				time.Duration(r.Intn(300))*time.Microsecond,
				map[bool]int{true: r.Intn(nPages + 1), false: -1}[r.Intn(3) == 0],
				int64(round)*133+int64(i))
		}

		appended := 0
		var produceErr error
		for _, p := range pages {
			if retained := list.Retained(); retained > maxPages {
				t.Fatalf("round %d: %d unreclaimed pages exceed MaxPages %d", round, retained, maxPages)
			}
			if err := list.Append(p); err != nil {
				produceErr = err
				break
			}
			appended++
		}
		list.Close(nil)
		wg.Wait()

		if produceErr != nil && !errors.Is(produceErr, ErrNoConsumers) {
			t.Fatalf("round %d: producer failed with %v, want only ErrNoConsumers", round, produceErr)
		}

		for i, res := range results {
			if res.err != nil {
				t.Fatalf("round %d reader %d: unexpected error %v", round, i, res.err)
			}
			if res.tooLate {
				continue // a closed window is a legal outcome, never a torn view
			}
			// An attached reader saw a prefix of the appended pages — the
			// full stream unless it detached early — in order and identity
			// equal (a prematurely reclaimed page would surface as a wrong
			// or missing batch here).
			if !res.early && len(res.got) != appended {
				t.Fatalf("round %d reader %d: saw %d pages, producer appended %d", round, i, len(res.got), appended)
			}
			if len(res.got) > appended {
				t.Fatalf("round %d reader %d: saw %d pages, only %d appended", round, i, len(res.got), appended)
			}
			for j, b := range res.got {
				if b != pages[j] {
					t.Fatalf("round %d reader %d: page %d is not the appended page (watermark freed or reordered an unread page)", round, i, j)
				}
			}
		}
	}
}
