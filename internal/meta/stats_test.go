package meta

import (
	"fmt"
	"sync"
	"testing"
)

// TestBreakdownCategories pins every Figure 5 category to its causes:
// read-after-write folds RAW and killed-reader, "other" absorbs the
// non-paper causes (order kills, busy fallbacks, unattributed), and
// each remaining category maps one-to-one.
func TestBreakdownCategories(t *testing.T) {
	var s Stats
	s.Abort(CauseRAW)          // read-after-write
	s.Abort(CauseKilledReader) // read-after-write
	s.Abort(CauseWAW)          // write-after-write
	s.Abort(CauseCascade)      // cascade
	s.Abort(CauseCascade)      // cascade
	s.Abort(CauseLockedWrite)  // locked-write
	s.Abort(CauseValidation)   // validation
	s.Abort(CauseOrder)        // other
	s.Abort(CauseBusy)         // other
	s.Abort(CauseNone)         // other
	b := s.View().Breakdown()
	want := map[string]float64{
		"read-after-write":  2.0 / 10,
		"write-after-write": 1.0 / 10,
		"cascade":           2.0 / 10,
		"locked-write":      1.0 / 10,
		"validation":        1.0 / 10,
		"other":             3.0 / 10,
	}
	if len(b) != len(want) {
		t.Fatalf("breakdown has %d categories, want %d: %v", len(b), len(want), b)
	}
	for k, w := range want {
		if got := b[k]; got != w {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
}

// TestStatsConcurrentView hammers per-worker cells and the default
// cell from many goroutines while another takes views continuously.
// Run under -race it proves the record and view paths are data-race
// free; no counter ever goes backwards between two views, and the
// final view counts every event exactly once.
func TestStatsConcurrentView(t *testing.T) {
	const (
		workers = 8
		perG    = 20000
	)
	var s Stats
	stop := make(chan struct{})
	viewErr := make(chan error, 1)
	go func() {
		var last StatsView
		for {
			select {
			case <-stop:
				viewErr <- nil
				return
			default:
			}
			v := s.View()
			if v.Starts < last.Starts || v.Commits < last.Commits || v.Retries < last.Retries || v.TotalAborts() < last.TotalAborts() {
				viewErr <- fmt.Errorf("view went backwards: %+v after %+v", v, last)
				return
			}
			last = v
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.NewCell()
			for i := 0; i < perG; i++ {
				c.Start()
				if i%2 == 0 {
					c.Commit()
				} else {
					c.Abort(Cause(1 + i%int(NumCauses-1)))
					c.Retry()
				}
				if i%64 == 0 {
					s.Quiesce() // default cell, concurrently with the viewer
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-viewErr; err != nil {
		t.Fatal(err)
	}
	total := s.View()
	if want := uint64(workers * perG); total.Starts != want {
		t.Fatalf("starts = %d, want %d", total.Starts, want)
	}
	if want := uint64(workers * perG / 2); total.Commits != want {
		t.Fatalf("commits = %d, want %d", total.Commits, want)
	}
	if want := uint64(workers * perG / 2); total.TotalAborts() != want || total.Retries != want {
		t.Fatalf("aborts = %d retries = %d, want %d", total.TotalAborts(), total.Retries, want)
	}
}
