package core

import (
	"testing"

	"github.com/orderedstm/ostm/internal/ordertest"
)

// TestOULMatchesSequentialFold drives plain OUL from several
// goroutines on recycled descriptors, committing each age once it is
// reachable, and checks every transaction's result against the
// sequential fold. The write-heavy shape writes each variable twice,
// so a writer re-enters a lock it already owns and must publish the
// value before it scans the visible readers.
func TestOULMatchesSequentialFold(t *testing.T) {
	for _, s := range []ordertest.Shape{ordertest.WriteHeavy, ordertest.Audits, ordertest.HotReads} {
		t.Run(s.Name(), func(t *testing.T) {
			c := cfg()
			ordertest.MatchesSequentialFold(t, NewOUL(c), c.Order, s, 50000/ordertest.RaceScale)
		})
	}
}

// TestOULReaderSkipsHigherAgeWrites: a reader aborts a live higher-age
// writer instead of reading its value, loads before it re-checks the
// writer word, and a rollback leaves the word changed, so the re-check
// cannot pass on a value that was rolled back.
func TestOULReaderSkipsHigherAgeWrites(t *testing.T) {
	ordertest.ReaderSkipsHigherAgeWrites(t, NewOUL(cfg()), 500000/ordertest.RaceScale)
}

// TestOWBMatchesSequentialFold drives OWB the same way. OWB buffers
// its writes and exposes them at TryCommit, so a higher-age reader can
// consume a value whose writer has not yet committed; the oracle
// checks every such forward, and every cascade that revokes one, on
// recycled descriptors.
func TestOWBMatchesSequentialFold(t *testing.T) {
	for _, s := range []ordertest.Shape{ordertest.WriteHeavy, ordertest.Audits, ordertest.HotReads} {
		t.Run(s.Name(), func(t *testing.T) {
			c := cfg()
			ordertest.MatchesSequentialFold(t, NewOWB(c), c.Order, s, 50000/ordertest.RaceScale)
		})
	}
}

// TestOWBReaderSkipsHigherAgeWrites: a reader aborts a higher-age
// writer that exposed its value (W2→R1) instead of consuming it, and
// the writer's rollback restores the value before it releases the
// lock.
func TestOWBReaderSkipsHigherAgeWrites(t *testing.T) {
	ordertest.ReaderSkipsHigherAgeWrites(t, NewOWB(cfg()), 500000/ordertest.RaceScale)
}
