//go:build !race

// The allocation pin runs without the race detector, which adds
// allocations of its own.

package repl

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm/wal"
)

// TestShipApplyAllocs pins a loopback ship→apply of a thousand
// records: the leader's cursor copying their frames into a group, the
// stream write, the follower's read into its ring, the frame rule and
// the hand-over to the runtime — stubbed here to the local-log append
// a pipeline ends in, so what is counted is this package's and
// stm/wal's doing, plus net/http's for a few DATA frames.
//
// None of that is per record: no frame buffer, header array, payload
// copy or cursor record. A run measures about a dozen objects on go1.24 —
// the leader's explicit Sync, the HTTP/2 machinery on both ends — and
// the budget of 100 (0.1 per record) leaves room for another Go
// version's net/http and none for a per-record object, which would add
// a thousand.
func TestShipApplyAllocs(t *testing.T) {
	const (
		records = 1000
		budget  = records / 10
	)
	l := newLeaderLog(t, wal.Options{})
	addr := serveH2C(t, NewShipper(l.w, ShipperOptions{Heartbeat: time.Hour}).Handler())

	caughtUp := make(chan struct{}, 1)
	var want atomic.Uint64 // the frontier the current run ends at
	f, err := StartFollower(FollowerConfig{
		Dir:    t.TempDir(),
		Leader: addr,
		Boot: func(b Boot) (Runtime, error) {
			t.Cleanup(func() { b.Writer.Close() })
			return Runtime{
				Submit: func(pl []byte) error {
					age := b.Writer.Next()
					if err := b.Writer.Append(age, pl); err != nil {
						return err
					}
					if age+1 == want.Load() {
						caughtUp <- struct{}{}
					}
					return nil
				},
				Drain: b.Writer.Sync,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	payload := groupPayload(0)
	run := func() {
		next := l.w.Next()
		want.Store(next + records)
		for age := next; age < next+records; age++ {
			if err := l.w.Append(age, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.w.Sync(); err != nil {
			t.Fatal(err)
		}
		<-caughtUp
	}
	// Enough runs that the follower's ring (a megabyte) comes round.
	n := testing.AllocsPerRun(2*ringSize/(records*int(wal.FrameSize(payload))), run)
	t.Logf("%v allocations per %d records shipped and applied", n, records)
	if n > budget {
		t.Fatalf("ship→apply of %d records: %v allocations, budget %d", records, n, budget)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if carved := f.ring.Mark(); carved < ringSize {
		t.Fatalf("the ring carved %d bytes in all: the runs did not bring it round", carved)
	}
}
