package repl

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

// A checked payload describes itself — its age, then filler derived
// from it — so whoever holds the bytes can tell whether they are still
// the ones the leader logged.
const checkedLen = 1 << 10

func checkedPayload(age uint64) []byte {
	b := make([]byte, checkedLen)
	binary.LittleEndian.PutUint64(b, age)
	for i := 8; i < len(b); i++ {
		b[i] = byte(age) + byte(i)
	}
	return b
}

func checkedAge(b []byte) (age uint64, intact bool) {
	if len(b) != checkedLen {
		return 0, false
	}
	age = binary.LittleEndian.Uint64(b)
	for i := 8; i < len(b); i++ {
		if b[i] != byte(age)+byte(i) {
			return age, false
		}
	}
	return age, true
}

// checkedCodec keeps the payload bytes it was handed, as the
// SubmitEncoded contract allows until commit, and checks them at
// decode and at every execution; age 0's body holds the commit
// frontier until gate closes.
type checkedCodec struct {
	counter *stm.Var
	gate    chan struct{}
	corrupt *atomic.Int64
}

func (c checkedCodec) Encode(payload any) ([]byte, error) { return payload.([]byte), nil }
func (c checkedCodec) Decode(data []byte) (stm.Body, error) {
	want, intact := checkedAge(data)
	if !intact {
		c.corrupt.Add(1)
	}
	return func(tx stm.Tx, age int) {
		if age == 0 {
			<-c.gate
		}
		if now, intact := checkedAge(data); !intact || now != want || now != uint64(age) {
			c.corrupt.Add(1)
		}
		tx.Write(c.counter, tx.Read(c.counter)+1)
	}, nil
}

// checkedLog is the follower's local log with a reader in front of it:
// the pipeline hands each payload over as the commit frontier passes
// its age, which is the last moment the receive buffer must be intact.
type checkedLog struct {
	*wal.Writer
	corrupt *atomic.Int64
}

func (l checkedLog) Append(age uint64, payload []byte) error {
	return l.AppendMore(age, payload, false)
}

func (l checkedLog) AppendMore(age uint64, payload []byte, more bool) error {
	if got, intact := checkedAge(payload); !intact || got != age {
		l.corrupt.Add(1)
	}
	return l.Writer.AppendMore(age, payload, more)
}

// TestFollowerBufferOutlivesItsRecord holds the follower's commit
// frontier while the leader ships several times the receive ring's
// worth of records. None of them can reach the follower's log, so none
// of their buffers may be handed out again: the codec checks its bytes
// at decode and at every execution, the log at append. Then the
// frontier is let go and the ring has to recycle behind it.
func TestFollowerBufferOutlivesItsRecord(t *testing.T) {
	const (
		total = 4 * ringSize / checkedLen // four rings
		held  = 3 * ringSize / checkedLen // in flight before the gate opens
	)
	l := newLeaderLog(t, wal.Options{})
	for age := uint64(0); age < total; age++ {
		if err := l.w.Append(age, checkedPayload(age)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.w.Sync(); err != nil {
		t.Fatal(err)
	}
	addr := serveHTTP(t, NewShipper(l.w, ShipperOptions{}).Handler())

	var corrupt atomic.Int64
	gate := make(chan struct{})
	var p *stm.Pipeline
	var fw *wal.Writer
	f, err := StartFollower(FollowerConfig{
		Dir:    t.TempDir(),
		Leader: addr,
		Boot: func(b Boot) (Runtime, error) {
			fw = b.Writer
			var err error
			p, err = stm.NewPipeline(stm.Config{
				Algorithm: stm.OWB,
				Workers:   2,
				Capacity:  2 * total,
				Codec:     checkedCodec{counter: stm.NewVar(0), gate: gate, corrupt: &corrupt},
				WAL:       checkedLog{b.Writer, &corrupt},
			})
			if err != nil {
				return Runtime{}, err
			}
			return Runtime{
				Submit: func(pl []byte) error { _, err := p.SubmitEncoded(pl); return err },
				Drain:  p.Drain,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	defer p.Close()
	defer f.Close()

	for deadline := time.Now().Add(20 * time.Second); p.Submitted() < held; {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("only %d records reached the pipeline (follower error: %v)", p.Submitted(), f.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if p.Committed() != 0 || fw.Next() != 0 {
		t.Fatalf("%d transactions committed, %d appended, behind a held frontier", p.Committed(), fw.Next())
	}
	close(gate)
	eventually(t, "catch-up", func() bool { return f.Frontier() == total })
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	// A second wave, now that the ring is being released behind the
	// frontier: it must come round to memory the first wave used. It is
	// shipped half a ring at a time, each chunk applied and logged before
	// the next is appended. Appended all at once, it would outrun a
	// follower on one P, fill the ring with groups not yet logged, and
	// send the rest to the heap by design: the count below would measure
	// scheduling, not recycling. The follower releases a group before
	// the read after it reached the log, so a chunk must fit beside its
	// predecessor.
	const chunk = ringSize / checkedLen / 2
	for start := uint64(total); start < 2*total; start += chunk {
		for age := start; age < start+chunk; age++ {
			if err := l.w.Append(age, checkedPayload(age)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.w.Sync(); err != nil {
			t.Fatal(err)
		}
		eventually(t, "catch-up", func() bool { return f.Frontier() == start+chunk })
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	if got := fw.Next(); got != 2*total {
		t.Fatalf("follower log holds %d records, want %d", got, 2*total)
	}
	if carved := f.ring.Mark(); carved < 2*ringSize {
		t.Fatalf("the ring carved %d bytes in all: it is not being recycled", carved)
	}
	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d reads found a receive buffer changed before its record reached the log", n)
	}
}
