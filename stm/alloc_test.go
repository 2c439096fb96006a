//go:build !race

// The allocation pins run without the race detector: in race mode
// sync.Pool drops a quarter of what is put into it, so a scratch slice
// that is free in a normal build costs allocations there.

package stm_test

import (
	"runtime"
	"testing"

	"github.com/orderedstm/ostm/stm"
)

// spinUntilResolved waits without parking: a parked waiter makes the
// ticket's channel, which the allocation pins below must not count.
func spinUntilResolved(tk *stm.Ticket) error {
	for {
		if err, resolved := tk.Err(); resolved {
			return err
		}
		runtime.Gosched()
	}
}

// fixedCodec decodes every payload to one prebuilt body, so a pin
// over the encoded submit path counts the pipeline's allocations only.
type fixedCodec struct{ body stm.Body }

func (fixedCodec) Encode(any) ([]byte, error)        { return nil, nil }
func (c fixedCodec) Decode([]byte) (stm.Body, error) { return c.body, nil }

// TestSubmitAllocs pins the acknowledgement path's allocation count:
// Submit costs the ticket and nothing else (no channel, no queue
// entry), and a batch costs one ticket block and the slice of
// pointers into it however many transactions it carries.
func TestSubmitAllocs(t *testing.T) {
	counter := stm.NewVar(0)
	body := func(tx stm.Tx, _ int) { tx.Write(counter, tx.Read(counter)+1) }
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2, Codec: fixedCodec{body}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if n := testing.AllocsPerRun(2000, func() {
		tk, err := p.Submit(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := spinUntilResolved(tk); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Submit: %v allocations per transaction, want 1 (the ticket)", n)
	}

	burst := make([][]byte, 8)
	for i := range burst {
		burst[i] = []byte{byte(i)}
	}
	if n := testing.AllocsPerRun(500, func() {
		tks, err := p.SubmitEncodedBatch(burst)
		if err != nil {
			t.Fatal(err)
		}
		// Commits are in age order: the last ticket resolves last.
		if err := spinUntilResolved(tks[len(tks)-1]); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("SubmitEncodedBatch of %d: %v allocations per batch, want at most 2 beyond the Codec's own (ticket block, pointer slice)", len(burst), n)
	}
}
