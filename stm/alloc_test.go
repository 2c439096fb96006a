//go:build !race

// The allocation pins run without the race detector: in race mode
// sync.Pool drops a quarter of what is put into it, so a scratch slice
// that is free in a normal build costs allocations there.

package stm_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

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
// Submit and SubmitEncoded cost the ticket and nothing else (no
// channel, no queue entry, no batch scratch); SubmitFunc costs the
// TicketOf and its body; a batch of requests that bring their own
// tickets, appended into a slice the caller keeps, costs nothing at
// all; and a batch without them costs one ticket block however many
// transactions it carries.
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
	// The stream's own path: the Codec here allocates nothing, so the
	// ticket is all there is.
	payload := []byte{1}
	if n := testing.AllocsPerRun(2000, func() {
		tk, err := p.SubmitEncoded(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := spinUntilResolved(tk); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("SubmitEncoded: %v allocations per transaction, want 1 beyond the Codec's own (the ticket)", n)
	}
	// A TicketOf embeds its Ticket, so the pair is one object; the body
	// the stream runs is the TicketOf's bound method, the second.
	fn := func(tx stm.Tx, _ int) uint64 {
		v := tx.Read(counter) + 1
		tx.Write(counter, v)
		return v
	}
	if n := testing.AllocsPerRun(2000, func() {
		tk, err := stm.SubmitFunc(context.Background(), p, fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := spinUntilResolved(&tk.Ticket); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("SubmitFunc: %v allocations per transaction, want 2 (the TicketOf, and its bound run method the stream holds as the body)", n)
	}

	tickets := make([]stm.Ticket, 8)
	burst := make([]stm.Request, len(tickets))
	for i := range burst {
		burst[i] = stm.Request{Encoded: []byte{byte(i)}, Ticket: &tickets[i]}
	}
	tks := make([]*stm.Ticket, 0, len(burst))
	batch := func() {
		var err error
		if tks, err = p.SubmitBatch(context.Background(), burst, tks[:0]); err != nil {
			t.Fatal(err)
		}
		// Commits are in age order: the last ticket resolves last.
		if err := spinUntilResolved(tks[len(tks)-1]); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, batch); n != 0 {
		t.Errorf("SubmitBatch of %d encoded requests with their own tickets: %v allocations per batch, want 0 beyond the Codec's own", len(burst), n)
	}
	for i := range burst {
		burst[i].Ticket = nil
	}
	if n := testing.AllocsPerRun(500, batch); n > 1 {
		t.Errorf("SubmitBatch of %d encoded requests: %v allocations per batch, want at most 1 beyond the Codec's own (the ticket block)", len(burst), n)
	}
}

// TestTicketSize pins the ticket at 32 bytes: an age, a latch and one
// pointer to a failure, so a commit writes no error.
func TestTicketSize(t *testing.T) {
	if n := unsafe.Sizeof(stm.Ticket{}); n > 32 {
		t.Fatalf("stm.Ticket is %d bytes, want at most 32", n)
	}
}
