//go:build !race

// The allocation pins run without the race detector: in race mode
// sync.Pool drops a quarter of what is put into it, so a scratch slice
// that is free in a normal build costs allocations there.

package serve_test

import (
	"context"
	"testing"
	"unsafe"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/serve"
)

// fixedCodec decodes every payload to one prebuilt body, so the pin
// below counts the wire's and the pipeline's allocations only.
type fixedCodec struct{ body stm.Body }

func (fixedCodec) Encode(any) ([]byte, error)        { return nil, nil }
func (c fixedCodec) Decode([]byte) (stm.Body, error) { return c.body, nil }

func TestCodeOfNilAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		if serve.CodeOf(nil) != serve.CodeOK {
			t.Fatal("CodeOf(nil) != CodeOK")
		}
	}); n != 0 {
		t.Fatalf("CodeOf(nil): %v allocations, want 0", n)
	}
}

// TestBurstRoundTripAllocs pins a loopback round trip of an 8-frame
// burst: SubmitMany, ingress batching, commit, the coalesced response
// write, the client's read loop, and the wait for the last call; then
// that of a single Submit.
//
// The round trip measures 2 objects per burst on go1.24, not per
// transaction, both the client's: SubmitMany's Call block and pointer
// slice. The server's tickets come from its per-stream ring, so the
// pipeline makes no ticket block and no pointer slice; there is no
// frame buffer, queue entry, ticket channel or errors.As target
// either, and a Call the test parks on borrows a pooled channel. Both
// ends read and write the TCP connection directly, so net/http adds
// nothing once the stream is open (over HTTP/2 it added 2 per burst).
// The budget of 4 is that count plus 2, and leaves no room for a
// per-transaction object, which would add 8 per burst.
func TestBurstRoundTripAllocs(t *testing.T) {
	const budget = 4
	counter := stm.NewVar(0)
	body := func(tx stm.Tx, _ int) { tx.Write(counter, tx.Read(counter)+1) }
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2, Codec: fixedCodec{body}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := serve.NewServer(serve.Config{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(srv)
	c, err := serve.Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	burst := make([][]byte, 8)
	for i := range burst {
		burst[i] = []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}
	}
	n := testing.AllocsPerRun(500, func() {
		calls, err := c.SubmitMany(burst)
		if err != nil {
			t.Fatal(err)
		}
		// Responses arrive in order: the last call resolves last.
		if _, err := calls[len(calls)-1].Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per %d-frame burst", n, len(burst))
	if n > budget {
		t.Fatalf("round trip of a %d-frame burst: %v allocations, budget %d", len(burst), n, budget)
	}

	// A single Submit shares SubmitMany's write path through arrays on
	// the stack: its Call is the round trip's one object.
	one := burst[0]
	if n := testing.AllocsPerRun(2000, func() {
		call, err := c.Submit(one)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := call.Wait(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("round trip of one Submit: %v allocations, want 1 (the Call)", n)
	}
}

// TestCallSize pins a Call at 32 bytes: a latch, the age and one
// pointer to a failure. The request id is the call's position in the
// client's pending ring, not a field.
func TestCallSize(t *testing.T) {
	if n := unsafe.Sizeof(serve.Call{}); n > 32 {
		t.Fatalf("serve.Call is %d bytes, want at most 32", n)
	}
}
