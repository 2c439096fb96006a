//go:build !race

// The allocation pins run without the race detector: in race mode
// sync.Pool drops a quarter of what is put into it, so a scratch slice
// that is free in a normal build costs allocations there.

package serve_test

import (
	"context"
	"testing"

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
// write, the client's read loop, and the wait for the last call.
//
// What this package and stm allocate for it is 5 objects per burst,
// not per transaction: the client's Call block and pointer slice, the
// pipeline's ticket block and pointer slice, and the channel of the
// one Call the test parks on. No frame buffer, queue entry, ticket
// channel or errors.As target. The rest is net/http's HTTP/2 machinery
// on both ends of the loopback connection; the whole round trip
// measures 9 objects per burst on go1.24. The budget of 16 leaves room
// for another Go version's net/http and none for a per-transaction
// object, which would add 8 per burst.
func TestBurstRoundTripAllocs(t *testing.T) {
	const budget = 16
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
}
