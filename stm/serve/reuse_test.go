package serve_test

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/serve"
)

// A checked payload describes itself — a sequence number, then filler
// derived from it — so whoever holds the bytes can tell whether they
// are still the ones the client sent.
const checkedLen = 1 << 10

func checkedPayload(seq uint64) []byte {
	b := make([]byte, checkedLen)
	binary.LittleEndian.PutUint64(b, seq)
	for i := 8; i < len(b); i++ {
		b[i] = byte(seq) + byte(i)
	}
	return b
}

func checkedSeq(b []byte) (seq uint64, intact bool) {
	if len(b) != checkedLen {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(b)
	for i := 8; i < len(b); i++ {
		if b[i] != byte(seq)+byte(i) {
			return seq, false
		}
	}
	return seq, true
}

// checkedCodec keeps the payload bytes it was handed, as the
// SubmitEncoded contract allows until the ticket resolves, and checks
// them at decode and at every execution; sequence 0's body holds the
// commit frontier until gate closes.
type checkedCodec struct {
	counter *stm.Var
	gate    chan struct{}
	corrupt *atomic.Int64
}

func (c checkedCodec) Encode(payload any) ([]byte, error) { return payload.([]byte), nil }
func (c checkedCodec) Decode(data []byte) (stm.Body, error) {
	seq, intact := checkedSeq(data)
	if !intact {
		c.corrupt.Add(1)
	}
	return func(tx stm.Tx, _ int) {
		if seq == 0 {
			<-c.gate
		}
		if now, intact := checkedSeq(data); !intact || now != seq {
			c.corrupt.Add(1)
		}
		tx.Write(c.counter, tx.Read(c.counter)+1)
	}, nil
}

// checkedLog is the commit-time reader: the pipeline hands each
// payload to the log as the commit frontier passes its age.
type checkedLog struct {
	mu      sync.Mutex
	next    uint64
	corrupt *atomic.Int64
}

func (l *checkedLog) Append(age uint64, payload []byte) error {
	// One connection from age 0: the client's sequence is the age.
	if seq, intact := checkedSeq(payload); !intact || seq != age {
		l.corrupt.Add(1)
	}
	l.mu.Lock()
	l.next = age + 1
	l.mu.Unlock()
	return nil
}
func (l *checkedLog) Notify(func(uint64, error)) {}
func (l *checkedLog) Sync() error                { return nil }
func (l *checkedLog) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// TestRequestBufferOutlivesItsTicket holds the commit frontier while
// the client sends several times the connection arena's worth of
// requests. None of their tickets can resolve, so none of their
// buffers may be handed out again: the codec checks its bytes at
// decode and at every execution, the log at commit.
func TestRequestBufferOutlivesItsTicket(t *testing.T) {
	const (
		total = 600 // x 1 KiB: nine arenas
		held  = 256 // in flight behind the gate before it opens: four arenas
		burst = 8
	)
	var corrupt atomic.Int64
	gate := make(chan struct{})
	log := &checkedLog{corrupt: &corrupt}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OWB,
		Workers:   2,
		Capacity:  2 * held,
		Codec:     checkedCodec{counter: stm.NewVar(0), gate: gate, corrupt: &corrupt},
		WAL:       log,
	})
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

	var calls []*serve.Call
	sent := make(chan error, 1)
	go func() {
		for seq := uint64(0); seq < total; seq += burst {
			payloads := make([][]byte, burst)
			for i := range payloads {
				payloads[i] = checkedPayload(seq + uint64(i))
			}
			cs, err := c.SubmitMany(payloads)
			if err != nil {
				sent <- err
				return
			}
			calls = append(calls, cs...)
		}
		sent <- nil
	}()

	for deadline := time.Now().Add(20 * time.Second); p.Submitted() < held; {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("only %d submissions reached the pipeline", p.Submitted())
		}
		time.Sleep(time.Millisecond)
	}
	if p.Committed() != 0 {
		t.Fatalf("%d transactions committed behind a held frontier", p.Committed())
	}
	close(gate)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		age, err := call.Wait()
		if err != nil || age != uint64(i) {
			t.Fatalf("call %d: age %d, err %v", i, age, err)
		}
	}
	if got := log.Durable(); got != total {
		t.Fatalf("log holds %d records, want %d", got, total)
	}
	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d reads found a request buffer changed while its ticket was unresolved", n)
	}
}

// TestTicketSlotOutlivesItsTicket is the ticket ring's twin of the
// test above. It holds the commit frontier until more entries are in
// flight than the stream's ticket ring has slots — one per queue
// entry, four batches — so ingress must give the excess heap tickets
// instead of a slot whose ticket has not resolved. Every response must
// then carry its own request's age, and a slot handed out while still
// in flight would instead be refused by the pipeline.
func TestTicketSlotOutlivesItsTicket(t *testing.T) {
	const (
		maxBatch = 8
		slots    = 4 * maxBatch
		total    = 400
		burst    = 8
	)
	var corrupt atomic.Int64
	gate := make(chan struct{})
	log := &checkedLog{corrupt: &corrupt}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OWB,
		Workers:   2,
		Capacity:  256,
		Codec:     checkedCodec{counter: stm.NewVar(0), gate: gate, corrupt: &corrupt},
		WAL:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := serve.NewServer(serve.Config{Pipeline: p, MaxBatch: maxBatch})
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

	var calls []*serve.Call
	sent := make(chan error, 1)
	go func() {
		for seq := uint64(0); seq < total; seq += burst {
			payloads := make([][]byte, burst)
			for i := range payloads {
				payloads[i] = checkedPayload(seq + uint64(i))
			}
			cs, err := c.SubmitMany(payloads)
			if err != nil {
				sent <- err
				return
			}
			calls = append(calls, cs...)
		}
		sent <- nil
	}()

	// The writer waits on entry 0 and the queue holds the next slots
	// entries, so ingress submits at least one more before it parks —
	// unless the pipeline refuses it, which the calls then report.
	var stalled uint64
	for deadline := time.Now().Add(10 * time.Second); p.Submitted() <= slots+1; {
		if time.Now().After(deadline) {
			stalled = p.Submitted()
			break
		}
		time.Sleep(time.Millisecond)
	}
	if p.Committed() != 0 {
		t.Fatalf("%d transactions committed behind a held frontier", p.Committed())
	}
	close(gate)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		age, err := call.Wait()
		if err != nil || age != uint64(i) {
			t.Fatalf("call %d: age %d, err %v", i, age, err)
		}
	}
	if stalled != 0 {
		t.Fatalf("only %d submissions reached the pipeline behind the held frontier", stalled)
	}
	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d reads found a request buffer changed while its ticket was unresolved", n)
	}
}
