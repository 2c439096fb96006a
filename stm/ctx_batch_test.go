package stm_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
)

// ctrCodec is a tiny codec for the ctx-variant tests: the payload is a
// little-endian u32 increment applied to one counter Var.
type ctrCodec struct{ counter *stm.Var }

func (c ctrCodec) Encode(payload any) ([]byte, error) {
	n, ok := payload.(uint32)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return binary.LittleEndian.AppendUint32(nil, n), nil
}

func (c ctrCodec) Decode(data []byte) (stm.Body, error) {
	if len(data) != 4 {
		return nil, fmt.Errorf("bad payload length %d", len(data))
	}
	n := uint64(binary.LittleEndian.Uint32(data))
	v := c.counter
	return func(tx stm.Tx, _ int) { tx.Write(v, tx.Read(v)+n) }, nil
}

// TestSubmitEncodedCtx: the encoded single-submit honors its context
// exactly like SubmitCtx — a pre-canceled context refuses the
// submission before an age is assigned, a live one accepts it, and the
// decoded body's effect lands.
func TestSubmitEncodedCtx(t *testing.T) {
	counter := stm.NewVar(0)
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2, Codec: ctrCodec{counter}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ctrCodec{counter}.Encode(uint32(7))
	if err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SubmitEncodedCtx(canceled, data); !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("pre-canceled ctx: got %v, want ErrCanceled", err)
	}
	if got := p.Submitted(); got != 0 {
		t.Fatalf("refused submission consumed an age: %d", got)
	}

	tk, err := p.SubmitEncodedCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := counter.Load(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchCtxCancelDuringBackpressure: a batch parked in the
// backpressure wait is cut short by cancellation — the tickets for the
// prefix that made it in before the park are returned alongside the
// wrapped ErrCanceled, the unposted suffix consumes no ages, and the
// stream keeps working afterwards.
func TestSubmitBatchCtxCancelDuringBackpressure(t *testing.T) {
	p, gate := gatePipeline(t, 2)
	capacity := p.Config().Capacity
	var tks []*stm.Ticket
	// Leave two free slots so the batch below posts a prefix and then
	// parks mid-batch.
	for p.InFlight() < capacity-2 {
		tk, err := p.Submit(func(stm.Tx, int) {})
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	submitted := p.Submitted()

	batch := make([]stm.Body, 5)
	for i := range batch {
		batch[i] = func(stm.Tx, int) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		tks []*stm.Ticket
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, err := p.SubmitBatchCtx(ctx, batch)
		done <- res{out, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("SubmitBatchCtx returned (%d tickets, %v) while the pipeline was full", len(r.tks), r.err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	var r res
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled SubmitBatchCtx did not return")
	}
	if !errors.Is(r.err, stm.ErrCanceled) || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want ErrCanceled wrapping context.Canceled", r.err)
	}
	if len(r.tks) != 2 {
		t.Fatalf("batch returned %d accepted tickets, want the 2 that fit before the park", len(r.tks))
	}
	if got := p.Submitted(); got != submitted+2 {
		t.Fatalf("ages consumed: %d, want %d (prefix only)", got, submitted+2)
	}

	// The accepted prefix commits once the gate opens — an accepted age
	// is never withdrawn.
	close(gate)
	for _, tk := range append(tks, r.tks...) {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// And the stream still accepts a full batch.
	out, err := p.SubmitBatchCtx(context.Background(), batch)
	if err != nil || len(out) != len(batch) {
		t.Fatalf("post-cancel batch: %d tickets, %v", len(out), err)
	}
	for _, tk := range out {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitEncodedBatchCtx: the encoded batch decodes every element
// up front, preserves element order in age order, and a pre-canceled
// context refuses the whole batch with no ages consumed.
func TestSubmitEncodedBatchCtx(t *testing.T) {
	counter := stm.NewVar(0)
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2, Codec: ctrCodec{counter}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	datas := make([][]byte, n)
	var want uint64
	for i := range datas {
		datas[i] = binary.LittleEndian.AppendUint32(nil, uint32(i+1))
		want += uint64(i + 1)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := p.SubmitEncodedBatchCtx(canceled, datas); !errors.Is(err, stm.ErrCanceled) || len(out) != 0 {
		t.Fatalf("pre-canceled batch: %d tickets, %v", len(out), err)
	}
	if got := p.Submitted(); got != 0 {
		t.Fatalf("refused batch consumed ages: %d", got)
	}

	out, err := p.SubmitEncodedBatchCtx(context.Background(), datas)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d tickets, want %d", len(out), n)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Age() != out[i-1].Age()+1 {
			t.Fatalf("batch ages not consecutive: %d then %d", out[i-1].Age(), out[i].Age())
		}
	}
	for _, tk := range out {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := counter.Load(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
