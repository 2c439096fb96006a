package serve_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/serve"
)

// gateCodec decodes 'b' to a body that blocks until gate is closed —
// the commit frontier parks behind it — and anything else to an
// increment of n.
type gateCodec struct {
	n    *stm.Var
	gate chan struct{}
}

func (gateCodec) Encode(payload any) ([]byte, error) { return payload.([]byte), nil }
func (c gateCodec) Decode(data []byte) (stm.Body, error) {
	if len(data) == 1 && data[0] == 'b' {
		return func(tx stm.Tx, _ int) {
			<-c.gate
			tx.Write(c.n, tx.Read(c.n)+1)
		}, nil
	}
	return func(tx stm.Tx, _ int) { tx.Write(c.n, tx.Read(c.n)+1) }, nil
}

// startGateServer serves a one-worker pipeline at its minimum Capacity
// whose 'b' payloads park the frontier until release runs. Cleanup
// releases the gate, shuts the server down and closes the pipeline.
func startGateServer(t *testing.T) (srv *serve.Server, p *stm.Pipeline, release func()) {
	t.Helper()
	gate := make(chan struct{})
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OWB,
		Workers:   1,
		Capacity:  1, // raised to the floor, Window+Workers+8
		Codec:     gateCodec{n: stm.NewVar(0), gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err = serve.NewServer(serve.Config{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	open := true
	release = func() {
		if open {
			open = false
			close(gate)
		}
	}
	t.Cleanup(func() {
		release()
		shutdownNow(srv)
		p.Close()
	})
	return srv, p, release
}

// within fails the test unless ch delivers before d.
func within[T any](t *testing.T, what string, d time.Duration, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(d):
		t.Fatalf("%s: nothing after %v", what, d)
		panic("unreachable")
	}
}

// quiet fails the test if ch delivers within d.
func quiet[T any](t *testing.T, what string, d time.Duration, ch <-chan T) {
	t.Helper()
	select {
	case v := <-ch:
		t.Fatalf("%s returned early: %v", what, v)
	case <-time.After(d):
	}
}

// waitCall resolves a call on a goroutine of its own, so a test can
// bound how long it takes.
func waitCall(call *serve.Call) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := call.Wait()
		ch <- err
	}()
	return ch
}

// TestShutdownAnswersOpenStream pins Shutdown's wait. net/http does not
// track a connection its handler took over, so the Server must: calls
// in flight when Shutdown starts are answered, and Shutdown returns only
// once the client has half-closed.
func TestShutdownAnswersOpenStream(t *testing.T) {
	srv, _, release := startGateServer(t)
	c, err := serve.Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer release() // before Close, which waits for the stream's answers
	calls, err := c.SubmitMany([][]byte{{'b'}, {'x'}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	quiet(t, "Shutdown with calls in flight", 50*time.Millisecond, done)

	release()
	for i, call := range calls {
		if err := within(t, "in-flight call", 5*time.Second, waitCall(call)); err != nil {
			t.Fatalf("call %d in flight at Shutdown: %v", i, err)
		}
	}
	quiet(t, "Shutdown before the client half-closed", 50*time.Millisecond, done)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "Shutdown after the half-close", 5*time.Second, done); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDeadlineClosesStreams pins the hard stop: once Shutdown's
// ctx expires the streams still open are closed, so a client's pending
// call fails instead of waiting for a commit that is not coming.
func TestShutdownDeadlineClosesStreams(t *testing.T) {
	srv, _, release := startGateServer(t)
	c, err := serve.Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer release() // before Close, which waits for the stream's answers
	call, err := c.Submit([]byte{'b'})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want its ctx's deadline", err)
	}
	if err := within(t, "the pending call", 5*time.Second, waitCall(call)); err == nil {
		t.Fatal("pending call succeeded on a stream Shutdown closed")
	}
}

// TestVanishedClientParkedAtCapacity pins the stream context. A client
// resets its connection while ingress is parked at the pipeline's
// Capacity behind a frontier that does not move. The response writer
// finds the client gone when it answers an expired deadline; that must
// cancel the parked submission, so the stream's goroutines end without
// waiting for the frontier.
func TestVanishedClientParkedAtCapacity(t *testing.T) {
	srv, p, _ := startGateServer(t)
	if _, err := p.SubmitEncoded([]byte{'b'}); err != nil {
		t.Fatal(err)
	}
	// Leave room for one request only.
	capacity := p.Config().Capacity
	for p.InFlight() < capacity-1 {
		if _, err := p.SubmitEncoded([]byte{'x'}); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, conn)
	// The deadline frame takes the last slot; the plain one parks.
	var frames []byte
	frames = appendRawRequest(frames, 1, 100, []byte{'x'})
	frames = appendRawRequest(frames, 2, 0, []byte{'x'})
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	for p.InFlight() < capacity {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // ingress reaches the second frame
	conn.(*net.TCPConn).SetLinger(0)  // close with a reset: the client is gone
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the stream opened:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitWithoutUpgrade pins the refusal a plain POST gets: 426,
// naming the protocol to upgrade to.
func TestSubmitWithoutUpgrade(t *testing.T) {
	srv, _, _ := startGateServer(t)
	resp, err := http.Post("http://"+srv.Addr().String()+"/submit", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("plain POST /submit answered %s, want 426", resp.Status)
	}
	if got := resp.Header.Get("Upgrade"); got != "ostm-submit" {
		t.Fatalf("426 names Upgrade %q, want ostm-submit", got)
	}
}

// TestHandRolledClient speaks the protocol from its documentation
// alone — the request bytes, the 101 answer, one request frame and one
// response frame — as a client in another language would.
func TestHandRolledClient(t *testing.T) {
	srv, _, _ := startGateServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := handshake(t, conn)

	if _, err := conn.Write(appendRawRequest(nil, 42, 0, []byte{'x'})); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var head [4 + 8 + 8 + 1]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(head[0:4])
	id := binary.LittleEndian.Uint64(head[4:12])
	age := binary.LittleEndian.Uint64(head[12:20])
	if n != 17 || id != 42 || age != 0 || head[20] != byte(serve.CodeOK) {
		t.Fatalf("response frame len=%d id=%d age=%d code=%d, want 17, 42, 0, OK", n, id, age, head[20])
	}
	// Everything answered, the server closes its side too.
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the last response: %d bytes, %v; want a clean EOF", len(rest), err)
	}
}

// handshake sends the upgrade request the wire documentation gives and
// checks the 101 answer, returning a reader positioned at the first
// response frame.
func handshake(t *testing.T, conn net.Conn) *bufio.Reader {
	t.Helper()
	req := "POST /submit HTTP/1.1\r\n" +
		"Host: " + conn.RemoteAddr().String() + "\r\n" +
		"Connection: Upgrade\r\n" +
		"Upgrade: ostm-submit\r\n" +
		"\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if status != "HTTP/1.1 101 Switching Protocols\r\n" {
		t.Fatalf("status line %q, want 101 Switching Protocols", status)
	}
	upgraded := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
		upgraded = upgraded || strings.EqualFold(strings.TrimSpace(line), "Upgrade: ostm-submit")
	}
	if !upgraded {
		t.Fatal("101 answer without Upgrade: ostm-submit")
	}
	return br
}

// appendRawRequest appends a request frame laid out by hand:
// u32 len | u64 id | u32 deadline_ms | payload.
func appendRawRequest(dst []byte, id uint64, deadlineMS uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(12+len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, deadlineMS)
	return append(dst, payload...)
}
