package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/orderedstm/ostm/internal/latch"
)

// Call is one in-flight request on a Client: a future resolving when
// the server's response frame for it arrives (i.e. when the
// transaction committed, or was refused/canceled).
type Call struct {
	id   uint64
	done latch.Latch
	age  uint64 // age and err are written once, before done resolves
	err  error
}

// Done is closed when the response arrived.
func (c *Call) Done() <-chan struct{} { return c.done.Done() }

// Wait blocks for the response and returns the assigned global age
// and the reconstructed typed error (nil on commit; else an *Error
// matching the engine sentinels through errors.Is).
func (c *Call) Wait() (uint64, error) {
	c.done.Wait()
	return c.age, c.err
}

// resolve completes the call; whoever holds the call after taking it
// out of the pending ring is its only resolver.
func (c *Call) resolve(age uint64, err error) {
	c.age, c.err = age, err
	c.done.Resolve()
}

// Age returns the assigned global age; valid after Done.
func (c *Call) Age() uint64 { return c.age }

// Err returns the call's error; valid after Done.
func (c *Call) Err() error { return c.err }

// callRing is a connection's unanswered calls, indexed by id. Ids are
// a dense per-connection counter and the server answers in order, so
// the unanswered ids are a window [base, next) that a ring holds with
// no per-call bookkeeping; it doubles when the window outgrows it.
type callRing struct {
	slots      []*Call // length is a power of two
	base, next uint64
}

// put registers c, whose id is at or above every id put before.
func (r *callRing) put(c *Call) {
	if len(r.slots) == 0 {
		r.slots = make([]*Call, 64)
	}
	if r.base == r.next {
		r.base = c.id // empty window: restart it here
	}
	for c.id-r.base >= uint64(len(r.slots)) {
		grown := make([]*Call, 2*len(r.slots))
		for id := r.base; id < r.next; id++ {
			grown[id&uint64(len(grown)-1)] = r.slots[id&uint64(len(r.slots)-1)]
		}
		r.slots = grown
	}
	r.slots[c.id&uint64(len(r.slots)-1)] = c
	r.next = c.id + 1
}

// take removes and returns the call registered under id, nil if there
// is none (answered already, or never sent on this connection).
func (r *callRing) take(id uint64) *Call {
	if id < r.base || id >= r.next {
		return nil
	}
	mask := uint64(len(r.slots) - 1)
	c := r.slots[id&mask]
	r.slots[id&mask] = nil
	for r.base < r.next && r.slots[r.base&mask] == nil {
		r.base++
	}
	return c
}

// Client is one wire connection: a single full-duplex HTTP/2 stream
// carrying a request frame stream out and the commit-order response
// stream back. Submit may be called from any number of goroutines;
// frames are written in Submit call order, which is the order the
// server submits (and therefore commits and answers) them. Close
// half-closes the stream and waits for the remaining responses.
type Client struct {
	pw     *io.PipeWriter
	resp   *http.Response
	tr     *http.Transport
	cancel context.CancelFunc

	wmu     sync.Mutex // serializes frame writes and id assignment
	nextID  uint64
	wbuf    []byte
	closed  bool
	writeEr error

	rmu        sync.Mutex
	pending    callRing
	retained   map[uint64][]byte // payload copies by id; nil unless WithNotLeaderRedial
	lastAge    uint64
	haveAge    bool
	violations int

	readDone chan struct{}
	readErr  error

	rd *redirector // nil unless WithNotLeaderRedial
}

// Dial opens a connection to a Server at addr ("host:port"). ctx
// bounds the dial and header round-trip only; the stream itself lives
// until Close.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	var dc dialCfg
	for _, o := range opts {
		o(&dc)
	}
	pr, pw := io.Pipe()
	tr := &http.Transport{}
	// Prior-knowledge cleartext HTTP/2: only the unencrypted h2
	// protocol is enabled, so the transport speaks h2c directly on
	// the TCP connection (no Upgrade dance, which couldn't carry a
	// streaming request body anyway).
	tr.Protocols = new(http.Protocols)
	tr.Protocols.SetUnencryptedHTTP2(true)
	cctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, "http://"+addr+"/submit", pr)
	if err != nil {
		cancel()
		return nil, err
	}
	// The caller's ctx can abort the dial; once the response headers
	// are in, the stream detaches from it and is owned by Close.
	stop := context.AfterFunc(ctx, cancel)
	resp, err := tr.RoundTrip(req)
	stop()
	if err != nil {
		cancel()
		pr.Close()
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		pr.Close()
		return nil, fmt.Errorf("serve: dial %s: server answered %s", addr, resp.Status)
	}
	c := &Client{
		pw:       pw,
		resp:     resp,
		tr:       tr,
		cancel:   cancel,
		readDone: make(chan struct{}),
	}
	if dc.redial {
		c.rd = newRedirector(addr, dc.candidates)
		c.retained = make(map[uint64][]byte)
	}
	go c.readLoop()
	return c, nil
}

// Submit sends payload (the pipeline Codec's wire form) and returns
// its Call.
func (c *Client) Submit(payload []byte) (*Call, error) {
	return c.submit(payload, 0)
}

// SubmitTimeout is Submit with a per-request deadline enforced
// server-side: if the transaction has not committed within d, the
// response resolves early with CodeCanceled (the submission is
// withdrawn if no age was assigned yet; an assigned age still
// commits — only the wait is abandoned).
func (c *Client) SubmitTimeout(payload []byte, d time.Duration) (*Call, error) {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms <= 0 {
		ms = 1
	}
	if ms > 1<<31 {
		return nil, fmt.Errorf("serve: deadline %v out of range", d)
	}
	return c.submit(payload, uint32(ms))
}

// SubmitMany writes the payloads as one contiguous burst of frames in
// a single write, so they reach the server together and its ingress
// batcher coalesces them into one batched submission (consecutive
// ages under one sequencer lock). Returns one Call per payload, in
// submission (= age = response) order.
func (c *Client) SubmitMany(payloads [][]byte) ([]*Call, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("serve: submit on closed connection")
	}
	if c.writeEr != nil {
		return nil, c.writeEr
	}
	block := make([]Call, len(payloads)) // the burst is the unit of allocation
	calls := make([]*Call, len(payloads))
	c.wbuf = c.wbuf[:0]
	c.rmu.Lock()
	for i, pl := range payloads {
		calls[i] = &block[i]
		c.register(calls[i], pl)
		c.wbuf = appendRequestFrame(c.wbuf, calls[i].id, 0, pl)
	}
	c.rmu.Unlock()
	if _, err := c.pw.Write(c.wbuf); err != nil {
		c.rmu.Lock()
		for _, call := range calls {
			c.unregister(call.id)
		}
		c.rmu.Unlock()
		c.writeEr = fmt.Errorf("serve: write frames: %w", err)
		return nil, c.writeEr
	}
	return calls, nil
}

// register assigns call the next id and enters it in the pending
// ring, keeping a copy of the payload when a NotLeader answer would
// have to resubmit it. Called with wmu and rmu held.
func (c *Client) register(call *Call, payload []byte) {
	call.id = c.nextID
	c.nextID++
	c.pending.put(call)
	if c.retained != nil {
		c.retained[call.id] = append([]byte(nil), payload...)
	}
}

// unregister takes id back out: its response arrived, or its frame
// was never written. It returns the call and its retained payload, if
// any. Called with rmu held.
func (c *Client) unregister(id uint64) (call *Call, payload []byte) {
	if c.retained != nil {
		payload = c.retained[id]
		delete(c.retained, id)
	}
	return c.pending.take(id), payload
}

func (c *Client) submit(payload []byte, deadlineMS uint32) (*Call, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("serve: submit on closed connection")
	}
	if c.writeEr != nil {
		return nil, c.writeEr
	}
	call := new(Call)
	c.rmu.Lock()
	c.register(call, payload)
	c.rmu.Unlock()
	c.wbuf = appendRequestFrame(c.wbuf[:0], call.id, deadlineMS, payload)
	if _, err := c.pw.Write(c.wbuf); err != nil {
		c.rmu.Lock()
		c.unregister(call.id)
		c.rmu.Unlock()
		c.writeEr = fmt.Errorf("serve: write frame: %w", err)
		return nil, c.writeEr
	}
	return call, nil
}

func (c *Client) readLoop() {
	defer close(c.readDone)
	br := bufio.NewReaderSize(c.resp.Body, 64<<10)
	for {
		id, age, code, msg, err := readResponseFrame(br, DefaultMaxFrame)
		if err != nil {
			c.finish(err)
			return
		}
		c.rmu.Lock()
		call, payload := c.unregister(id)
		if code == CodeOK {
			// The commit-order contract, checked at the cheapest
			// possible point: committed ages on one connection must
			// arrive monotonically.
			if c.haveAge && age < c.lastAge {
				c.violations++
			}
			c.lastAge, c.haveAge = age, true
		}
		c.rmu.Unlock()
		if call != nil {
			if code == CodeNotLeader && c.rd != nil && payload != nil {
				// Leadership moved: hand the call to the redirector
				// instead of failing it. msg is the leader hint.
				c.rd.wg.Add(1)
				go c.rd.resubmit(call, payload, msg)
				continue
			}
			call.resolve(age, DecodeError(code, msg))
		}
	}
}

// Redials returns how many calls were resubmitted to another server
// after a NotLeader answer (0 without WithNotLeaderRedial).
func (c *Client) Redials() uint64 {
	if c.rd == nil {
		return 0
	}
	return c.rd.redials.Load()
}

// finish resolves every still-pending call with err (the stream is
// gone; no responses are coming).
func (c *Client) finish(err error) {
	if err == io.EOF {
		err = fmt.Errorf("serve: connection closed before response")
	}
	c.rmu.Lock()
	n := 0
	for id := c.pending.base; id < c.pending.next; id++ {
		if call, _ := c.unregister(id); call != nil {
			call.resolve(0, err)
			n++
		}
	}
	c.rmu.Unlock()
	if n > 0 {
		c.readErr = err
	}
}

// OrderViolations returns how many committed responses arrived with
// an age below a previously seen one — zero on a correct server, by
// the commit-order response contract.
func (c *Client) OrderViolations() int {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.violations
}

// Close half-closes the request stream (the server answers everything
// in flight, then ends the response stream), waits for those
// responses, and tears the connection down. It returns an error if
// any submitted call went unanswered.
func (c *Client) Close() error {
	c.wmu.Lock()
	if c.closed {
		c.wmu.Unlock()
		<-c.readDone
		return c.readErr
	}
	c.closed = true
	c.wmu.Unlock()
	c.pw.Close()
	<-c.readDone
	if c.rd != nil {
		c.rd.close() // all redirect goroutines were spawned by readLoop
	}
	c.resp.Body.Close()
	c.cancel()
	c.tr.CloseIdleConnections()
	return c.readErr
}
