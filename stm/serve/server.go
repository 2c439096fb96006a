package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/internal/arena"
	"github.com/orderedstm/ostm/internal/upgrade"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/shard"
)

// ticket is the slice of stm.Ticket / shard.Ticket the server needs;
// both satisfy it with identical semantics (resolution at commit, or
// at durability under WaitDurable).
type ticket interface {
	Age() uint64
	Err() (err error, resolved bool)
	Wait() error
	WaitCtx(ctx context.Context) error
}

// backend abstracts the two pipeline shapes behind the encoded
// requests the wire carries. Each stream owns one, so its request
// scratch is per connection and a burst allocates nothing new. batch
// submits datas under ctx, appends their tickets to out (the caller's
// scratch: the accepted prefix, or one per payload with nil where one
// was refused) and returns it. When slotted, datas are the stream's
// entries seq, seq+1, ... and may take their ticket-ring slots.
type backend interface {
	batch(ctx context.Context, datas [][]byte, seq uint64, slotted bool, out []ticket) ([]ticket, error)
}

type pipeBackend struct {
	p    *stm.Pipeline
	ring *ticketRing
	reqs []stm.Request
	lts  []*stm.Ticket
}

func (b *pipeBackend) batch(ctx context.Context, datas [][]byte, seq uint64, slotted bool, out []ticket) ([]ticket, error) {
	for i, data := range datas {
		// A nil slot (the writer is far behind) lets the pipeline make one.
		var t *stm.Ticket
		if slotted {
			t = b.ring.slot(seq + uint64(i))
		}
		b.reqs = append(b.reqs, stm.Request{Encoded: data, Ticket: t})
	}
	var err error
	b.lts, err = b.p.SubmitBatch(ctx, b.reqs, b.lts[:0])
	clear(b.reqs)
	b.reqs = b.reqs[:0]
	for _, t := range b.lts {
		out = append(out, t)
	}
	clear(b.lts)
	return out, err
}

type shardBackend struct {
	sp   *shard.ShardedPipeline
	reqs []shard.Request
	lts  []*shard.Ticket
}

func (b *shardBackend) batch(ctx context.Context, datas [][]byte, _ uint64, _ bool, out []ticket) ([]ticket, error) {
	for _, data := range datas {
		b.reqs = append(b.reqs, shard.Request{Encoded: data})
	}
	var err error
	b.lts, err = b.sp.SubmitBatch(ctx, b.reqs, b.lts[:0])
	clear(b.reqs)
	b.reqs = b.reqs[:0]
	for _, t := range b.lts {
		var tk ticket // stays nil for a refused request: positions align with datas
		if t != nil {
			tk = t
		}
		out = append(out, tk)
	}
	clear(b.lts)
	return out, err
}

// Config parameterizes a Server.
type Config struct {
	// Pipeline or Sharded is the engine behind the wire; exactly one
	// must be set. Either way it must be configured with the Codec
	// that decodes the request payloads (the server submits the raw
	// frame payloads as encoded requests).
	Pipeline *stm.Pipeline
	Sharded  *shard.ShardedPipeline

	// Obs, when non-nil, mounts the registry's exposition routes
	// (/metrics, /debug/vars, /debug/pprof/*) on the same listener.
	Obs *obs.Registry

	// State, when non-nil, serves GET /state with its bytes — a
	// snapshot hook (typically stm.SnapshotVars over the app's Vars)
	// clients use to verify replayed state. It runs on the live
	// engine; callers wanting a quiescent snapshot should drain their
	// own traffic first.
	State func() ([]byte, error)

	// Gate, when non-nil, is consulted before every submission; a
	// non-nil return refuses the request with that error instead of
	// submitting it. A replication follower installs a gate returning
	// *NotLeaderError until promotion: frames are still decoded and
	// answered in order, they just all resolve to CodeNotLeader, so a
	// stream opened against a follower fails fast without tearing the
	// connection (reads and the obs routes stay served). The gate runs
	// on the ingress path and must be cheap (an atomic load).
	Gate func() error

	// Handlers mounts extra routes on the same listener — the
	// replication shipper's stream endpoint, a frontier probe, etc.
	// Paths must not collide with the built-in routes (/submit,
	// /healthz, /state, and the obs routes when Obs is set).
	Handlers map[string]http.Handler

	// MaxFrame bounds accepted request frames (default
	// DefaultMaxFrame).
	MaxFrame int
	// MaxBatch caps how many already-buffered frames ingress
	// coalesces into one SubmitBatch call (default 64).
	MaxBatch int
}

// Server terminates the wire protocol: it owns an HTTP/1.1 listener,
// upgrades each POST /submit to a raw frame stream on its TCP
// connection, feeds the pipeline (batching frames that arrived
// together), and writes each stream's responses in commit order. Create
// with NewServer, start with Start, stop with Shutdown.
type Server struct {
	cfg     Config
	hs      *http.Server
	ln      net.Listener
	streams streamSet
	// conns holds every connection upgraded off the listener: the submit
	// streams and those of Config.Handlers routes such as /repl/stream.
	// streamCtx is the parent of every submit stream's context. A
	// Shutdown whose ctx expires closes the first and cancels the second.
	conns        upgrade.Tracker
	streamCtx    context.Context
	cancelStream context.CancelFunc
}

// NewServer validates cfg and builds the server (not yet listening).
func NewServer(cfg Config) (*Server, error) {
	if (cfg.Pipeline == nil) == (cfg.Sharded == nil) {
		return nil, errors.New("serve: exactly one of Config.Pipeline and Config.Sharded must be set")
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	s := &Server{cfg: cfg}
	s.streamCtx, s.cancelStream = context.WithCancel(context.Background())
	var mux *http.ServeMux
	if cfg.Obs != nil {
		mux = obs.NewMux(cfg.Obs) // /metrics, /debug/vars, /debug/pprof/*
	} else {
		mux = http.NewServeMux()
	}
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	for path, h := range cfg.Handlers {
		mux.Handle(path, h)
	}
	if cfg.State != nil {
		mux.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) {
			data, err := cfg.State()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(data)
		})
	}
	// HTTP/1.1 only: the streams upgrade off it to plain TCP.
	s.hs = &http.Server{Handler: mux, Protocols: new(http.Protocols), BaseContext: s.conns.BaseContext}
	s.hs.Protocols.SetHTTP1(true)
	return s, nil
}

// Start binds addr and serves in the background. The bound address
// (useful with ":0") is available as Addr afterwards.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() { _ = s.hs.Serve(ln) }()
	return nil
}

// Addr returns the bound listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: new submit streams are refused with 503
// and the listener closes; every submit stream already open is served
// until its client half-closes, has had all its responses written, and
// is closed. If ctx expires first, every stream still open on the
// listener (submit streams and those of Config.Handlers routes) is
// closed hard, so that their clients' pending calls fail, and ctx's
// error is returned. A graceful Shutdown leaves the Handlers' streams
// open: a draining leader keeps shipping what its drain commits. The
// pipeline itself is not touched: the owner drains, checkpoints and
// closes it after Shutdown returns (see cmd/ordersvc for the full
// SIGTERM sequence).
func (s *Server) Shutdown(ctx context.Context) error {
	idle := s.streams.drain()
	err := s.hs.Shutdown(ctx) // the listener and every plain HTTP request
	if err == nil {
		select {
		case <-idle:
		case <-ctx.Done():
		}
		err = ctx.Err()
	}
	if err != nil {
		_ = s.hs.Close()
		s.conns.CloseAll()
		s.cancelStream()
	}
	return err
}

// streamSet counts a Server's submit streams, so that Shutdown can wait
// for them.
type streamSet struct {
	mu       sync.Mutex
	draining bool
	open     int           // streams admitted and not yet ended
	idle     chan struct{} // closed once draining with no stream open
}

// admit counts a new stream in; false once draining.
func (ss *streamSet) admit() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.draining {
		return false
	}
	ss.open++
	return true
}

// end counts an admitted stream out.
func (ss *streamSet) end() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.open--; ss.open == 0 && ss.draining {
		close(ss.idle)
	}
}

// drain stops admitting streams and returns a channel that is closed
// once the last admitted one has ended.
func (ss *streamSet) drain() <-chan struct{} {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ss.draining {
		ss.draining = true
		ss.idle = make(chan struct{})
		if ss.open == 0 {
			close(ss.idle)
		}
	}
	return ss.idle
}

func (s *Server) gateErr() error {
	if s.cfg.Gate == nil {
		return nil
	}
	return s.cfg.Gate()
}

// arenaSize is a connection's payload ring (internal/arena): the size
// of its read buffer, and room for every in-flight request of a stream
// whose payloads are not unusually large (the response queue holds a
// few hundred entries). The ingress loop carves payload buffers from
// it and the response writer gives them back, so a request frame costs
// no allocation; whatever does not fit goes to the heap.
//
// Lifetime rule. The pipeline keeps a submitted payload until its
// ticket resolves — the Request.Encoded contract: the body may alias it
// until commit, the log copies it at the commit frontier, and under
// WaitDurable resolution waits for the fsync — so a buffer is released
// only after its ticket resolved. Responses are written in submission
// order, which makes release a single advancing mark: the writer
// releases up to an entry's mark only once that entry and every entry
// before it has resolved. (Deadline frames, whose response may
// precede resolution, never live here; see readRequestFrame.)
const arenaSize = 64 << 10

// ticketRing is a stream's stm.Ticket storage, kept by the payload
// arena's rule. Ingress numbers the stream's entries in queue order and
// entry seq may take slot seq mod len; the response writer counts the
// entries it has answered — each resolved, its response composed — and
// a slot is free again once the entry that last held it is counted.
// An entry whose slot is still held, and every deadline frame, gets a
// ticket from the pipeline instead: nothing waits for a slot. A writer
// that loses its client stops counting, so tickets that may still be
// unresolved are never handed out again.
type ticketRing struct {
	slots    []stm.Ticket // empty in front of a sharded pipeline
	answered atomic.Uint64
}

// slot returns entry seq's ticket, nil while its slot is still held.
func (r *ticketRing) slot(seq uint64) *stm.Ticket {
	if seq-r.answered.Load() >= uint64(len(r.slots)) {
		return nil
	}
	return &r.slots[seq%uint64(len(r.slots))]
}

// entry is one request's slot in a stream's response queue. Entries
// travel by value: the queue's buffer is their only storage.
type entry struct {
	id     uint64
	t      ticket // nil when err is pre-resolved (submission refused)
	err    error
	ctx    context.Context // non-nil iff the request carried a deadline
	cancel context.CancelFunc
	mark   uint64 // arena release point once this entry is answered
}

// wait blocks for the entry's outcome: its ticket's resolution, or the
// request deadline if it carried one.
func (e *entry) wait() error {
	switch {
	case e.t == nil:
		return e.err
	case e.ctx != nil:
		defer e.cancel()
		return e.t.WaitCtx(e.ctx)
	}
	return e.t.Wait()
}

// peek returns the entry's outcome if it is already known.
func (e *entry) peek() (err error, resolved bool) {
	if e.t == nil {
		return e.err, true
	}
	if err, resolved = e.t.Err(); resolved && e.cancel != nil {
		e.cancel()
	}
	return err, resolved
}

// appendResponse appends the entry's response frame for outcome err.
func (e *entry) appendResponse(dst []byte, err error) []byte {
	var age uint64
	if e.t != nil {
		age = e.t.Age()
	}
	return appendResponseFrame(dst, e.id, age, CodeOf(err), wireMsg(err))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a frame stream", http.StatusMethodNotAllowed)
		return
	}
	if !s.streams.admit() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.streams.end()
	conn, br, err := upgrade.Accept(w, r, protocol, 64<<10)
	if err != nil {
		return
	}
	defer conn.Close()
	// The stream's submissions run under ctx until its writer loses the
	// client or Shutdown stops the streams hard: ingress then stops, and
	// a batch parked at the pipeline's Capacity gives up.
	ctx, cancel := context.WithCancel(s.streamCtx)
	defer cancel()
	s.serveStream(ctx, cancel, conn, br)
}

// serveStream runs one upgraded stream: ingress here, responses on a
// writer goroutine of their own. It returns once the client has
// half-closed (or the stream broke) and every response is written.
func (s *Server) serveStream(ctx context.Context, cancel context.CancelFunc, conn net.Conn, br *bufio.Reader) {
	ar := arena.New(arenaSize)
	// Sized to a few ingress batches, so ingress can run ahead of a
	// writer parked on an unresolved ticket without queueing unboundedly.
	queue := make(chan entry, 4*s.cfg.MaxBatch)
	ring := new(ticketRing)
	writerDone := make(chan struct{})
	go s.writeResponses(conn, cancel, queue, ar, ring, writerDone)

	// Ingress: decode frames in arrival order. Frames that arrived
	// together (complete in the read buffer) and carry no deadline are
	// coalesced into one batched submission — one sequencer lock per
	// run instead of per frame; a deadline-bearing frame flushes the
	// run and submits as a batch of one under its own context so
	// cancellation has a per-request scope. Submission order always
	// equals frame order, which is what makes the response stream's
	// commit-order contract hold.
	var (
		b       backend
		queued  uint64   // entries sent to the writer
		runData [][]byte // the run being collected: its payloads,
		run     []entry  // and its entries, outcome still to be filled in
		tickets []ticket // scratch of backend.batch
	)
	if s.cfg.Pipeline != nil {
		// As many slots as the queue holds entries: a stream keeps more
		// than that unanswered only while its writer waits on an old
		// entry, and the excess takes heap tickets.
		ring.slots = make([]stm.Ticket, cap(queue))
		b = &pipeBackend{p: s.cfg.Pipeline, ring: ring}
	} else {
		b = &shardBackend{sp: s.cfg.Sharded}
	}
	send := func(e entry) {
		queue <- e
		queued++
	}
	// submitRun submits the run under sctx, the stream's context or a
	// deadline frame's own, and queues its entries, each with its ticket
	// or the reason it was refused.
	submitRun := func(sctx context.Context, slotted bool) {
		if len(run) == 0 {
			return
		}
		tickets = tickets[:0]
		err := s.gateErr()
		if err == nil {
			tickets, err = b.batch(sctx, runData, queued, slotted, tickets)
		}
		for i, e := range run {
			if i < len(tickets) && tickets[i] != nil {
				e.t = tickets[i]
			} else {
				if e.err = err; e.err == nil {
					e.err = errors.New("serve: submission refused")
				}
				if e.cancel != nil {
					e.cancel() // no ticket to wait on
				}
			}
			send(e)
		}
		clear(tickets)
		runData, run = runData[:0], run[:0]
	}
	flushRun := func() { submitRun(ctx, true) }
	lost := ctx.Done()
ingress:
	for {
		select {
		case <-lost:
			break ingress // nobody is left to answer
		default:
		}
		id, deadlineMS, payload, err := readRequestFrame(br, s.cfg.MaxFrame, ar)
		if err != nil {
			bad, ok := err.(*Error)
			if !ok {
				// io.EOF: client half-closed, clean end of stream. Anything
				// else (truncated frame, oversized, reset) also ends ingress;
				// there is no request to answer it on.
				break
			}
			flushRun()
			send(entry{id: id, err: bad, mark: ar.Mark()})
			continue
		}
		if deadlineMS == 0 {
			runData = append(runData, payload)
			run = append(run, entry{id: id, mark: ar.Mark()})
			if len(run) < s.cfg.MaxBatch && frameBuffered(br) {
				continue // more frames already arrived; extend the run
			}
			flushRun()
			continue
		}
		flushRun()
		dctx, dcancel := context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		runData = append(runData, payload)
		run = append(run, entry{id: id, ctx: dctx, cancel: dcancel, mark: ar.Mark()})
		// Its response may be written before its ticket resolves, so the
		// ticket is the pipeline's, not a ring slot.
		submitRun(dctx, false)
	}
	flushRun()
	close(queue)
	<-writerDone
}

// writeResponses is the per-stream egress loop. It answers entries in
// submission order (equal to age order on this stream): one blocking
// wait for the oldest entry, then every entry behind it whose outcome
// is already known — acknowledgements leave the pipeline in age order,
// so they arrive here in runs — and the whole run goes out in one
// Write on the connection. The loop stops collecting at the first entry
// still in flight, so a resolved response is never held back behind an
// unresolved one. Answered entries give their payload buffers back to
// ar and their ticket slots back to ring. A write that fails has lost
// the client: the writer cancels the stream's submissions and only
// drains the queue from then on.
func (s *Server) writeResponses(conn net.Conn, cancel context.CancelFunc, queue <-chan entry, ar *arena.Ring, ring *ticketRing, done chan<- struct{}) {
	defer close(done)
	var (
		buf      []byte
		next     entry // taken off the queue, found still in flight
		held     bool
		answered uint64
	)
	for {
		e := next
		if !held {
			var ok bool
			if e, ok = <-queue; !ok {
				return
			}
		}
		held = false
		buf = e.appendResponse(buf[:0], e.wait())
		mark := e.mark
		answered++
	run:
		for {
			select {
			case e, ok := <-queue:
				if !ok {
					break run // the receive above ends the loop
				}
				err, resolved := e.peek()
				if !resolved {
					next, held = e, true
					break run
				}
				buf = e.appendResponse(buf, err)
				mark = e.mark
				answered++
			default:
				break run
			}
		}
		// Every entry up to mark has resolved (or never lived in the
		// arena), so the pipeline is done with those payloads and their
		// tickets; the responses hold what the writer still needs.
		ar.Release(mark)
		ring.answered.Store(answered)
		if _, werr := conn.Write(buf); werr != nil {
			// Client gone: stop ingress, drain remaining entries so their
			// tickets' deadline contexts are released, then quit. Nothing
			// more is released to the arena or the ticket ring — those
			// tickets may be unresolved.
			cancel()
			if held && next.cancel != nil {
				next.cancel()
			}
			for e := range queue {
				if e.cancel != nil {
					e.cancel()
				}
			}
			return
		}
	}
}
