package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/orderedstm/ostm/internal/arena"
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

// backend abstracts the two pipeline shapes behind the encoded-submit
// entry points the wire carries. batch appends the accepted tickets to
// out (the caller's scratch) and returns it.
type backend interface {
	one(ctx context.Context, data []byte) (ticket, error)
	batch(ctx context.Context, datas [][]byte, out []ticket) ([]ticket, error)
}

type pipeBackend struct{ p *stm.Pipeline }

func (b pipeBackend) one(ctx context.Context, data []byte) (ticket, error) {
	t, err := b.p.SubmitEncodedCtx(ctx, data)
	if t == nil {
		return nil, err
	}
	return t, err
}

func (b pipeBackend) batch(ctx context.Context, datas [][]byte, out []ticket) ([]ticket, error) {
	lts, err := b.p.SubmitEncodedBatchCtx(ctx, datas)
	for _, t := range lts {
		out = append(out, t)
	}
	return out, err
}

type shardBackend struct{ sp *shard.ShardedPipeline }

func (b shardBackend) one(ctx context.Context, data []byte) (ticket, error) {
	t, err := b.sp.SubmitEncodedCtx(ctx, data)
	if t == nil {
		return nil, err
	}
	return t, err
}

func (b shardBackend) batch(ctx context.Context, datas [][]byte, out []ticket) ([]ticket, error) {
	lts, err := b.sp.SubmitEncodedBatchCtx(ctx, datas)
	for _, t := range lts {
		var tk ticket // stays nil for a refused request: positions align with datas
		if t != nil {
			tk = t
		}
		out = append(out, tk)
	}
	return out, err
}

// Config parameterizes a Server.
type Config struct {
	// Pipeline or Sharded is the engine behind the wire; exactly one
	// must be set. Either way it must be configured with the Codec
	// that decodes the request payloads (the server submits the raw
	// frame payloads through SubmitEncoded*).
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
	// coalesces into one SubmitEncodedBatch call (default 64).
	MaxBatch int
}

// Server terminates the wire protocol: it owns an h2c listener,
// decodes request streams, feeds the pipeline (batching frames that
// arrived together), and writes each stream's responses in commit
// order. Create with NewServer, start with Start, stop with Shutdown.
type Server struct {
	cfg Config
	b   backend
	hs  *http.Server
	ln  net.Listener

	mu       sync.Mutex
	draining bool
	streams  sync.WaitGroup
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
	if cfg.Pipeline != nil {
		s.b = pipeBackend{cfg.Pipeline}
	} else {
		s.b = shardBackend{cfg.Sharded}
	}
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
	s.hs = &http.Server{Handler: mux}
	// Cleartext HTTP/2 with prior knowledge: the streaming protocol
	// needs one full-duplex multiplexed connection per client, which
	// HTTP/1.1 cannot carry. HTTP/1.1 stays enabled for the scrape
	// and debug endpoints (curl without --http2-prior-knowledge).
	s.hs.Protocols = new(http.Protocols)
	s.hs.Protocols.SetHTTP1(true)
	s.hs.Protocols.SetUnencryptedHTTP2(true)
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
// immediately, in-flight streams run until their clients half-close,
// and the HTTP server shuts down gracefully. If ctx expires first the
// listener is torn down hard and ctx's error returned. The pipeline
// itself is not touched — the owner drains/checkpoints/closes it
// after Shutdown returns (see cmd/ordersvc for the full SIGTERM
// sequence).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
		return err
	}
	return nil
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
// ticket resolves — the SubmitEncoded contract: the body may alias it
// until commit, the log copies it at the commit frontier, and under
// WaitDurable resolution waits for the fsync — so a buffer is released
// only after its ticket resolved. Responses are written in submission
// order, which makes release a single advancing mark: the writer
// releases up to an entry's mark only once that entry and every entry
// before it has resolved. (Deadline frames, whose response may
// precede resolution, never live here; see readRequestFrame.)
const arenaSize = 64 << 10

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
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.streams.Add(1)
	s.mu.Unlock()
	defer s.streams.Done()

	rc := http.NewResponseController(w)
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() // release headers so the client unblocks before its first frame

	ctx := r.Context()
	br := bufio.NewReaderSize(r.Body, 64<<10)
	ar := arena.New(arenaSize)
	// Sized to a few ingress batches, so ingress can run ahead of a
	// writer parked on an unresolved ticket without queueing unboundedly.
	queue := make(chan entry, 4*s.cfg.MaxBatch)
	writerDone := make(chan struct{})
	go s.writeResponses(w, rc, queue, ar, writerDone)

	// Ingress: decode frames in arrival order. Frames that arrived
	// together (complete in the read buffer) and carry no deadline are
	// coalesced into one batched submission — one sequencer lock per
	// run instead of per frame; a deadline-bearing frame flushes the
	// run and submits alone under its own context so cancellation has
	// a per-request scope. Submission order always equals frame order,
	// which is what makes the response stream's commit-order contract
	// hold.
	var (
		runData [][]byte // the run being collected: its payloads,
		run     []entry  // and its entries, outcome still to be filled in
		tickets []ticket // scratch of backend.batch
	)
	flushRun := func() {
		if len(run) == 0 {
			return
		}
		tickets = tickets[:0]
		err := s.gateErr()
		if err == nil {
			tickets, err = s.b.batch(ctx, runData, tickets)
		}
		for i, e := range run {
			if i < len(tickets) && tickets[i] != nil {
				e.t = tickets[i]
			} else if e.err = err; e.err == nil {
				e.err = errors.New("serve: submission refused")
			}
			queue <- e
		}
		clear(tickets)
		runData, run = runData[:0], run[:0]
	}
	for {
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
			queue <- entry{id: id, err: bad, mark: ar.Mark()}
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
		if gerr := s.gateErr(); gerr != nil {
			queue <- entry{id: id, err: gerr, mark: ar.Mark()}
			continue
		}
		dctx, cancel := context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		t, serr := s.b.one(dctx, payload)
		if serr != nil {
			cancel()
			queue <- entry{id: id, err: serr, mark: ar.Mark()}
			continue
		}
		queue <- entry{id: id, t: t, ctx: dctx, cancel: cancel, mark: ar.Mark()}
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
// Write and one Flush. The loop stops collecting at the first entry
// still in flight, so a resolved response is never held back behind an
// unresolved one: everything written is flushed before the next
// blocking wait.
func (s *Server) writeResponses(w http.ResponseWriter, rc *http.ResponseController, queue <-chan entry, ar *arena.Ring, done chan<- struct{}) {
	defer close(done)
	var (
		buf  []byte
		next entry // taken off the queue, found still in flight
		held bool
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
			default:
				break run
			}
		}
		// Every entry up to mark has resolved (or never lived in the
		// arena), so the pipeline is done with those payloads.
		ar.Release(mark)
		if _, werr := w.Write(buf); werr != nil {
			// Client gone: drain remaining entries so their tickets'
			// deadline contexts are released, then quit. Nothing more is
			// released to the arena — those tickets may be unresolved.
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
		_ = rc.Flush()
	}
}
