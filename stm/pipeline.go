package stm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/stm/obs"
)

// Pipeline is the streaming front-end over the shared run-loop: a
// long-lived Submit/Future service for ordered transaction
// processing. Where Executor.Run executes a fixed batch of n
// identical-body transactions and tears everything down, a Pipeline
// accepts an unbounded stream of heterogeneous bodies — consensus
// slots arriving at a replica, iterations of an open-ended loop —
// assigns each the next age in the predefined commit order, and
// resolves the returned Ticket when that age commits.
//
// Backpressure: Submit blocks once Capacity submissions are in flight
// (submitted but not yet committed), so a fast producer is paced by
// the commit frontier instead of queueing without bound.
//
// Epochs: every EpochAges commits the pipeline drains the engine's
// stats counters into its running totals and asks the engine to
// recycle stale metadata (meta.Recycler), so an arbitrarily long
// stream runs in bounded engine state. Stats always reports
// whole-stream totals.
//
// Faults: a body panic the sandbox cannot attribute to speculation
// stops the pipeline, exactly as it stops Executor.Run. The faulting
// ticket resolves with the *Fault; every other unresolved ticket
// resolves with a *Stopped error. A *Stopped transaction has not
// committed, with one narrow exception: an attempt already inside
// its commit step when the fault landed may still complete
// concurrently with the stop (commits racing the halt are possible
// in every mode; waiters parked on the order are cancelled). Submit
// and Close report the fault afterwards.
//
// Submit and SubmitBatch may be called from any number of goroutines.
// Close is idempotent. A Pipeline must be Closed to release its
// workers.
type Pipeline struct {
	cfg   Config
	eng   meta.Engine
	order *meta.Order
	stats *meta.Stats
	l     *loop
	s     *stream
	po    *pipeObs // nil unless Config.Obs is set

	wg    sync.WaitGroup // workers
	vdone chan struct{}  // validator goroutine exit (closed if none)
	jdone chan struct{}  // janitor goroutine exit
	jkick chan struct{}  // epoch-boundary signals to the janitor
	cdone chan struct{}  // checkpointer goroutine exit (closed if none)

	// Checkpoint machinery; zero-valued unless the WAL implements
	// CheckpointSink and a Snapshotter is configured.
	ckptMu   sync.Mutex // serializes checkpoints (auto loop + manual)
	ckptSink CheckpointSink
	lastCkpt uint64 // frontier age of the newest committed checkpoint
	ckptN    uint64 // checkpoints committed
	ckptErr  error  // first checkpoint failure; auto-checkpointing stops

	bodies sync.Pool // *[]Body scratch of SubmitEncodedBatchCtx

	closeOnce sync.Once
	closeErr  error
}

// NewPipeline validates the configuration, builds a fresh engine, and
// starts the worker pool. The pipeline is immediately ready for
// Submit; ages are assigned from cfg.FirstAge upward.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Algorithm < Sequential || cfg.Algorithm >= numAlgorithms {
		return nil, fmt.Errorf("stm: unknown algorithm %d", int(cfg.Algorithm))
	}
	if cfg.WAL != nil && !cfg.Algorithm.Ordered() {
		// The log stores inputs keyed by age and recovery replays them
		// in age order; an unordered engine serialized the original run
		// in commit order, so replay could not reproduce its state.
		return nil, fmt.Errorf("stm: %v does not enforce the predefined commit order; durable recovery requires an ordered algorithm", cfg.Algorithm)
	}
	if cfg.WAL != nil && cfg.Codec == nil {
		return nil, errors.New("stm: Config.WAL requires Config.Codec (durable submissions are decoded payloads)")
	}
	if cfg.WaitDurable && cfg.WAL == nil {
		return nil, errors.New("stm: Config.WaitDurable requires Config.WAL")
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.WAL == nil {
			return nil, errors.New("stm: Config.CheckpointEvery requires Config.WAL")
		}
		if _, ok := cfg.WAL.(CheckpointSink); !ok {
			return nil, errors.New("stm: Config.CheckpointEvery requires a WAL implementing CheckpointSink (wal.Writer does)")
		}
		if cfg.Snapshotter == nil {
			return nil, errors.New("stm: Config.CheckpointEvery requires Config.Snapshotter")
		}
	}
	cfg = cfg.withDefaults()
	stats := &meta.Stats{}
	order := meta.NewOrderAt(cfg.FirstAge)
	eng, err := newEngine(cfg.Algorithm, meta.EngineConfig{
		TableBits:  cfg.TableBits,
		MaxReaders: cfg.MaxReaders,
		SpinBudget: cfg.SpinBudget,
		SigBits:    cfg.SigBits,
		Order:      order,
		Stats:      stats,
	})
	if err != nil {
		return nil, err
	}
	if eng.Mode() == meta.ModeSequential {
		// The non-instrumented engine has no concurrency control at
		// all; a single worker claiming ages in order is the only
		// correct way to drive it.
		cfg.Workers = 1
	}
	s := newStream(cfg)
	// The commit ring must cover every in-flight exposed age; in
	// steady state backpressure bounds those to Capacity, plus one
	// in-progress age per worker.
	span := uint64(cfg.Capacity + cfg.Workers + 8)
	l := newLoop(cfg, eng, order, stats, s, span, 0)
	p := &Pipeline{
		cfg:   cfg,
		eng:   eng,
		order: order,
		stats: stats,
		l:     l,
		s:     s,
		vdone: make(chan struct{}),
		jdone: make(chan struct{}),
		jkick: make(chan struct{}, 1),
		cdone: make(chan struct{}),
	}
	p.bodies.New = func() any { return new([]Body) }
	s.epochKick = p.jkick
	if s.dur != nil {
		// The log reports durability progress straight into the
		// stream, which resolves WaitDurable tickets there.
		s.dur.log.Notify(s.durableTo)
	}
	if sink, ok := cfg.WAL.(CheckpointSink); ok && cfg.Snapshotter != nil {
		p.ckptSink = sink
		p.lastCkpt = cfg.FirstAge
	}
	if cfg.Obs != nil {
		p.po = newPipeObs(cfg.Obs, p)
		s.po = p.po
		l.trace = p.po.trace
	}
	if cfg.CheckpointEvery > 0 {
		s.ckptEvery = cfg.CheckpointEvery
		s.ckptKick = make(chan struct{}, 1)
		go p.ckptLoop()
	} else {
		close(p.cdone)
	}
	if svc, ok := eng.(meta.Service); ok {
		svc.Start()
	}
	l.spawnWorkers(&p.wg)
	if l.mode == meta.ModeCooperative {
		go func() {
			defer close(p.vdone)
			l.validatorLoop(s.drained)
		}()
	} else {
		close(p.vdone)
	}
	go p.janitor()
	return p, nil
}

// Config returns the pipeline's effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Submit hands the pipeline the next transaction of the stream. It
// assigns the next age, blocks while Capacity submissions are already
// in flight, and returns a Ticket resolving when that age commits.
// After Close it returns ErrClosed; after a fault it returns the
// *Stopped error. On a pipeline configured with a WAL, Submit returns
// ErrPayloadRequired — use SubmitPayload or SubmitEncoded so the log
// receives a replayable input.
func (p *Pipeline) Submit(body Body) (*Ticket, error) {
	if p.s.dur != nil {
		return nil, ErrPayloadRequired
	}
	return p.submit(nil, body, nil)
}

// SubmitCtx is Submit with a cancellable backpressure wait: while the
// pipeline is at Capacity the call parks exactly like Submit, but a
// context cancellation withdraws the submission and returns an error
// wrapping ErrCanceled (and ctx's error). Cancellation is only
// observed before an age is assigned — once SubmitCtx returns a
// Ticket the transaction owns its position in the predefined order
// and will commit regardless of what happens to ctx (use
// Ticket.WaitCtx to bound the wait instead).
func (p *Pipeline) SubmitCtx(ctx context.Context, body Body) (*Ticket, error) {
	if p.s.dur != nil {
		return nil, ErrPayloadRequired
	}
	return p.submit(ctx, body, nil)
}

// SubmitPayload encodes payload through the configured Codec, decodes
// it back into the body that will run (live execution and recovery
// replay share the decoded path by construction), and submits it.
// The encoded form is what the WAL stores once the age commits.
func (p *Pipeline) SubmitPayload(payload any) (*Ticket, error) {
	return p.submitPayload(nil, payload)
}

// SubmitPayloadCtx is SubmitPayload with SubmitCtx's cancellable
// backpressure wait and withdrawal semantics.
func (p *Pipeline) SubmitPayloadCtx(ctx context.Context, payload any) (*Ticket, error) {
	return p.submitPayload(ctx, payload)
}

// submitPayload is the shared encode → decode → submit sequence; ctx
// (nil for the uncancellable entry point) bounds the backpressure
// wait.
func (p *Pipeline) submitPayload(ctx context.Context, payload any) (*Ticket, error) {
	if p.cfg.Codec == nil {
		return nil, errors.New("stm: SubmitPayload requires Config.Codec")
	}
	data, err := p.cfg.Codec.Encode(payload)
	if err != nil {
		return nil, fmt.Errorf("stm: encode payload: %w", err)
	}
	body, err := p.cfg.Codec.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("stm: decode payload: %w", err)
	}
	return p.submit(ctx, body, data)
}

// SubmitEncoded submits a payload already in its wire form — the
// recovery-replay entry point (wal.Recovery.Replay hands surviving
// records here), also usable by feeders that hold pre-encoded inputs.
//
// The pipeline retains data only until the transaction commits (the
// log copies it as the commit frontier passes); once the submission's
// ticket has resolved, the caller may reuse the backing array. A
// closed-loop producer can therefore run the durable submit path with
// a recycled encode buffer instead of a fresh slice per transaction.
func (p *Pipeline) SubmitEncoded(data []byte) (*Ticket, error) {
	return p.SubmitEncodedCtx(nil, data)
}

// SubmitEncodedCtx is SubmitEncoded with SubmitCtx's cancellable
// backpressure wait and withdrawal semantics — the ingress path for
// servers that hold a per-request context: cancellation while the
// pipeline is at Capacity withdraws the submission; once a Ticket is
// returned the age is owned and will commit.
func (p *Pipeline) SubmitEncodedCtx(ctx context.Context, data []byte) (*Ticket, error) {
	if p.cfg.Codec == nil {
		return nil, errors.New("stm: SubmitEncoded requires Config.Codec")
	}
	body, err := p.cfg.Codec.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("stm: decode payload: %w", err)
	}
	return p.submit(ctx, body, data)
}

// submit is the shared submission core over a freshly allocated
// ticket — the transaction's one allocation; ctx (nil for the
// uncancellable entry points) bounds the backpressure wait.
func (p *Pipeline) submit(ctx context.Context, body Body, payload []byte) (*Ticket, error) {
	t := new(Ticket)
	if err := p.submitWith(ctx, t, body, payload); err != nil {
		return nil, err
	}
	return t, nil
}

// submitWith posts body onto the stream through the caller-provided
// ticket (the typed front-ends embed the Ticket inside a TicketOf so
// submission costs one allocation for the pair, not two): it applies
// backpressure, assigns the next age, registers the ticket, and (for
// durable pipelines) retains the payload until the commit frontier
// hands the age to the WAL. A non-nil ctx makes the backpressure wait
// cancellable: cancellation before an age is assigned withdraws the
// submission with an error wrapping ErrCanceled; after assignment the
// context is not consulted, so an accepted age is never lost.
func (p *Pipeline) submitWith(ctx context.Context, t *Ticket, body Body, payload []byte) error {
	if body == nil {
		return errors.New("stm: nil body")
	}
	s := p.s
	var unwatch func() bool
	defer func() {
		if unwatch != nil {
			unwatch()
		}
	}()
	var waitT0 int64
	s.mu.Lock()
	for {
		if s.fault != nil {
			f := s.fault
			s.mu.Unlock()
			return &Stopped{Fault: f}
		}
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("%w before an age was assigned: %w", ErrCanceled, err)
			}
		}
		if s.submitted-(s.base+s.ncommitted) < uint64(s.capacity) {
			break
		}
		if ctx != nil && unwatch == nil && ctx.Done() != nil {
			// The backpressure wait parks on the stream's cond, which a
			// context firing must be able to wake. Registered lazily —
			// only once a park is imminent — so the common no-wait
			// submit pays nothing; no wakeup can be lost because the
			// callback needs s.mu (held here) to broadcast.
			unwatch = context.AfterFunc(ctx, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
		}
		if po := p.po; po != nil && waitT0 == 0 {
			waitT0 = time.Now().UnixNano()
			po.submitWaits.Inc()
		}
		s.cond.Wait() // backpressure: wait for the commit frontier
	}
	if waitT0 != 0 {
		p.po.submitWait.Observe(time.Now().UnixNano() - waitT0)
	}
	s.post(t, body, payload)
	s.cond.Broadcast() // wake claim-blocked workers
	s.mu.Unlock()
	return nil
}

// SubmitBatch submits the bodies as consecutive ages of the stream,
// taking the stream lock once for the whole batch instead of once per
// transaction — the batched producer path for high-throughput feeders
// (and the shard router, which otherwise serializes every submission
// through the global sequencer twice). Backpressure applies inside the
// batch: once Capacity submissions are in flight, the call blocks
// until the commit frontier advances, exactly as consecutive Submit
// calls would.
//
// It returns one Ticket per accepted body, in order. On a fault or
// after Close, submission stops at the first rejected body: the
// returned slice holds the tickets of the bodies accepted before it
// (they remain valid and resolve normally) and the error reports why
// the rest were refused.
func (p *Pipeline) SubmitBatch(bodies []Body) ([]*Ticket, error) {
	return p.SubmitBatchCtx(nil, bodies)
}

// SubmitBatchCtx is SubmitBatch with a cancellable backpressure wait:
// a context cancellation while the batch is parked at Capacity stops
// submission at the first body that has not yet been assigned an age.
// The returned slice holds the tickets of the bodies accepted before
// the cancellation (they own their ages and resolve normally) and the
// error wraps ErrCanceled. As with SubmitCtx, an accepted age is never
// withdrawn.
func (p *Pipeline) SubmitBatchCtx(ctx context.Context, bodies []Body) ([]*Ticket, error) {
	if p.s.dur != nil {
		return nil, ErrPayloadRequired
	}
	return p.submitBatch(ctx, bodies, nil)
}

// SubmitPayloadBatch is SubmitBatch for durable pipelines: each
// payload is encoded, decoded into its body, and the batch submitted
// as consecutive ages under one stream lock, with the same
// partial-acceptance semantics as SubmitBatch.
func (p *Pipeline) SubmitPayloadBatch(payloads []any) ([]*Ticket, error) {
	return p.SubmitPayloadBatchCtx(nil, payloads)
}

// SubmitPayloadBatchCtx is SubmitPayloadBatch with SubmitBatchCtx's
// cancellable backpressure wait and partial-acceptance semantics.
func (p *Pipeline) SubmitPayloadBatchCtx(ctx context.Context, payloads []any) ([]*Ticket, error) {
	if p.cfg.Codec == nil {
		return nil, errors.New("stm: SubmitPayloadBatch requires Config.Codec")
	}
	bodies := make([]Body, len(payloads))
	datas := make([][]byte, len(payloads))
	for i, pl := range payloads {
		data, err := p.cfg.Codec.Encode(pl)
		if err != nil {
			return nil, fmt.Errorf("stm: encode payload %d: %w", i, err)
		}
		body, err := p.cfg.Codec.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("stm: decode payload %d: %w", i, err)
		}
		bodies[i], datas[i] = body, data
	}
	return p.submitBatch(ctx, bodies, datas)
}

// SubmitEncodedBatch is SubmitEncoded's batched form: each element is
// decoded through the Codec and the batch submitted as consecutive
// ages under one stream lock. Buffer reuse follows SubmitEncoded's
// rule per element — the pipeline retains datas[i] only until ticket
// i resolves.
func (p *Pipeline) SubmitEncodedBatch(datas [][]byte) ([]*Ticket, error) {
	return p.SubmitEncodedBatchCtx(nil, datas)
}

// SubmitEncodedBatchCtx is SubmitEncodedBatch with SubmitBatchCtx's
// cancellable backpressure wait and partial-acceptance semantics —
// the batched ingress path for servers feeding pre-encoded request
// frames under a connection context.
func (p *Pipeline) SubmitEncodedBatchCtx(ctx context.Context, datas [][]byte) ([]*Ticket, error) {
	if p.cfg.Codec == nil {
		return nil, errors.New("stm: SubmitEncodedBatch requires Config.Codec")
	}
	// The decoded bodies only bridge Decode and post (the submission
	// ring holds them from there), so the slice is borrowed, not made
	// per call.
	scratch := p.bodies.Get().(*[]Body)
	defer func() {
		clear(*scratch)
		*scratch = (*scratch)[:0]
		p.bodies.Put(scratch)
	}()
	for i, data := range datas {
		body, err := p.cfg.Codec.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("stm: decode payload %d: %w", i, err)
		}
		*scratch = append(*scratch, body)
	}
	return p.submitBatch(ctx, *scratch, datas)
}

// submitBatch is the shared batched core; payloads is nil for
// non-durable pipelines, else parallel to bodies. A non-nil ctx makes
// the per-body backpressure wait cancellable with SubmitCtx's
// withdrawal rule: cancellation stops the batch before the next age
// assignment, never after one.
func (p *Pipeline) submitBatch(ctx context.Context, bodies []Body, payloads [][]byte) ([]*Ticket, error) {
	for _, b := range bodies {
		if b == nil {
			return nil, errors.New("stm: nil body")
		}
	}
	if len(bodies) == 0 {
		return nil, nil
	}
	// The batch is the unit of allocation: its tickets are one block,
	// handed out by pointer (a caller holding any of them keeps the
	// block alive, which a batch's worth of 48-byte tickets can afford).
	block := make([]Ticket, len(bodies))
	out := make([]*Ticket, 0, len(bodies))
	s := p.s
	var unwatch func() bool
	defer func() {
		if unwatch != nil {
			unwatch()
		}
	}()
	s.mu.Lock()
	for i, body := range bodies {
		var waitT0 int64
		for {
			if s.fault != nil {
				f := s.fault
				s.mu.Unlock()
				return out, &Stopped{Fault: f}
			}
			if s.closed {
				s.mu.Unlock()
				return out, ErrClosed
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					s.mu.Unlock()
					return out, fmt.Errorf("%w before an age was assigned: %w", ErrCanceled, err)
				}
			}
			if s.submitted-(s.base+s.ncommitted) < uint64(s.capacity) {
				break
			}
			if ctx != nil && unwatch == nil && ctx.Done() != nil {
				// Same lazy wakeup hook as submitWith: the park below waits
				// on the stream's cond, which a context firing must be able
				// to interrupt. Registered once per batch, only when a park
				// is imminent.
				unwatch = context.AfterFunc(ctx, func() {
					s.mu.Lock()
					s.cond.Broadcast()
					s.mu.Unlock()
				})
			}
			if po := p.po; po != nil && waitT0 == 0 {
				waitT0 = time.Now().UnixNano()
				po.submitWaits.Inc()
			}
			// Publish what the batch posted so far before parking:
			// workers drain those ages, commits advance the frontier,
			// and the broadcast from committed() wakes us again.
			s.cond.Broadcast()
			s.cond.Wait()
		}
		if waitT0 != 0 {
			p.po.submitWait.Observe(time.Now().UnixNano() - waitT0)
		}
		var data []byte
		if payloads != nil {
			data = payloads[i]
		}
		t := &block[i]
		s.post(t, body, data)
		out = append(out, t)
	}
	s.cond.Broadcast() // wake claim-blocked workers
	s.mu.Unlock()
	return out, nil
}

// Drain blocks until every transaction submitted before the call has
// committed (or the pipeline stopped on a fault, which it returns).
// The pipeline stays open: Submit keeps working during and after a
// Drain.
func (p *Pipeline) Drain() error {
	s := p.s
	s.mu.Lock()
	target := s.submitted
	for s.fault == nil && s.base+s.ncommitted < target {
		s.cond.Wait()
	}
	f := s.fault
	s.mu.Unlock()
	if f != nil {
		return f
	}
	return nil
}

// Close drains the stream and shuts the pipeline down: no new
// submissions are accepted, everything already submitted is driven to
// commit, workers and the validator exit, background engine services
// stop. It returns the fault that stopped the pipeline, if any.
// Close is idempotent; concurrent calls return the same error.
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() {
		p.s.close()
		p.l.kickMain() // a parked validator must re-check drained()
		p.wg.Wait()    // workers drain every claimable age and exit
		p.l.kickMain() // wake the validator for the exposed tail
		<-p.vdone
		if p.s.ckptKick != nil {
			// No commits can arrive anymore, so nothing else sends on
			// the kick channel; the checkpointer drains pending kicks
			// (possibly taking one final checkpoint) and exits.
			close(p.s.ckptKick)
		}
		<-p.cdone
		if svc, ok := p.eng.(meta.Service); ok {
			svc.Stop()
		}
		close(p.jkick)
		<-p.jdone
		if d := p.s.dur; d != nil {
			// Make the tail durable: everything the drain committed has
			// been appended; one final sync closes the durability gap
			// and (via the observer) resolves the WaitDurable tickets
			// still deferred. The log stays open — its owner closes it.
			err := d.log.Sync()
			p.s.mu.Lock()
			if err == nil {
				err = d.err // an append failed earlier; the prefix is frozen
			} else if d.err == nil {
				// The closing sync failed through a path that never fired
				// the durability observer (possible when the log was torn
				// down under us, and for any DurableLog that reports sync
				// errors without a notification). Latch it so settle
				// resolves the still-parked WaitDurable tickets with the
				// same DurabilityError Close reports — not ErrClosed —
				// and exactly once.
				d.err = err
			}
			p.s.mu.Unlock()
			if err != nil {
				p.closeErr = &DurabilityError{Err: err}
			}
		}
		p.s.settle()
		p.s.mu.Lock()
		if cerr := p.ckptErr; cerr != nil && p.closeErr == nil {
			p.closeErr = cerr
		}
		p.s.mu.Unlock()
		if f := p.l.fault.Load(); f != nil {
			p.closeErr = f
		}
	})
	return p.closeErr
}

// WaitFrontier blocks until the commit frontier reaches age — every
// transaction with a lower age has committed — or the pipeline stops,
// whichever is first; it returns true iff the frontier arrived. It is
// the pipeline-level reachability wait: a body that must observe the
// exact sequential prefix below its own age (the shard fence protocol)
// parks here, and order-enforcing engines guarantee the frontier keeps
// advancing underneath it.
func (p *Pipeline) WaitFrontier(age uint64) bool {
	p.order.WaitReachable(age, nil)
	return p.order.Committed() >= age
}

// Stop halts the pipeline without draining, as if a transaction
// faulted: workers and waiters are cancelled, every unresolved ticket
// resolves with a *Stopped error, and Submit/Close report the stop.
// Ages not yet committed when Stop lands do not commit (with the same
// narrow racing-commit exception documented on the type). If cause is
// already a *Fault it is recorded as-is; any other value is wrapped in
// a Fault positioned at the current commit frontier. Stop is
// idempotent; the first stop (or genuine fault) wins.
func (p *Pipeline) Stop(cause any) {
	f, ok := cause.(*Fault)
	if !ok {
		f = &Fault{Age: p.order.Committed(), Value: cause}
	}
	p.l.fail(f)
}

// Fault returns the fault that stopped the pipeline, or nil while it
// is running (and after a clean Close).
func (p *Pipeline) Fault() *Fault { return p.l.fault.Load() }

// Stats returns whole-stream counters: every finished epoch plus the
// live counters of the current one.
func (p *Pipeline) Stats() meta.StatsView {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals.Plus(p.stats.View())
}

// Submitted returns the number of transactions accepted so far.
func (p *Pipeline) Submitted() uint64 {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted - s.base
}

// Committed returns the number of transactions committed so far.
func (p *Pipeline) Committed() uint64 {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ncommitted
}

// InFlight returns the number of submissions not yet committed; it
// never exceeds the configured Capacity.
func (p *Pipeline) InFlight() int {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.submitted - (s.base + s.ncommitted))
}

// Durable returns the durability frontier: every age below it is on
// stable storage and will survive a crash. Without a WAL it returns
// zero.
func (p *Pipeline) Durable() uint64 {
	if p.s.dur == nil {
		return 0
	}
	return p.s.dur.log.Durable()
}

// Checkpoint takes a checkpoint now: it freezes the claim gate at the
// current claim frontier, waits for every age below it to commit (a
// never-claimed age has no speculative trace in memory, so the Vars
// then hold the exact sequential state of that prefix), serializes
// the Var space through the Snapshotter, lifts the gate, and commits
// the snapshot through the WAL's CheckpointSink — which truncates log
// history the checkpoint made redundant. It returns the checkpoint's
// frontier age.
//
// Execution only stalls between the gate and the snapshot; the
// checkpoint's own fsyncs happen after the gate lifts, concurrent
// with new commits. Requires a Snapshotter and a WAL implementing
// CheckpointSink; a repeat call at an unchanged frontier is a no-op
// returning the previous checkpoint age.
func (p *Pipeline) Checkpoint() (uint64, error) {
	if p.ckptSink == nil || p.cfg.Snapshotter == nil {
		return 0, errors.New("stm: Checkpoint requires Config.Snapshotter and a WAL implementing CheckpointSink")
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	s := p.s
	s.mu.Lock()
	if s.fault != nil {
		f := s.fault
		s.mu.Unlock()
		return p.lastCkpt, &Stopped{Fault: f}
	}
	if err := s.dur.err; err != nil {
		s.mu.Unlock()
		return p.lastCkpt, &DurabilityError{Err: err}
	}
	gate := s.claimed
	if gate <= p.lastCkpt {
		s.mu.Unlock()
		return p.lastCkpt, nil // no commits since the last checkpoint
	}
	var ckptT0 time.Time
	if p.po != nil {
		ckptT0 = time.Now()
	}
	s.gated, s.gate = true, gate
	for s.fault == nil && s.base+s.ncommitted < gate {
		s.cond.Wait()
	}
	if s.fault != nil {
		f := s.fault
		s.gated = false
		s.cond.Broadcast()
		s.mu.Unlock()
		return p.lastCkpt, &Stopped{Fault: f}
	}
	s.mu.Unlock()
	// The gate froze the grant frontier; an engine whose write-backs
	// trail its grants (STMLite) must drain them into memory before
	// the snapshot reads raw Vars.
	p.WaitStable()
	state, serr := p.cfg.Snapshotter.Snapshot()
	s.mu.Lock()
	s.gated = false
	s.cond.Broadcast()
	s.mu.Unlock()
	if serr != nil {
		err := fmt.Errorf("stm: checkpoint snapshot at age %d: %w", gate, serr)
		p.setCkptErr(err)
		return p.lastCkpt, err
	}
	if err := p.ckptSink.Checkpoint(gate, state); err != nil {
		err = fmt.Errorf("stm: checkpoint commit at age %d: %w", gate, err)
		p.setCkptErr(err)
		return p.lastCkpt, err
	}
	p.s.mu.Lock()
	p.lastCkpt = gate
	p.ckptN++
	p.s.mu.Unlock()
	if p.po != nil {
		p.po.ckptDur.Observe(time.Since(ckptT0).Nanoseconds())
	}
	return gate, nil
}

// WaitStable drains the engine's trailing write-backs into memory
// (meta.Stabilizer; only STMLite implements it — every other engine
// publishes writes before advancing the order, so this returns
// immediately). Raw Var reads observe the exact committed state only
// if the caller has otherwise frozen the commit frontier — the
// checkpointer's claim gate, or the sharded router's submission
// freeze.
func (p *Pipeline) WaitStable() {
	if st, ok := p.eng.(meta.Stabilizer); ok {
		st.WaitStable()
	}
}

// setCkptErr latches the first checkpoint failure; auto-checkpointing
// stops and Close reports it (the log itself may still be healthy —
// durability of the record stream is unaffected).
func (p *Pipeline) setCkptErr(err error) {
	p.s.mu.Lock()
	if p.ckptErr == nil {
		p.ckptErr = err
	}
	p.s.mu.Unlock()
}

// Checkpoints returns how many checkpoints the pipeline has committed.
func (p *Pipeline) Checkpoints() uint64 {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	return p.ckptN
}

// CheckpointAge returns the frontier age of the newest committed
// checkpoint (FirstAge when none has been taken yet).
func (p *Pipeline) CheckpointAge() uint64 {
	p.s.mu.Lock()
	defer p.s.mu.Unlock()
	return p.lastCkpt
}

// ckptLoop runs automatic checkpoints off the commit path: committed()
// kicks it every CheckpointEvery commits; Close closes the kick
// channel after the last commit has landed.
func (p *Pipeline) ckptLoop() {
	defer close(p.cdone)
	for range p.s.ckptKick {
		p.s.mu.Lock()
		stop := p.ckptErr != nil
		p.s.mu.Unlock()
		if stop {
			continue // drain kicks; the failure already reported
		}
		p.Checkpoint() // errors latch via setCkptErr
	}
}

// Epochs returns how many recycling epochs have completed.
func (p *Pipeline) Epochs() uint64 {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs
}

// janitor performs epoch work off the commit path: it folds the
// engine's counters into the stream totals and scrubs recyclable
// engine metadata. One goroutine per pipeline; woken at epoch
// boundaries, exits when Close closes the kick channel.
func (p *Pipeline) janitor() {
	defer close(p.jdone)
	for range p.jkick {
		p.s.foldEpoch(p.stats)
		if rec, ok := p.eng.(meta.Recycler); ok {
			rec.Recycle()
		}
	}
}

// pipeEntry is one slot of the submission ring. A slot only needs to
// survive until its age is claimed (claims are in age order, so a
// slot is always consumed before the backpressure window lets it be
// overwritten).
type pipeEntry struct {
	age  uint64
	body Body
}

// tslot is one slot of the ticket ring. Unlike submission slots,
// ticket slots live until the age *commits*, and unordered engines —
// and STMLite's concurrent write-backs — report commits out of age
// order, so an age can wrap around to a slot whose older ticket is
// still unresolved; such tickets overflow into the age-keyed map. For
// in-order engines the overflow never happens (in-flight ages span
// less than the capacity-sized ring), so the steady-state path is an
// age-tagged array slot instead of a map insert+delete per
// transaction.
type tslot struct {
	age uint64
	t   *Ticket
}

// pslot is one slot of the durable payload ring; full distinguishes
// an occupied slot from a consumed one (payloads may legitimately be
// empty).
type pslot struct {
	age  uint64
	p    []byte
	full bool
}

// stream implements feed for the pipeline: a bounded ring of
// submissions between the producer side (Submit/Drain/Close) and the
// run-loop's workers. All state is guarded by mu; the single cond
// covers every wait (backpressure, claim, drain) — commits broadcast
// and each waiter re-checks its own predicate.
type stream struct {
	mu   sync.Mutex
	cond *sync.Cond

	entries []pipeEntry
	emask   uint64
	tslots  []tslot            // ticket ring; same geometry as entries
	tickets map[uint64]*Ticket // overflow for out-of-order commit skew

	base       uint64 // first age of the stream
	capacity   int
	submitted  uint64 // next age to assign (starts at base)
	claimed    uint64 // next age to hand to a worker (starts at base)
	ncommitted uint64 // count of committed transactions
	closed     bool
	fault      *Fault

	epochAges  uint64
	sinceEpoch uint64
	epochs     uint64
	totals     meta.StatsView
	epochKick  chan<- struct{}

	// Claim gate: while gated, workers may not claim ages at or above
	// gate. The checkpointer raises it to freeze a quiescent frontier
	// (no speculative execution — not even an aborted attempt's
	// in-place write — ever happens at or above a never-claimed age)
	// and always lifts it again; a worker that finds the stream closed
	// but gated therefore waits rather than exiting.
	gated bool
	gate  uint64

	ckptEvery uint64        // Config.CheckpointEvery, 0 when disabled
	sinceCkpt uint64        // commits since the last checkpoint kick
	ckptKick  chan struct{} // signals the checkpointer goroutine

	onCommit func(age uint64) // Config.OnCommit, nil when unset
	dur      *durState        // durability state, nil without a WAL
	po       *pipeObs         // observability, nil without Config.Obs
}

// durState is the stream's durability bookkeeping: payload retention
// between submit and commit, the contiguous log frontier, and the
// tickets deferred past commit by WaitDurable. All fields are guarded
// by the stream mutex.
type durState struct {
	log   DurableLog
	burst burstLog // log, when it takes the more-is-coming hint; else nil
	wait  bool     // Config.WaitDurable
	next  uint64   // next age to hand to the log (contiguous frontier)
	// pring retains each in-flight age's encoded payload until that
	// age commits. Like the ticket ring, slots are age-tagged with a
	// map escape: commit-order skew (unordered engines, STMLite's
	// concurrent write-backs) lets backpressure admit age+size while
	// an older age's payload still occupies the slot, so post evicts
	// the occupant into overflow instead of clobbering it. In-order
	// engines never overflow.
	pring    []pslot
	overflow map[uint64][]byte
	// pend holds payloads of ages committed out of frontier order
	// (only engines with commit-order skew put anything here; the
	// log still receives a strictly contiguous sequence).
	pend map[uint64][]byte
	// waitq holds committed tickets whose age is not yet durable
	// (WaitDurable), in commit order — ascending age on every in-order
	// engine — so durableTo pops from the front while age < next
	// instead of ranging over every deferred ticket at each sync
	// point. A ticket that commits below the queue's newest age
	// (commit-order skew) escapes to waitSkew, as tslots/tickets do.
	waitq    ticketFIFO
	waitSkew map[uint64]*Ticket
	err      error // first log failure; the durable prefix is frozen
}

// ticketFIFO is a queue of tickets in arrival order.
type ticketFIFO struct {
	buf  []*Ticket
	head int
}

func (q *ticketFIFO) push(t *Ticket) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Mostly consumed: slide the live tail down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, t)
}

// front returns the oldest ticket, nil when the queue is empty.
func (q *ticketFIFO) front() *Ticket {
	if q.head == len(q.buf) {
		return nil
	}
	return q.buf[q.head]
}

// back returns the newest ticket, nil when the queue is empty.
func (q *ticketFIFO) back() *Ticket {
	if q.head == len(q.buf) {
		return nil
	}
	return q.buf[len(q.buf)-1]
}

func (q *ticketFIFO) pop() {
	q.buf[q.head] = nil
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// deferTicket parks a committed WaitDurable ticket until durableTo
// reaches its age.
func (d *durState) deferTicket(t *Ticket) {
	if b := d.waitq.back(); b != nil && b.age > t.age {
		d.waitSkew[t.age] = t
		return
	}
	d.waitq.push(t)
}

// failDeferred resolves every ticket still parked for durability with
// err.
func (d *durState) failDeferred(err error) {
	for t := d.waitq.front(); t != nil; t = d.waitq.front() {
		d.waitq.pop()
		t.resolve(err)
	}
	for age, t := range d.waitSkew {
		delete(d.waitSkew, age)
		t.resolve(err)
	}
}

func newStream(cfg Config) *stream {
	size := uint64(1)
	for size < uint64(cfg.Capacity) {
		size <<= 1
	}
	s := &stream{
		entries:   make([]pipeEntry, size),
		emask:     size - 1,
		tslots:    make([]tslot, size),
		tickets:   make(map[uint64]*Ticket),
		base:      cfg.FirstAge,
		capacity:  cfg.Capacity,
		submitted: cfg.FirstAge,
		claimed:   cfg.FirstAge,
		epochAges: uint64(cfg.EpochAges),
		onCommit:  cfg.OnCommit,
	}
	if cfg.WAL != nil {
		s.dur = &durState{
			log:      cfg.WAL,
			wait:     cfg.WaitDurable,
			next:     cfg.FirstAge,
			pring:    make([]pslot, size),
			overflow: make(map[uint64][]byte),
			pend:     make(map[uint64][]byte),
			waitSkew: make(map[uint64]*Ticket),
		}
		s.dur.burst, _ = cfg.WAL.(burstLog)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// post assigns the next age to body and registers the caller's
// ticket (and, on durable pipelines, retains the encoded payload
// until commit). Called with mu held and room available.
func (s *stream) post(t *Ticket, body Body, payload []byte) {
	age := s.submitted
	t.age = age
	if po := s.po; po != nil {
		if age&latSampleMask == 0 {
			t.ts = time.Now().UnixNano()
		}
		if po.trace.Sampled(age) {
			po.trace.Record(age, obs.StageSubmit)
		}
	}
	s.entries[age&s.emask] = pipeEntry{age: age, body: body}
	if d := s.dur; d != nil {
		sl := &d.pring[age&s.emask]
		if sl.full {
			// Commit-order skew: the previous tenant has not committed
			// yet; keep its payload reachable by age.
			d.overflow[sl.age] = sl.p
		}
		sl.age, sl.p, sl.full = age, payload, true
	}
	sl := &s.tslots[age&s.emask]
	if sl.t == nil {
		sl.age, sl.t = age, t
	} else {
		s.tickets[age] = t // ring slot still held by an unresolved age
	}
	s.submitted++
}

// claim implements feed: hand out submitted ages in order, blocking
// while the stream is open but empty.
func (s *stream) claim(stop func() bool) (uint64, Body, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if stop() {
			return 0, nil, false
		}
		if s.claimed < s.submitted && !(s.gated && s.claimed >= s.gate) {
			age := s.claimed
			s.claimed++
			return age, s.entries[age&s.emask].body, true
		}
		if s.closed && s.claimed == s.submitted {
			// Fully drained. (A closed-but-gated stream with entries
			// above the gate parks instead: the checkpointer always
			// lifts its gate, and the tail must still be driven to
			// commit.)
			return 0, nil, false
		}
		s.cond.Wait()
	}
}

// committed implements feed: hand the age to the durability layer,
// resolve its ticket (immediately, or once durable under
// WaitDurable), advance the commit count (which releases
// backpressure), and signal the janitor at epoch boundaries.
func (s *stream) committed(age uint64) {
	s.mu.Lock()
	var t *Ticket
	if sl := &s.tslots[age&s.emask]; sl.t != nil && sl.age == age {
		t = sl.t
		sl.t = nil
	} else if tk, ok := s.tickets[age]; ok {
		delete(s.tickets, age)
		t = tk
	}
	tk := t // survives the WaitDurable deferral below, for latency stamps
	if s.onCommit != nil {
		s.onCommit(age)
	}
	if d := s.dur; d != nil {
		s.logAge(age)
		// Only WaitDurable couples ticket resolution to the log: a
		// plain durable pipeline acknowledges at commit — even after a
		// log failure the transaction did commit, so its ticket stays
		// nil (exactly as the sharded router behaves) and the failure
		// reaches the caller through WaitDurable tickets and Close.
		// (t is always nil after a fault: halted's sweep resolved
		// every registered ticket under this same mutex.)
		if t != nil && d.wait {
			switch {
			case d.err != nil:
				// The log is dead: the transaction committed in
				// memory, but the durability promise Wait is waiting
				// on cannot be kept.
				t.resolve(&DurabilityError{Err: d.err})
				t = nil
			case age >= d.log.Durable():
				d.deferTicket(t) // resolved by durableTo at a sync point
				t = nil
			}
		}
	}
	if po := s.po; po != nil {
		// Sampled ages only (same mask as post, so a timed ticket is
		// always matched here): the frontier advance is serialized, so
		// clock reads per commit are real throughput.
		if age&latSampleMask == 0 {
			now := time.Now().UnixNano()
			po.lastCommit.Store(now)
			if tk != nil && tk.ts != 0 {
				po.commitLat.Observe(now - tk.ts)
				if t != nil {
					po.resolveLat.Observe(now - tk.ts) // resolving at commit
				}
			}
		}
		if po.trace.Sampled(age) {
			po.trace.Record(age, obs.StageCommit)
			if t != nil {
				po.trace.Record(age, obs.StageResolve)
			}
		}
	}
	if t != nil {
		t.resolve(nil)
	}
	s.ncommitted++
	s.sinceEpoch++
	if s.sinceEpoch >= s.epochAges {
		s.sinceEpoch = 0
		select {
		case s.epochKick <- struct{}{}:
		default: // janitor is behind; this epoch folds into the next
		}
	}
	if s.ckptEvery > 0 {
		s.sinceCkpt++
		if s.sinceCkpt >= s.ckptEvery {
			s.sinceCkpt = 0
			select {
			case s.ckptKick <- struct{}{}:
			default: // a checkpoint is already pending or in progress
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// logAge is the commit-frontier hook: it consumes the age's retained
// payload and extends the write-ahead log's strictly contiguous
// record sequence. Ordered engines report commits in age order, so
// the append happens right here; an out-of-order commit (unordered
// engines only) parks its payload until the frontier reaches it. An
// age above a permanent gap — a racing commit that landed past a
// fault — parks forever, which is exactly the prefix property the
// log guarantees. Called with mu held, before the age is counted as
// committed; Append only buffers (group commit happens in the log's
// syncer), so the commit path never waits on storage. A log that takes
// the hint is told whether more is coming: another submitted age is
// still uncommitted, or a parked successor is appended next.
func (s *stream) logAge(age uint64) {
	d := s.dur
	var p []byte
	if sl := &d.pring[age&s.emask]; sl.full && sl.age == age {
		p = sl.p
		sl.p, sl.full = nil, false
	} else {
		p = d.overflow[age]
		delete(d.overflow, age)
	}
	if d.err != nil {
		return
	}
	if age != d.next {
		// Parked past this age's ticket resolution, which releases the
		// caller's buffer (the SubmitEncoded contract) — so park a
		// copy, not the caller's bytes. Only commit-order skew
		// (STMLite's concurrent write-backs) ever pays this.
		d.pend[age] = append([]byte(nil), p...)
		return
	}
	inflight := s.submitted-(s.base+s.ncommitted) > 1
	for {
		succ, parked := d.pend[d.next+1]
		var err error
		if d.burst != nil {
			err = d.burst.AppendMore(d.next, p, inflight || parked)
		} else {
			err = d.log.Append(d.next, p)
		}
		if err != nil {
			d.err = err
			return
		}
		d.next++
		if !parked {
			return
		}
		p = succ
		delete(d.pend, d.next)
	}
}

// durableTo is the log's durability observer (registered via Notify):
// every age below next is now on stable storage, so WaitDurable
// tickets up to there resolve. A log failure resolves every deferred
// ticket with the durability error instead — their transactions
// committed in memory, but the promise Wait was waiting on is broken.
func (s *stream) durableTo(next uint64, err error) {
	s.mu.Lock()
	d := s.dur
	if err != nil && d.err == nil {
		d.err = err
	}
	if d.err != nil {
		d.failDeferred(&DurabilityError{Err: d.err})
		s.mu.Unlock()
		return
	}
	for t := d.waitq.front(); t != nil && t.age < next; t = d.waitq.front() {
		d.waitq.pop()
		s.resolveDurable(t)
	}
	for age, t := range d.waitSkew {
		if age < next {
			delete(d.waitSkew, age)
			s.resolveDurable(t)
		}
	}
	s.mu.Unlock()
}

// resolveDurable acknowledges a WaitDurable ticket whose age reached
// stable storage. Called with mu held.
func (s *stream) resolveDurable(t *Ticket) {
	if po := s.po; po != nil {
		if t.ts != 0 {
			po.resolveLat.Observe(time.Now().UnixNano() - t.ts)
		}
		if po.trace.Sampled(t.age) {
			po.trace.Record(t.age, obs.StageDurable)
			po.trace.Record(t.age, obs.StageResolve)
		}
	}
	t.resolve(nil)
}

// halted implements feed: the loop stopped on a fault before draining.
// Resolve every outstanding ticket and wake all waiters.
func (s *stream) halted(f *Fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		return
	}
	s.fault = f
	s.resolveOutstanding(f)
	s.cond.Broadcast()
}

// resolveOutstanding resolves every unresolved ticket: the faulting
// age with the fault itself, everything else with a *Stopped error.
// Called with mu held.
func (s *stream) resolveOutstanding(f *Fault) {
	fail := func(age uint64, t *Ticket) {
		switch {
		case f != nil && age == f.Age:
			t.resolve(f)
		case f != nil:
			t.resolve(&Stopped{Fault: f})
		default:
			t.resolve(ErrClosed)
		}
	}
	for i := range s.tslots {
		if sl := &s.tslots[i]; sl.t != nil {
			t := sl.t
			sl.t = nil
			fail(sl.age, t)
		}
	}
	for age, t := range s.tickets {
		delete(s.tickets, age)
		fail(age, t)
	}
}

// drained reports that the stream is closed and every submitted age
// has committed (the validator's exit condition).
func (s *stream) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed && s.base+s.ncommitted == s.submitted
}

// close stops accepting submissions and wakes claim-blocked workers
// so they can drain the tail and exit.
func (s *stream) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// settle resolves any ticket still unresolved at teardown (only
// possible on the fault path, where halted already ran; this is a
// backstop so no Wait can hang after Close returns). On durable
// pipelines it also clears WaitDurable tickets that survived the
// closing sync: ages stranded above a fault's gap in the committed
// order can never become durable (the log's prefix property), and a
// failed log can keep no promises at all.
func (s *stream) settle() {
	s.mu.Lock()
	s.resolveOutstanding(s.fault)
	if d := s.dur; d != nil {
		switch {
		case d.err != nil:
			d.failDeferred(&DurabilityError{Err: d.err})
		case s.fault != nil:
			d.failDeferred(&Stopped{Fault: s.fault})
		default:
			d.failDeferred(ErrClosed)
		}
	}
	s.mu.Unlock()
}

// foldEpoch rotates the engine counters and folds the delta into the
// stream totals in one critical section, so Pipeline.Stats (which
// reads totals + live counters under the same lock) never observes
// the window where counters are zeroed but the delta is unfolded.
func (s *stream) foldEpoch(st *meta.Stats) {
	s.mu.Lock()
	s.totals = s.totals.Plus(st.Rotate())
	s.epochs++
	s.mu.Unlock()
}

// Throughput is a convenience for benchmarks: committed transactions
// per second over the given elapsed time.
func Throughput(committed uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(committed) / elapsed.Seconds()
}
