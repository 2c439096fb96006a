package stm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/internal/frontier"
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
// Bounded state: an engine scrubs a retired attempt's registrations
// as it recycles the descriptor, so an arbitrarily long stream runs in
// bounded engine state with no periodic sweep. Stats reports
// whole-stream totals.
//
// Faults: a body panic the sandbox cannot attribute to speculation
// stops the pipeline, exactly as it stops Executor.Run — but, as in
// the sequential fold, only once the panicking age is reachable: a
// panic at an age whose predecessors have not all committed is
// abandoned and retried after they have, so every lower age commits
// before the fault lands. The faulting ticket resolves with the
// *Fault; every other unresolved ticket — an age above it — resolves
// with a *Stopped error. A *Stopped transaction has not committed,
// with one narrow exception: an attempt already inside its commit
// step when the fault landed may still complete concurrently with the
// stop (commits racing the halt are possible in every mode; waiters
// parked on the order are cancelled). Submit and Close report the
// fault afterwards. Stop, by contrast, cuts the stream wherever the
// frontier is.
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
	cdone chan struct{}  // checkpointer goroutine exit (closed if none)

	// Checkpoint machinery; zero-valued unless the WAL implements
	// CheckpointSink and a Snapshotter is configured.
	ckptMu   sync.Mutex // serializes checkpoints (auto loop + manual)
	ckptSink CheckpointSink
	lastCkpt uint64 // frontier age of the newest committed checkpoint
	ckptN    uint64 // checkpoints committed
	ckptErr  error  // first checkpoint failure; auto-checkpointing stops

	bodies sync.Pool // *[]Body scratch of SubmitBatch

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
	if cfg.FirstAge >= directBit {
		return nil, errors.New("stm: Config.FirstAge must be below 2^62")
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
	if pipelineHook != nil {
		pipelineHook(l)
	}
	p := &Pipeline{
		cfg:   cfg,
		eng:   eng,
		order: order,
		stats: stats,
		l:     l,
		s:     s,
		vdone: make(chan struct{}),
		cdone: make(chan struct{}),
	}
	p.bodies.New = func() any { return new([]Body) }
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
		s.ckptKick = make(chan struct{}, 1)
		s.dur.Kick(cfg.CheckpointEvery, s.ckptKick)
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
	return p, nil
}

// Config returns the pipeline's effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Request is one transaction handed to a Pipeline. Exactly one of Body
// and Encoded is set; a Request with both or neither is refused.
type Request struct {
	// Body is the transaction itself. A durable pipeline (Config.WAL
	// set) refuses it with ErrPayloadRequired: the log must receive an
	// input recovery can replay, and a body alone cannot be re-created.
	Body Body
	// Encoded is the transaction's wire form. The pipeline decodes it
	// through Config.Codec and runs the decoded body, so live execution
	// and recovery replay share one code path by construction; a
	// durable pipeline logs these bytes once the age commits. The
	// pipeline retains them only until the ticket resolves, after which
	// the caller may reuse the backing array — a closed-loop producer
	// can recycle one encode buffer. A nil Encoded counts as unset, so
	// an empty payload is a non-nil zero-length slice.
	Encoded []byte
	// Ticket is caller-owned storage for the submission's ticket: the
	// pipeline resolves and returns it instead of allocating one. The
	// caller may pass the same Ticket again once it has resolved and
	// every goroutine waiting on its previous outcome has returned; a
	// Ticket still in flight is refused, never reused. Nil means the
	// pipeline allocates the ticket.
	Ticket *Ticket
}

// Submit is SubmitCtx without a context, for a body: the shortcut of a
// volatile pipeline.
func (p *Pipeline) Submit(body Body) (*Ticket, error) {
	return p.SubmitCtx(nil, Request{Body: body})
}

// SubmitEncoded is SubmitCtx without a context, for an encoded
// payload: the shortcut of a durable pipeline and of recovery replay
// (wal.Recovery.Replay hands each surviving record here).
func (p *Pipeline) SubmitEncoded(data []byte) (*Ticket, error) {
	body, err := p.decode(data)
	if err != nil {
		return nil, err
	}
	return p.submitOne(nil, nil, body, data)
}

// SubmitCtx hands the pipeline the next transaction of the stream. It
// assigns the next age, blocks while Capacity submissions are already
// in flight, and returns a Ticket resolving when that age commits.
// After Close it returns ErrClosed; after a fault, the *Stopped error.
//
// A context cancellation during the backpressure wait withdraws the
// submission and returns an error wrapping ErrCanceled (and ctx's
// error); a nil ctx never cancels. Cancellation is only observed
// before an age is assigned — once SubmitCtx returns a Ticket the
// transaction owns its position in the predefined order and will
// commit regardless of what happens to ctx (bound the wait with
// Ticket.WaitCtx instead). The returned Ticket is r.Ticket when the
// request carries one.
func (p *Pipeline) SubmitCtx(ctx context.Context, r Request) (*Ticket, error) {
	body, err := p.bodyOf(r)
	if err != nil {
		return nil, err
	}
	return p.submitOne(ctx, r.Ticket, body, r.Encoded)
}

// bodyOf checks a request's form and returns the body it runs.
func (p *Pipeline) bodyOf(r Request) (Body, error) {
	switch {
	case (r.Body == nil) == (r.Encoded == nil):
		return nil, errRequestForm
	case r.Ticket != nil && r.Ticket.done.Armed():
		return nil, errTicketInFlight
	case r.Encoded != nil:
		return p.decode(r.Encoded)
	case p.s.dur != nil:
		return nil, ErrPayloadRequired
	}
	return r.Body, nil
}

var errRequestForm = errors.New("stm: a Request sets exactly one of Body and Encoded")

// decode turns an encoded payload into the body that runs.
func (p *Pipeline) decode(data []byte) (Body, error) {
	if p.cfg.Codec == nil {
		return nil, errors.New("stm: an encoded submission requires Config.Codec")
	}
	body, err := p.cfg.Codec.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("stm: decode payload: %w", err)
	}
	if body == nil {
		return nil, errors.New("stm: Codec decoded a nil body")
	}
	return body, nil
}

// submitOne is a one-request call into submitBatch, through arrays on
// the stack: t is the caller's ticket (the Request's, or the Ticket a
// TicketOf embeds, so submission costs one allocation for the pair),
// or nil for a fresh one — then the transaction's one allocation.
func (p *Pipeline) submitOne(ctx context.Context, t *Ticket, body Body, payload []byte) (*Ticket, error) {
	if t == nil {
		t = new(Ticket)
	}
	bodies := [1]Body{body}
	reqs := [1]Request{{Encoded: payload, Ticket: t}}
	var out [1]*Ticket
	if _, err := p.submitBatch(ctx, bodies[:], reqs[:], 0, out[:0]); err != nil {
		return nil, err
	}
	return t, nil
}

// SubmitBatch submits the requests as consecutive ages of the stream,
// taking the stream lock once for the whole batch instead of once per
// transaction. Its core is the stream's only one: every other submit
// entry point is a call into it with one request. Every request is checked (and decoded)
// before any age is assigned, so a malformed request refuses the whole
// batch. Backpressure applies inside the batch: once Capacity
// submissions are in flight, the call blocks until the commit frontier
// advances, exactly as consecutive SubmitCtx calls would.
//
// It appends one Ticket per accepted request to out, in order, and
// returns the extended slice; a request carrying its own Ticket
// contributes that one. A batch whose requests all carry tickets, into
// an out with room, allocates nothing here. On a fault, after Close,
// or on a cancellation of ctx while the batch is parked at Capacity,
// submission stops at the first request not yet assigned an age: the
// tickets appended are those of the requests accepted before it (they
// own their ages and resolve normally) and the error reports why the
// rest were refused. As with SubmitCtx, an accepted age is never
// withdrawn. A request whose Ticket is still in flight refuses the
// whole batch, like a malformed one; the same Ticket twice in one batch
// stops it at the second.
func (p *Pipeline) SubmitBatch(ctx context.Context, reqs []Request, out []*Ticket) ([]*Ticket, error) {
	// The bodies only bridge decoding and post (the submission ring
	// holds them from there), so the slice is borrowed, not made per
	// call.
	scratch := p.bodies.Get().(*[]Body)
	defer func() {
		clear(*scratch)
		*scratch = (*scratch)[:0]
		p.bodies.Put(scratch)
	}()
	fresh := 0 // requests the pipeline makes a ticket for
	for i, r := range reqs {
		body, err := p.bodyOf(r)
		if err != nil {
			return out, fmt.Errorf("stm: request %d of the batch: %w", i, err)
		}
		*scratch = append(*scratch, body)
		if r.Ticket == nil {
			fresh++
		}
	}
	return p.submitBatch(ctx, *scratch, reqs, fresh, out)
}

// submitBatch is the submission core: bodies[i] runs as reqs[i], whose
// Encoded bytes a durable pipeline retains and whose Ticket, when set,
// is its ticket; fresh counts the requests without one. A non-nil ctx
// makes the per-request backpressure wait cancellable with SubmitCtx's
// withdrawal rule: cancellation stops the batch before the next age
// assignment, never after one.
func (p *Pipeline) submitBatch(ctx context.Context, bodies []Body, reqs []Request, fresh int, out []*Ticket) ([]*Ticket, error) {
	if len(bodies) == 0 {
		return out, nil
	}
	// The batch is the unit of allocation: the tickets the pipeline
	// makes are one block, handed out by pointer (a caller holding any of
	// them keeps the block alive, which a batch's worth of 32-byte
	// tickets can afford).
	var block []Ticket
	if fresh > 0 {
		block = make([]Ticket, fresh)
	}
	s := p.s
	var unwatch func() bool
	defer func() {
		if unwatch != nil {
			unwatch()
		}
	}()
	var err error
	s.mu.Lock()
batch:
	for i, body := range bodies {
		var waitT0 int64
		for {
			if s.fault != nil {
				err = &Stopped{Fault: s.fault}
				break batch
			}
			if s.closed.Load() {
				err = ErrClosed
				break batch
			}
			if ctx != nil {
				if cerr := ctx.Err(); cerr != nil {
					err = fmt.Errorf("%w before an age was assigned: %w", ErrCanceled, cerr)
					break batch
				}
			}
			if s.hasRoom() {
				break
			}
			if ctx != nil && unwatch == nil && ctx.Done() != nil {
				unwatch = s.wakeOnDone(ctx) // once per batch
			}
			if po := p.po; po != nil && waitT0 == 0 {
				waitT0 = time.Now().UnixNano()
				po.submitWaits.Inc()
			}
			// Publish what the batch posted so far before parking:
			// workers drain those ages, commits advance the frontier,
			// and committed() wakes us again.
			s.work.Broadcast()
			s.awaitRoom()
		}
		if waitT0 != 0 {
			p.po.submitWait.Observe(time.Now().UnixNano() - waitT0)
		}
		t := reqs[i].Ticket
		if t == nil {
			t, block = &block[0], block[1:]
		}
		if !s.post(t, body, reqs[i].Encoded) {
			err = errTicketInFlight
			break
		}
		out = append(out, t)
	}
	s.work.Broadcast() // wake idle workers for what was posted
	s.mu.Unlock()
	return out, err
}

// Drain blocks until every transaction submitted before the call has
// committed (or the pipeline stopped on a fault, which it returns).
// The pipeline stays open: Submit keeps working during and after a
// Drain.
func (p *Pipeline) Drain() error {
	s := p.s
	s.mu.Lock()
	target := s.submitted.Load()
	s.waiters.Add(1)
	for s.fault == nil && s.reported() < target {
		s.commits.Wait()
	}
	s.waiters.Add(-1)
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
		if d := p.s.dur; d != nil {
			// Make the tail durable: everything the drain committed has
			// been appended; one final sync closes the durability gap,
			// and its result goes through the observer's path too, so a
			// failure the observer never reported (a log torn down under
			// us, or one that reports sync errors without a notification)
			// fails the parked WaitDurable tickets with the
			// DurabilityError Close reports. The log stays open — its
			// owner closes it.
			err := p.cfg.WAL.Sync()
			p.s.mu.Lock()
			d.Synced(p.cfg.WAL.Durable(), err)
			err = d.Err // or an append failed earlier; the prefix is frozen
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

// Stats returns whole-stream counters.
func (p *Pipeline) Stats() meta.StatsView { return p.stats.View() }

// Submitted returns the number of transactions accepted so far.
func (p *Pipeline) Submitted() uint64 { return p.s.submitted.Load() - p.s.base }

// Committed returns the number of transactions committed so far.
func (p *Pipeline) Committed() uint64 { return p.s.ncommitted.Load() }

// InFlight returns the number of submissions not yet committed; it
// never exceeds the configured Capacity.
func (p *Pipeline) InFlight() int {
	s := p.s
	for {
		// Both counters at one instant: the commit count read while the
		// submission count held still.
		sub := s.submitted.Load()
		done := s.reported()
		if s.submitted.Load() == sub {
			return int(sub - done)
		}
	}
}

// Durable returns the durability frontier: every age below it is on
// stable storage and will survive a crash. Without a WAL it returns
// zero.
func (p *Pipeline) Durable() uint64 {
	if p.s.dur == nil {
		return 0
	}
	return p.cfg.WAL.Durable()
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
	if err := s.dur.Err; err != nil {
		s.mu.Unlock()
		return p.lastCkpt, &DurabilityError{Err: err}
	}
	var gate uint64
	for {
		// Only Checkpoint sets the gate bit, and ckptMu serializes it,
		// so the cursor is ungated here; the CAS fails only on a claim
		// or a mode switch.
		cur := s.cursor.Load()
		gate = cur &^ directBit
		if gate <= p.lastCkpt {
			s.mu.Unlock()
			return p.lastCkpt, nil // no commits since the last checkpoint
		}
		if s.cursor.CompareAndSwap(cur, cur|gateBit) {
			break
		}
	}
	var ckptT0 time.Time
	if p.po != nil {
		ckptT0 = time.Now()
	}
	s.waiters.Add(1)
	for s.fault == nil && s.reported() < gate {
		s.commits.Wait()
	}
	s.waiters.Add(-1)
	if s.fault != nil {
		f := s.fault
		s.lift()
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
	s.lift()
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

// Epochs returns Committed()>>16. The pipeline runs no epochs; this
// is kept only because the benchmark harness (bench/) reports it.
func (p *Pipeline) Epochs() uint64 { return p.Committed() >> 16 }

// pipeEntry is one slot of the submission ring. stamp is age+1 while
// the slot holds an unclaimed age's body and 0 once the age's claimer
// has read the body out: post writes body, then stamp, then publishes
// the age through submitted; a worker reads body only after winning the
// age on the claim cursor, and clears stamp last to release the slot.
// Backpressure guarantees that a slot's previous tenant has been
// claimed before post comes round to the slot again — claims are in
// age order, and Capacity commits cannot happen without as many claims
// — but under commit-order skew (TL2, NOrec, the unordered UndoLogs,
// STMLite) not that it has been released, so post waits for the
// release before it writes.
type pipeEntry struct {
	stamp atomic.Uint64
	body  Body
}

// tcell is one cell of the ticket ring. Unlike submission slots,
// ticket cells live until the age *commits*, and unordered engines —
// and STMLite's concurrent write-backs — report commits out of age
// order, so an age can wrap around to a cell whose older ticket is
// still unresolved; such tickets overflow into the age-keyed map. For
// in-order engines the overflow never happens (in-flight ages span
// less than the capacity-sized ring), so the steady-state path is an
// age-tagged array cell instead of a map insert+delete per
// transaction.
//
// post (under mu) fills a cell only while t is nil: ts, then age, then
// t. Every resolver — the commit report, a stop's sweep, the teardown
// backstop — takes the ticket out with a Swap of t, so it is resolved
// exactly once, and reads ts only before that Swap, which is what lets
// post write the cell again.
type tcell struct {
	age atomic.Uint64
	t   atomic.Pointer[Ticket]
	ts  int64 // UnixNano at age assignment; 0 unless the age is latency-sampled
}

// take removes age's ticket from the cell. It reports false if the
// cell holds another age's ticket (age's overflowed) or none (a stop's
// sweep took it).
func (c *tcell) take(age uint64) (tslot, bool) {
	if c.age.Load() != age {
		return tslot{}, false
	}
	ts := c.ts
	t := c.t.Swap(nil)
	return tslot{age: age, t: t, ts: ts}, t != nil
}

// tslot is a ticket held outside the ring: in the overflow map, or
// parked between commit and sync by WaitDurable.
type tslot struct {
	age uint64
	t   *Ticket
	ts  int64 // as tcell.ts
}

// gateBit is the claim cursor's checkpoint gate: while it is set,
// workers claim nothing. The checkpointer sets it to freeze a quiescent
// frontier (no speculative execution — not even an aborted attempt's
// in-place write — ever happens at or above a never-claimed age) and
// always clears it again; a worker that finds the stream closed but
// gated therefore waits rather than exiting. A gated cursor compares
// above every age (NewPipeline keeps ages below the bit), so the claim
// test needs no second comparison.
const gateBit = 1 << 63

// directBit is the claim cursor's execution mode: an age claimed while
// it is set runs directly (runloop.go, runDirect), one claimed while it
// is clear runs speculatively. Mode and age change in one word, so an
// age's mode is fixed by the claim that takes it, and a switch is a
// point in the claim order: every age below it was claimed in the old
// mode, every age from it on in the new one. Only cooperative engines
// over a stream ever set it. It sits below gateBit, so a gated cursor
// still compares above every age once directBit is masked off.
const directBit = 1 << 62

// stream implements feed for the pipeline: a bounded ring of
// submissions between the producer side (Submit/Drain/Close) and the
// run-loop's workers.
//
// Synchronization. The run-loop side takes no lock: a worker claims an
// age by compare-and-swap on the claim cursor and reads the body out
// of its submission slot, and a commit report takes the ticket out of
// its ring cell, resolves it and counts it. mu serializes the rest:
// producers (age assignment, ticket arming, the backpressure check),
// the durable step of a WAL pipeline's commit, the skew overflow maps,
// and every goroutine that parks or wakes a parked one.
//
// Sleeping. Idle workers park on work. Everything that gives them
// something to do — a post, the gate's lift, close, a stop — happens
// under mu, which a worker holds from its re-check of the cursor into
// Wait, so no wakeup is lost. In direct mode the workers without the
// direct seat park on bench instead (see seat), by the same rule.
// Producers at Capacity, Drain and Checkpoint park on commits until
// the commit count reaches their target. The count moves without mu, so a sleeper registers in
// waiters (under mu) before it checks the count, and a commit first
// adds to the count and then, only if waiters is non-zero, takes mu to
// broadcast. Both are sequentially consistent atomics, so one of two
// things holds: the committer's load of waiters comes after the
// sleeper's registration — then it broadcasts, and as the broadcast
// needs mu it lands once the sleeper is inside Wait — or it comes
// before, and then so does the count's increment, which the sleeper's
// check sees. Drain and Checkpoint stay registered for their whole
// wait; a producer, whose every submit checks for room first,
// registers only once that check failed, and checks again.
type stream struct {
	// Set before the workers start (closed: stored once, under mu)
	// and read by every side.
	entries  []pipeEntry
	emask    uint64
	tcells   []tcell // ticket ring; same geometry as entries
	base     uint64  // first age of the stream
	capacity int
	closed   atomic.Bool
	ckptKick chan struct{}         // the feed signals the checkpointer; nil when disabled
	onCommit func(age uint64)      // Config.OnCommit, nil when unset
	dur      *frontier.Feed[tslot] // the log's feed, nil without a WAL; under mu
	wait     bool                  // Config.WaitDurable
	po       *pipeObs              // observability, nil without Config.Obs

	// What producers write on every submit, off the lines above.
	_       [64]byte
	mu      sync.Mutex
	work    *sync.Cond       // idle workers
	bench   *sync.Cond       // workers kept out of direct mode (see seat)
	commits *sync.Cond       // producers at Capacity, Drain, Checkpoint
	tickets map[uint64]tslot // overflow for out-of-order commit skew; under mu
	fault   *Fault           // under mu

	// The counters producers, workers and the validator share, one
	// writer side each, on lines of their own.
	_          [64]byte
	submitted  atomic.Uint64 // next age to assign; stored under mu
	_          [56]byte
	cursor     atomic.Uint64 // next age to hand to a worker, plus gateBit and directBit
	_          [56]byte
	ncommitted atomic.Uint64 // count of committed transactions
	waiters    atomic.Int32  // goroutines registered to park on commits
	dtok       atomic.Bool   // a worker holds the direct seat (see seat)
	idles      atomic.Uint64 // claims that parked with nothing to claim (or behind the checkpoint gate)
	_          [64]byte      // to whole lines, so it starts on one (TestStreamFillsWholeLines)
}

func newStream(cfg Config) *stream {
	size := uint64(1)
	for size < uint64(cfg.Capacity) {
		size <<= 1
	}
	s := &stream{
		entries:  make([]pipeEntry, size),
		emask:    size - 1,
		tcells:   make([]tcell, size),
		tickets:  make(map[uint64]tslot),
		base:     cfg.FirstAge,
		capacity: cfg.Capacity,
		onCommit: cfg.OnCommit,
	}
	s.submitted.Store(cfg.FirstAge)
	s.cursor.Store(cfg.FirstAge)
	if cfg.WAL != nil {
		// Twice the bound: under skew an age waits past Capacity to append.
		s.dur = frontier.NewFeed(cfg.WAL, cfg.FirstAge, int(2*size), s.resolveDurable)
		s.wait = cfg.WaitDurable
		// The log reports durability progress straight into the
		// stream's feed, which resolves WaitDurable tickets there.
		cfg.WAL.Notify(s.durableTo)
	}
	s.work = sync.NewCond(&s.mu)
	s.bench = sync.NewCond(&s.mu)
	s.commits = sync.NewCond(&s.mu)
	return s
}

// post assigns the next age to body and registers the ticket (and, on
// durable pipelines, retains the encoded payload until commit). It
// reports false, posting nothing, if the ticket is still in flight.
// Called with mu held and room available. The age is published last,
// through submitted: a worker that sees it finds the slot and the
// ticket in place.
func (s *stream) post(t *Ticket, body Body, payload []byte) bool {
	age := s.submitted.Load()
	if !t.arm(age) {
		return false
	}
	var ts int64
	if po := s.po; po != nil {
		if age&latSampleMask == 0 {
			ts = time.Now().UnixNano()
		}
		if po.trace.Sampled(age) {
			po.trace.Record(age, obs.StageSubmit)
		}
	}
	if c := &s.tcells[age&s.emask]; c.t.Load() == nil {
		c.ts = ts
		c.age.Store(age)
		c.t.Store(t)
	} else {
		// Ring cell still held by an unresolved age.
		s.tickets[age] = tslot{age: age, t: t, ts: ts}
	}
	if d := s.dur; d != nil {
		d.Put(age, payload, tslot{}, 1)
	}
	e := &s.entries[age&s.emask]
	for e.stamp.Load() != 0 {
		// Commit-order skew: the previous tenant is claimed but its
		// claimer has not read the body out yet. It holds no lock
		// between its claim and the release, so this is short.
		runtime.Gosched()
	}
	e.body = body
	e.stamp.Store(age + 1)
	s.submitted.Store(age + 1)
	return true
}

// claim implements feed: hand out submitted ages in order, each in the
// mode the cursor is in when the claim takes it, parking while the
// stream is open but has nothing to claim. In direct mode only the
// worker holding the direct seat claims; the others wait on the bench.
func (s *stream) claim(w *wctx, stop func() bool) (uint64, Body, bool, bool) {
	for {
		if stop() {
			s.unseat(w)
			return 0, nil, false, false
		}
		cur := s.cursor.Load()
		direct := cur&directBit != 0
		if direct != w.direct && !s.seat(w, direct, stop) {
			continue // benched until the seat frees or the mode changes
		}
		if age := cur &^ directBit; age < s.submitted.Load() {
			if !s.cursor.CompareAndSwap(cur, cur+1) {
				continue // another worker took it, or the mode changed
			}
			e := &s.entries[age&s.emask]
			body := e.body
			e.body = nil
			e.stamp.Store(0) // release: post may write the slot again
			return age, body, direct, true
		}
		if s.exhausted() {
			s.unseat(w)
			return 0, nil, false, false
		}
		s.mu.Lock()
		if !stop() && !s.exhausted() && s.cursor.Load()&^directBit >= s.submitted.Load() {
			s.idles.Add(1)
			s.work.Wait()
		}
		s.mu.Unlock()
	}
}

// seat moves the calling worker into the mode the cursor is in. Into
// speculation it just gives up the direct seat, if it held it. Into
// direct mode it takes the seat: one worker runs the direct ages one
// after another, as the Sequential engine's single worker does. A
// worker that finds the seat taken parks on the bench until the seat
// frees, the cursor leaves direct mode, the loop stops or the stream is
// exhausted, and reports false; it does not spin. Every change to
// those conditions is made before the waker takes mu to broadcast, and
// the bench holds mu from its check into Wait, so no wakeup is lost.
func (s *stream) seat(w *wctx, direct bool, stop func() bool) bool {
	if !direct {
		s.unseat(w)
		return true
	}
	if s.dtok.CompareAndSwap(false, true) {
		w.direct = true
		return true
	}
	s.mu.Lock()
	for s.dtok.Load() && s.cursor.Load()&directBit != 0 && !stop() && !s.exhausted() {
		s.bench.Wait()
	}
	s.mu.Unlock()
	return false
}

// unseat gives up the direct seat if w holds it and wakes the bench.
func (s *stream) unseat(w *wctx) {
	if !w.direct {
		return
	}
	w.direct = false
	s.dtok.Store(false)
	s.wakeBench()
}

func (s *stream) wakeBench() {
	s.mu.Lock()
	s.bench.Broadcast()
	s.mu.Unlock()
}

// setDirect switches the mode new claims take. It stores the switch's
// age, the first claim the new mode will take, in *from before the
// switch lands, so a worker that claims in the new mode finds it
// there. A switch to speculation wakes the bench.
func (s *stream) setDirect(on bool, from *atomic.Uint64) {
	for {
		cur := s.cursor.Load()
		next := cur &^ directBit
		if on {
			next |= directBit
		}
		if next == cur {
			return
		}
		if !on {
			from.Store(cur &^ (directBit | gateBit))
		}
		if s.cursor.CompareAndSwap(cur, next) {
			break
		}
	}
	if !on {
		s.wakeBench()
	}
}

// exhausted reports that the stream is closed and every submitted age
// has been claimed. (A closed-but-gated stream with ages above the
// gate is not: the checkpointer always lifts its gate, and the tail
// must still be driven to commit.)
func (s *stream) exhausted() bool {
	return s.closed.Load() && s.cursor.Load()&^(gateBit|directBit) == s.submitted.Load()
}

// committed implements feed: take the age's ticket, hand the age to
// the durability layer, resolve the ticket (immediately, or once
// durable under WaitDurable), and advance the commit count (which
// releases backpressure). On a volatile pipeline none of it takes mu
// unless a sleeper is registered. A WAL pipeline takes mu for its
// durable step and keeps it through the count, so a sleeper costs it
// no second acquisition.
func (s *stream) committed(age uint64) {
	tk, ok := s.tcells[age&s.emask].take(age)
	if !ok {
		tk = s.takeOverflow(age)
	}
	t := tk.t
	locked := s.dur != nil
	if locked {
		s.mu.Lock()
		t = s.durableStep(age, tk)
	} else if s.onCommit != nil {
		s.onCommit(age)
	}
	if po := s.po; po != nil {
		// Sampled ages only (same mask as post, so a timed ticket is
		// always matched here): the frontier advance is serialized, so
		// clock reads per commit are real throughput.
		if age&latSampleMask == 0 {
			now := time.Now().UnixNano()
			po.lastCommit.Store(now)
			if tk.ts != 0 {
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
	s.ncommitted.Add(1)
	if !locked && s.waiters.Load() != 0 {
		s.mu.Lock()
		locked = true
	}
	if locked {
		s.commits.Broadcast()
		s.mu.Unlock()
	}
}

// durableStep is a WAL pipeline's part of committed, called with mu
// held: OnCommit, then the hand-over to the log's feed. It returns the
// ticket still to resolve at commit, nil once the feed took it.
func (s *stream) durableStep(age uint64, tk tslot) *Ticket {
	d, t := s.dur, tk.t
	if s.onCommit != nil {
		s.onCommit(age)
	}
	// Only WaitDurable couples ticket resolution to the log: a plain
	// durable pipeline acknowledges at commit — even after a log
	// failure the transaction did commit, so its ticket stays nil
	// (exactly as the sharded router behaves) and the failure reaches
	// the caller through WaitDurable tickets and Close. (After a fault
	// t is nil unless the age completed before the stop landed:
	// halted's sweep left exactly those for us.)
	var wt tslot // the ticket the feed resolves once the age is durable
	if t != nil && s.wait {
		wt, t = tk, nil
	}
	if age != d.Next() {
		// A report that overtook an older age's: its payload waits past
		// this age's ticket resolution, which releases the caller's
		// buffer (the SubmitEncoded contract) — so keep a copy.
		e := d.At(age)
		e.Payload = append([]byte(nil), e.Payload...)
	}
	// The commit-frontier hook: appends are contiguous and only buffer
	// (group commit happens in the log's syncer), so the commit path
	// never waits on storage, and an age above a fault's permanent gap
	// is never appended — the log's prefix property.
	d.Complete(age, wt)
	return t
}

// takeOverflow is committed's way to age's ticket when the ring cell
// does not hold it: the ticket overflowed on commit-order skew, or a
// stop's sweep already resolved it (then t is nil).
func (s *stream) takeOverflow(age uint64) tslot {
	s.mu.Lock()
	defer s.mu.Unlock()
	tk := s.tickets[age]
	delete(s.tickets, age)
	return tk
}

// durableTo is the log's durability observer (registered via Notify):
// every age below next is now on stable storage, so WaitDurable
// tickets up to there resolve. A log failure resolves every committed
// one with the durability error instead — their transactions committed
// in memory, but the promise Wait was waiting on is broken.
func (s *stream) durableTo(next uint64, err error) {
	s.mu.Lock()
	s.dur.Synced(next, err)
	s.mu.Unlock()
}

// resolveDurable acknowledges a WaitDurable ticket whose age reached
// stable storage, or fails it with the log's failure. Called with mu
// held.
func (s *stream) resolveDurable(sl tslot, err error) {
	if err != nil {
		sl.t.resolve(&DurabilityError{Err: err})
		return
	}
	if po := s.po; po != nil {
		if sl.ts != 0 {
			po.resolveLat.Observe(time.Now().UnixNano() - sl.ts)
		}
		if po.trace.Sampled(sl.age) {
			po.trace.Record(sl.age, obs.StageDurable)
			po.trace.Record(sl.age, obs.StageResolve)
		}
	}
	sl.t.resolve(nil)
}

// halted implements feed: the loop stopped on a fault before draining.
// Resolve every outstanding ticket at or above the commit frontier and
// wake all waiters. An age below it completed in the order before the
// stop — its commit is only waiting to be reported — and committed
// resolves its ticket with the truth: it committed.
func (s *stream) halted(f *Fault, frontier uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		return
	}
	s.fault = f
	s.resolveOutstanding(f, frontier)
	s.work.Broadcast()
	s.bench.Broadcast()
	s.commits.Broadcast()
}

// resolveOutstanding resolves every unresolved ticket of an age at or
// above from: the faulting age with the fault itself, everything else
// with a *Stopped error. Called with mu held, so no post refills a
// cell between the age check and the take; a commit report racing the
// sweep for the same ticket loses or wins the Swap.
func (s *stream) resolveOutstanding(f *Fault, from uint64) {
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
	for i := range s.tcells {
		c := &s.tcells[i]
		if age := c.age.Load(); age >= from && c.t.Load() != nil {
			if t := c.t.Swap(nil); t != nil {
				fail(age, t)
			}
		}
	}
	for age, sl := range s.tickets {
		if age >= from {
			delete(s.tickets, age)
			fail(age, sl.t)
		}
	}
}

// drained reports that the stream is closed and every submitted age
// has committed (the validator's exit condition). Once closed reads
// true, submitted is final.
func (s *stream) drained() bool {
	return s.closed.Load() && s.reported() == s.submitted.Load()
}

// close stops accepting submissions and wakes idle workers so they can
// drain the tail and exit.
func (s *stream) close() {
	s.mu.Lock()
	s.closed.Store(true)
	s.work.Broadcast()
	s.bench.Broadcast()
	s.commits.Broadcast() // producers parked at Capacity refuse now
	s.mu.Unlock()
}

// lift clears the checkpoint gate and wakes the workers it held back;
// the cursor keeps its age and its mode. Called with mu held.
func (s *stream) lift() {
	s.cursor.And(^uint64(gateBit))
	s.work.Broadcast()
}

// reported is base plus the commit count: the age the commit reports
// have counted up to.
func (s *stream) reported() uint64 { return s.base + s.ncommitted.Load() }

// hasRoom reports that fewer than Capacity submissions are in flight.
// Called with mu held, so submitted holds still.
func (s *stream) hasRoom() bool {
	return s.submitted.Load()-s.reported() < uint64(s.capacity)
}

// awaitRoom parks a producer at Capacity, which holds mu, until the
// next broadcast on commits; the caller then re-checks its whole
// predicate. The re-check of the room after registering is what keeps
// committed's lock-free notification from being lost (see stream).
func (s *stream) awaitRoom() {
	s.waiters.Add(1)
	if !s.hasRoom() {
		s.commits.Wait()
	}
	s.waiters.Add(-1)
}

// wakeOnDone makes ctx's end wake producers parked at Capacity. It is
// hooked up lazily, only once a park is imminent, so the common submit
// pays nothing; no wakeup is lost because the callback needs mu, which
// the parking producer holds until it is inside Wait.
func (s *stream) wakeOnDone(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.commits.Broadcast()
		s.mu.Unlock()
	})
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
	s.resolveOutstanding(s.fault, 0)
	if d := s.dur; d != nil {
		var err error
		switch {
		case d.Err != nil:
			err = &DurabilityError{Err: d.Err}
		case s.fault != nil:
			err = &Stopped{Fault: s.fault}
		default:
			err = ErrClosed
		}
		d.Settle(func(sl tslot) { sl.t.resolve(err) })
	}
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
