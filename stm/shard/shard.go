// Package shard implements partition-parallel ordered execution: S
// independent stm.Pipeline engines, each owning a hash-partition of
// the Var space, behind a single Submit front-end that preserves the
// global predefined commit order.
//
// The Age-based Commit Order model caps throughput at what one commit
// frontier can sustain; sharding is the scaling path past it. A
// ShardedPipeline assigns every submission a global age, routes
// single-partition transactions (the common case, and the only ones a
// partitionable workload produces) to their shard's local age
// sequence, and handles multi-partition transactions in the
// deterministic, queue-oriented style of Calvin and QueCC: a fence is
// inserted at the equivalent local age on every involved shard, the
// participating shards rendezvous when those fences reach their
// commit frontiers, and the lowest involved shard executes the body
// against a cross-shard Tx view while the others hold their
// frontiers. No two-phase commit is needed: a fence at the frontier
// is reachable, and a reachable transaction in this system always
// commits.
//
// Determinism contract: because every shard commits its slice of the
// global age sequence in local-age order, and cross-shard
// transactions freeze every involved shard at exactly the global
// prefix below them, a sharded run produces per-ticket results and
// final memory identical to executing all bodies sequentially in
// global-age order — for any order-enforcing algorithm and any shard
// count.
//
// Transactions must declare the variables they may touch
// (stm.Access); the declaration is a superset promise, and violating
// it is a fault, not a silent isolation leak.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
)

// Config parameterizes a ShardedPipeline.
type Config struct {
	// Shards is the number of partitions S (default 2). Each partition
	// runs an independent stm.Pipeline owning the Vars that hash to it
	// (meta's stable shard mapping; see Of).
	Shards int

	// Pipeline parameterizes every per-shard pipeline. Algorithm must
	// enforce the predefined commit order (the unordered baselines
	// cannot provide sharded determinism and are rejected). Workers,
	// Window and Capacity are per shard. FirstAge is the global age of
	// the first submission; the per-shard local age sequences always
	// start at zero. TableBits left zero defaults to a per-shard table
	// shrunk by log2(Shards) — each engine sees only its slice of the
	// variable space, so the aggregate lock-table
	// footprint matches a single unsharded engine. Pipeline.WAL,
	// Pipeline.Codec, Pipeline.WaitDurable and Pipeline.OnCommit must
	// be unset: sharded durability is configured at the router (the
	// fields below), which logs global ages through one WAL.
	Pipeline stm.Config

	// WAL attaches one global-age write-ahead log at the router: as
	// the *global* commit frontier advances (an age is done once every
	// involved shard committed its slice), the encoded payload of each
	// age is appended in global-age order. A WAL-backed router only
	// accepts encoded submissions (SubmitEncoded, Request.Encoded).
	// Recovery replays the surviving records through SubmitEncoded of
	// a fresh router with the same Shards count — routing is
	// deterministic in (declaration, Shards), so every shard rebuilds
	// exactly its local sequence, cross-shard fences included.
	WAL stm.DurableLog
	// Codec decodes encoded submissions into (access, body) pairs.
	// Required when WAL is set.
	Codec Codec
	// WaitDurable defers ticket resolution until the transaction's
	// global age is durable, not merely committed on its shards.
	// Requires WAL.
	WaitDurable bool

	// CheckpointEvery, when > 0, checkpoints the sharded system every
	// that many appended global ages: the router freezes submissions,
	// waits for the global frontier to reach the freeze point,
	// serializes the Var space plus the per-shard local-age watermarks,
	// and commits the snapshot through the WAL's CheckpointSink (which
	// truncates redundant log history). Requires WAL (implementing
	// stm.CheckpointSink) and Snapshotter.
	CheckpointEvery uint64
	// Snapshotter serializes the application's Var space for
	// checkpoints. Required when CheckpointEvery is set; with it set
	// (and a CheckpointSink WAL), manual Checkpoint calls work even
	// when CheckpointEvery is zero.
	Snapshotter stm.Snapshotter
	// LocalFirstAges seeds each shard's local age sequence when
	// recovering from a checkpoint: DecodeCheckpoint returns the
	// watermarks the checkpoint froze, and a router rebuilt with them
	// (plus Pipeline.FirstAge = the checkpoint's global age) assigns
	// replayed suffix records exactly the local ages they carried
	// originally. Nil (fresh start, or full replay from age zero)
	// means every local sequence starts at zero.
	LocalFirstAges []uint64

	// Obs, when non-nil, attaches the observability registry to the
	// whole sharded system: every shard pipeline gets a shard-labeled
	// view of it (so per-shard commits, aborts, frontier and latency
	// families carry a shard label), and the router adds the
	// cross-shard families — fence-wait histograms, cross-transaction
	// count, global frontier, checkpoint duration. Set it here, not on
	// Pipeline.Obs: the router owns the per-shard scoping. nil (the
	// default) means zero overhead.
	Obs *obs.Registry

	// FenceTimeout bounds how long a cross-shard rendezvous may wait
	// for its participants. Zero (the default) waits forever — correct
	// when every shard is healthy, since a fence at the frontier always
	// commits. With a timeout set, a participant parked longer than
	// this (its peer shard stalled, wedged on a blocked body or a dead
	// disk) raises a *FenceTimeoutError fault: the round is resolved by
	// stopping the world at that transaction's global age — the same
	// single-cut semantics as any genuine fault — instead of holding
	// the involved shards' frontiers hostage forever. Negative values
	// are rejected.
	FenceTimeout time.Duration
}

// ShardedPipeline is the sharded streaming front-end. Submit may be
// called from any number of goroutines; Close must be called to
// release the per-shard workers. See the package documentation for
// the execution model.
type ShardedPipeline struct {
	shards       int
	pipes        []*stm.Pipeline
	retryUnknown bool
	codec        Codec
	dr           *durRouter // router-level durability, nil without a WAL
	so           *shardObs  // router-level observability, nil without Config.Obs
	ncross       atomic.Uint64

	mu        sync.Mutex // router: serializes age assignment and routing
	nextG     uint64
	localNext []uint64 // next local age each shard will assign
	closed    bool

	// Checkpoint machinery; zero-valued unless configured.
	ckptMu   sync.Mutex // serializes checkpoints (auto loop + manual)
	ckptSink stm.CheckpointSink
	snap     stm.Snapshotter
	ckdone   chan struct{} // checkpointer goroutine exit (closed if none)
	lastCkpt uint64        // guarded by mu
	ckptN    uint64        // guarded by mu
	ckptErr  error         // guarded by mu; first checkpoint failure

	fault atomic.Pointer[stm.Fault] // first global fault

	xmu   sync.Mutex
	xlive map[uint64]*xtxn // cross-shard transactions whose round has not completed

	fenceTimeout time.Duration // Config.FenceTimeout

	firstAge  uint64
	closeOnce sync.Once
	closeErr  error
}

// New validates the configuration and starts one pipeline per shard.
func New(cfg Config) (*ShardedPipeline, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if !cfg.Pipeline.Algorithm.Ordered() {
		return nil, fmt.Errorf("shard: %v does not enforce the predefined commit order; sharded determinism requires an ordered algorithm", cfg.Pipeline.Algorithm)
	}
	if cfg.Pipeline.WAL != nil || cfg.Pipeline.Codec != nil || cfg.Pipeline.WaitDurable || cfg.Pipeline.OnCommit != nil {
		return nil, errors.New("shard: configure durability on shard.Config (router-level), not on the per-shard Pipeline config")
	}
	if cfg.Pipeline.Obs != nil {
		return nil, errors.New("shard: set observability on shard.Config.Obs (router-level); the router scopes per-shard views itself")
	}
	if cfg.WAL != nil && cfg.Codec == nil {
		return nil, errors.New("shard: Config.WAL requires Config.Codec")
	}
	if cfg.WaitDurable && cfg.WAL == nil {
		return nil, errors.New("shard: Config.WaitDurable requires Config.WAL")
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.WAL == nil || cfg.Snapshotter == nil {
			return nil, errors.New("shard: Config.CheckpointEvery requires Config.WAL and Config.Snapshotter")
		}
		if _, ok := cfg.WAL.(stm.CheckpointSink); !ok {
			return nil, errors.New("shard: Config.CheckpointEvery requires a WAL implementing stm.CheckpointSink (wal.Writer does)")
		}
	}
	if cfg.LocalFirstAges != nil && len(cfg.LocalFirstAges) != cfg.Shards {
		return nil, fmt.Errorf("shard: LocalFirstAges has %d entries for %d shards", len(cfg.LocalFirstAges), cfg.Shards)
	}
	if cfg.FenceTimeout < 0 {
		return nil, errors.New("shard: negative FenceTimeout")
	}
	pcfg := cfg.Pipeline
	first := pcfg.FirstAge
	pcfg.FirstAge = 0
	if pcfg.TableBits == 0 {
		pcfg.TableBits = meta.ShardTableBits(meta.DefaultTableBits, cfg.Shards)
	}
	sp := &ShardedPipeline{
		shards:       cfg.Shards,
		retryUnknown: pcfg.RetryUnknownPanics,
		codec:        cfg.Codec,
		nextG:        first,
		localNext:    make([]uint64, cfg.Shards),
		firstAge:     first,
		lastCkpt:     first,
		xlive:        make(map[uint64]*xtxn),
		ckdone:       make(chan struct{}),
		fenceTimeout: cfg.FenceTimeout,
	}
	if cfg.LocalFirstAges != nil {
		copy(sp.localNext, cfg.LocalFirstAges)
	}
	if cfg.WAL != nil {
		sp.dr = &durRouter{sp: sp, log: cfg.WAL, wait: cfg.WaitDurable}
	}
	if sink, ok := cfg.WAL.(stm.CheckpointSink); ok && cfg.Snapshotter != nil {
		sp.ckptSink = sink
		sp.snap = cfg.Snapshotter
	}
	if cfg.Obs != nil {
		sp.so = newShardObs(cfg.Obs, sp)
	}
	for s := 0; s < cfg.Shards; s++ {
		scfg := pcfg
		if cfg.Obs != nil {
			scfg.Obs = cfg.Obs.With("shard", strconv.Itoa(s))
		}
		if cfg.LocalFirstAges != nil {
			// Recovery from a checkpoint: the shard's local sequence
			// resumes at its frozen watermark, so replayed suffix
			// records land on exactly their original local ages.
			scfg.FirstAge = cfg.LocalFirstAges[s]
		}
		if sp.dr != nil {
			// The per-shard commit-frontier hook feeds the router's
			// global frontier tracker.
			s := s
			scfg.OnCommit = func(la uint64) { sp.dr.localCommit(s, la) }
		}
		p, err := stm.NewPipeline(scfg)
		if err != nil {
			for _, q := range sp.pipes {
				q.Close()
			}
			return nil, err
		}
		sp.pipes = append(sp.pipes, p)
	}
	if sp.dr != nil {
		sp.dr.track(first, sp.pipes[0].Config().Capacity)
	}
	if cfg.CheckpointEvery > 0 {
		sp.dr.ckptKick = make(chan struct{}, 1)
		sp.dr.feed.Kick(cfg.CheckpointEvery, sp.dr.ckptKick)
		go sp.ckptLoop()
	} else {
		close(sp.ckdone)
	}
	return sp, nil
}

// Request is one transaction handed to a ShardedPipeline. Exactly one
// of Body and Encoded is set; a Request with both or neither is
// refused.
type Request struct {
	// Access declares the variables Body may touch. An Encoded request
	// leaves it unset: the Codec decodes the declaration with the body.
	Access stm.Access
	// Body is the transaction itself; it receives the global age
	// (Tx.Age is global too). A router configured with a WAL refuses it
	// with stm.ErrPayloadRequired.
	Body stm.Body
	// Encoded is the transaction's wire form, decoded through
	// Config.Codec; it requires Config.WAL. Unlike the unsharded
	// Pipeline, the router may retain the payload past the ticket's
	// resolution (the global-age log appends only once every lower
	// global age completed, which can lag a single shard's commit), so
	// it copies the bytes and the caller may reuse its buffer at once.
	// Recovery replay pays that one copy per record.
	Encoded []byte
}

// Submit is SubmitCtx without a context, for a declared body.
func (sp *ShardedPipeline) Submit(access stm.Access, body stm.Body) (*Ticket, error) {
	return sp.SubmitCtx(nil, Request{Access: access, Body: body})
}

// SubmitEncoded is SubmitCtx without a context, for an encoded
// payload — the recovery-replay entry point (wal.Recovery.Replay hands
// surviving records here). Replay requires the same Shards count the
// log was written under; routing is then deterministic and every
// shard rebuilds exactly its original local sequence.
func (sp *ShardedPipeline) SubmitEncoded(data []byte) (*Ticket, error) {
	access, body, owned, err := sp.decode(data)
	if err != nil {
		return nil, err
	}
	return sp.route(nil, access, body, owned)
}

// SubmitCtx hands the sharded pipeline the next transaction of the
// global stream: it assigns the next global age, routes the
// transaction to the shards its declaration involves, and returns a
// Ticket resolving when it commits everywhere it ran. After Close it
// returns stm.ErrClosed; after a fault, the *stm.Stopped error.
//
// ctx bounds the shard-side backpressure wait (a nil ctx never
// cancels). Cancellation is only observed while the submission can
// still be withdrawn without leaving a gap in any (global or local)
// age sequence: before any involved shard has accepted work for it. A
// cancellation inside that window returns an error wrapping
// stm.ErrCanceled and the router state is exactly as if the
// submission never happened; past the window the context is not
// consulted and the call completes normally, so an accepted
// transaction never loses its position (bound the wait with
// Ticket.WaitCtx instead).
func (sp *ShardedPipeline) SubmitCtx(ctx context.Context, r Request) (*Ticket, error) {
	access, body, data, err := sp.resolve(r)
	if err != nil {
		return nil, err
	}
	return sp.route(ctx, access, body, data)
}

// resolve checks a request's form and returns what routes: the
// declaration, the body and, for an encoded request, the router's own
// copy of the payload.
func (sp *ShardedPipeline) resolve(r Request) (stm.Access, stm.Body, []byte, error) {
	switch {
	case (r.Body == nil) == (r.Encoded == nil):
		return stm.Access{}, nil, nil, errRequestForm
	case r.Body != nil && sp.dr != nil:
		return stm.Access{}, nil, nil, stm.ErrPayloadRequired
	case r.Body != nil:
		return r.Access, r.Body, nil, nil
	case r.Access.All() || len(r.Access.Vars()) > 0:
		return stm.Access{}, nil, nil, errEncodedAccess
	}
	return sp.decode(r.Encoded)
}

var (
	errRequestForm   = errors.New("shard: a Request sets exactly one of Body and Encoded")
	errEncodedAccess = errors.New("shard: an Encoded request takes its access declaration from the Codec; leave Access unset")
)

// decode copies an encoded payload — the router may keep it past the
// ticket's resolution — and decodes the copy, which the body may
// alias.
func (sp *ShardedPipeline) decode(data []byte) (stm.Access, stm.Body, []byte, error) {
	if sp.dr == nil {
		return stm.Access{}, nil, nil, errors.New("shard: an encoded submission requires Config.WAL")
	}
	owned := append([]byte(nil), data...)
	access, body, err := sp.codec.Decode(owned)
	if err != nil {
		return stm.Access{}, nil, nil, fmt.Errorf("shard: decode payload: %w", err)
	}
	if body == nil {
		return stm.Access{}, nil, nil, errors.New("shard: Codec decoded a nil body")
	}
	return access, body, owned, nil
}

// route is the single-request entry into the submission core; ctx
// (nil for the uncancellable entry points) bounds the shard-side
// backpressure wait, and data is nil on non-durable routers, else the
// encoded payload the WAL will store.
func (sp *ShardedPipeline) route(ctx context.Context, access stm.Access, body stm.Body, data []byte) (*Ticket, error) {
	home, involved, err := sp.partitions(access)
	if err != nil {
		return nil, err
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.routeLocked(ctx, home, involved, body, data)
}

// routeLocked is the router's one submission core, called with sp.mu
// held: it assigns the next global age and hands the transaction to
// its shards — home alone, or every shard in involved. On cancellation
// the assigned global age is rolled back — safe because sp.mu is held
// from assignment to rollback, so the age was never observable.
func (sp *ShardedPipeline) routeLocked(ctx context.Context, home int, involved []int, body stm.Body, data []byte) (*Ticket, error) {
	if f := sp.fault.Load(); f != nil {
		return nil, &stm.Stopped{Fault: f}
	}
	if sp.closed {
		return nil, stm.ErrClosed
	}
	g := sp.nextG
	sp.nextG++
	var t *Ticket
	var err error
	if involved == nil {
		t, err = sp.submitLocal(ctx, g, home, body, data)
	} else {
		t, err = sp.submitCross(ctx, g, involved, body, data)
	}
	if err != nil && errors.Is(err, stm.ErrCanceled) {
		sp.nextG-- // withdrawn before any shard accepted it; reuse the age
		return nil, err
	}
	if err == nil && involved != nil {
		sp.ncross.Add(1)
	}
	return t, err
}

// SubmitBatch submits the requests as consecutive global ages, taking
// the router's sequencer lock once for the whole batch. Every request
// is checked (and an encoded one copied and decoded) before any age is
// assigned, so a malformed request refuses the whole batch and appends
// nothing. Then each request goes through the router's one submission
// core in order, exactly as consecutive SubmitCtx calls would, but
// with no other producer's age between them.
//
// It appends one Ticket per request to out, index-aligned with reqs,
// and returns the extended slice. On a fault, after Close, or on a
// cancellation of ctx the batch stops at the first request refused:
// accepted requests keep their (valid) tickets, refused positions are
// nil, and the error reports why. ctx follows SubmitCtx's withdrawal
// rule, inside a shard's backpressure park too: the request it
// cancels gives its global age back, and an accepted age is never
// withdrawn.
func (sp *ShardedPipeline) SubmitBatch(ctx context.Context, reqs []Request, out []*Ticket) ([]*Ticket, error) {
	type routed struct {
		body     stm.Body
		data     []byte // the router's copy of an encoded request
		home     int
		involved []int // nil for a single-shard request
	}
	routes := make([]routed, len(reqs))
	for i, r := range reqs {
		access, body, data, err := sp.resolve(r)
		if err == nil {
			routes[i].home, routes[i].involved, err = sp.partitions(access)
		}
		if err != nil {
			return out, fmt.Errorf("shard: request %d of the batch: %w", i, err)
		}
		routes[i].body, routes[i].data = body, data
	}
	n := len(out)
	out = slices.Grow(out, len(reqs))[:n+len(reqs)]
	res := out[n:] // index-aligned with reqs
	clear(res)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for i, r := range routes {
		t, err := sp.routeLocked(ctx, r.home, r.involved, r.body, r.data)
		if err != nil {
			return out, err
		}
		res[i] = t
	}
	return out, nil
}

// partitions resolves an access declaration in one pass: home is the
// lowest involved shard, and involved — built only once a second
// partition shows up — the ascending list of every involved shard, nil
// for a single-shard declaration. An empty declaration is ordered on
// (and confined to) partition 0.
func (sp *ShardedPipeline) partitions(a stm.Access) (home int, involved []int, err error) {
	if sp.shards == 1 {
		return 0, nil, nil
	}
	if a.All() {
		involved = make([]int, sp.shards)
		for s := range involved {
			involved[s] = s
		}
		return 0, involved, nil
	}
	home = -1
	for _, v := range a.Vars() {
		if v == nil {
			return 0, nil, errors.New("shard: nil Var in access declaration")
		}
		switch s := meta.ShardOf(v.ID(), sp.shards); {
		case home < 0:
			home = s
		case s == home: // still one partition: the common case
		case involved == nil:
			involved = []int{home, s}
		case !slices.Contains(involved, s):
			involved = append(involved, s)
		}
	}
	if involved == nil {
		return max(home, 0), nil, nil
	}
	slices.Sort(involved)
	return involved[0], involved, nil
}

// submitLocal routes a single-shard transaction straight to its
// shard's local age sequence. Called with sp.mu held; the per-shard
// Submit may block on that shard's backpressure, which paces the
// whole router — the global sequencer is intentionally the one
// serialization point (and what makes routeLocked's cancellation
// rollback sound). The shard's ticket is the one the record embeds, so the
// submission is one object. On durable routers the global age and its
// local mapping are registered *before* the shard sees the submission,
// so the commit hook can never observe an unmapped age.
func (sp *ShardedPipeline) submitLocal(ctx context.Context, g uint64, s int, body stm.Body, data []byte) (*Ticket, error) {
	l := &localTxn{Ticket: Ticket{g: g, sp: sp}, body: body, shard: s}
	routerOwned := false
	if sp.dr != nil {
		routerOwned = sp.dr.add(g, data, 1, &l.Ticket)
		sp.dr.mapLocal(s, sp.localNext[s], g)
	}
	lt, err := sp.pipes[s].SubmitCtx(ctx, stm.Request{Body: l.run, Ticket: &l.lt})
	if err != nil {
		if sp.dr != nil {
			sp.dr.withdraw(s, sp.localNext[s], g)
		}
		if errors.Is(err, stm.ErrCanceled) {
			return nil, err // withdrawn whole; routeLocked rolls the age back
		}
		return nil, sp.translate(g, err)
	}
	sp.localNext[s]++
	if !routerOwned {
		// Otherwise (WaitDurable) the router resolves the ticket at
		// durability (or via sweepFail/settle), and lt is dropped — safe
		// because every shard fault reaches sp.fail before resolving
		// local tickets (body faults unwind through localTxn.guard, fence
		// faults through part.fence), so lt's own resolution carries no
		// information the router does not already have.
		l.local = lt
	}
	return &l.Ticket, nil
}

// submitCross registers the coordination state and fences every
// involved shard. Called with sp.mu held. On durable routers every
// fence's local age is mapped to g before it is submitted; the
// global age completes (and its payload reaches the WAL) once all
// fences committed — which is exactly "committed on every involved
// shard", and exactly when the returned ticket resolves: its outcome
// is the fence tickets'. Cancellation (non-nil ctx) is honored only on
// the first fence: once any shard accepted a fence the transaction
// owns local ages that cannot be withdrawn, so the remaining fences
// submit uncancellably and the call completes.
func (sp *ShardedPipeline) submitCross(ctx context.Context, g uint64, involved []int, body stm.Body, data []byte) (*Ticket, error) {
	x := newXtxn(sp, g, involved, body)
	routerOwned := sp.dr != nil && sp.dr.add(g, data, len(involved), &x.Ticket)
	sp.xmu.Lock()
	sp.xlive[g] = x
	sp.xmu.Unlock()
	for i := range x.parts {
		h := &x.parts[i]
		s := h.shard
		if sp.dr != nil {
			sp.dr.mapLocal(s, sp.localNext[s], g)
		}
		fctx := ctx
		if i > 0 {
			fctx = nil // past the withdrawal window (see above)
		}
		_, err := sp.pipes[s].SubmitCtx(fctx, stm.Request{Body: h.fence, Ticket: &h.ft})
		if err != nil {
			if sp.dr != nil {
				// The frontier stays frozen below the fault either way.
				// The ticket never escapes.
				sp.dr.withdraw(s, sp.localNext[s], g)
			}
			sp.forget(x)
			if errors.Is(err, stm.ErrCanceled) {
				// First fence, nothing accepted anywhere: withdraw the
				// whole submission; routeLocked rolls the global age back.
				return nil, err
			}
			// A shard refused the fence, which only happens when the
			// system is stopping (Close cannot interleave: it takes
			// sp.mu before closing pipelines). Fences already in
			// flight must be released here too: sp.fail's xlive sweep
			// can race our registration — if its snapshot predates
			// it, nobody else will ever fail this xtxn, and a fence
			// already parked in the rendezvous would strand its worker
			// and deadlock Close.
			if f := sp.fault.Load(); f != nil {
				x.fail(f)
			}
			return nil, sp.translate(g, err)
		}
		sp.localNext[s]++
	}
	if !routerOwned {
		x.out.parts = x.parts
	}
	return &x.Ticket, nil
}

// forget takes x off the list a global stop sweeps: its round
// completed, or its submission was refused.
func (sp *ShardedPipeline) forget(x *xtxn) {
	sp.xmu.Lock()
	delete(sp.xlive, x.g)
	sp.xmu.Unlock()
}

// fail records the first global fault and stops the world: every
// shard pipeline halts (resolving its outstanding local tickets) and
// every in-flight cross-shard rendezvous is released. Never called
// with sp.mu held — a router blocked in a shard's backpressure wait
// is unblocked by the pipeline stops this performs.
func (sp *ShardedPipeline) fail(f *stm.Fault) {
	if !sp.fault.CompareAndSwap(nil, f) {
		return
	}
	for _, p := range sp.pipes {
		p.Stop(f)
	}
	sp.xmu.Lock()
	xs := make([]*xtxn, 0, len(sp.xlive))
	for _, x := range sp.xlive {
		xs = append(xs, x)
	}
	sp.xmu.Unlock()
	for _, x := range xs {
		x.fail(f)
	}
	if sp.dr != nil {
		sp.dr.sweepFail()
	}
}

// translate rewrites a shard-local error into the global vocabulary:
// after a global fault, the faulting transaction's ticket resolves
// with the *stm.Fault itself (carrying the global age) and every
// other unresolved ticket with *stm.Stopped around it, regardless of
// which local error the shard reported.
func (sp *ShardedPipeline) translate(g uint64, err error) error {
	if err == nil {
		return nil
	}
	if f := sp.fault.Load(); f != nil {
		if f.Age == g {
			return f
		}
		return &stm.Stopped{Fault: f}
	}
	return err
}

// Drain blocks until every transaction submitted before the call has
// committed on all its shards and its ticket resolved (or the system
// stopped on a fault, which it returns). The pipeline stays open.
// Draining every shard is enough: a ticket's outcome is its shard
// submissions' tickets, which resolve as those commit.
func (sp *ShardedPipeline) Drain() error {
	for _, p := range sp.pipes {
		if p.Drain() != nil {
			break // the global fault is reported below
		}
	}
	if f := sp.fault.Load(); f != nil {
		return f
	}
	return nil
}

// Close drains and shuts down every shard pipeline and settles the
// router's durability state. It returns the global fault that stopped
// the system, if any. Close is idempotent.
func (sp *ShardedPipeline) Close() error {
	sp.closeOnce.Do(func() {
		sp.mu.Lock()
		sp.closed = true
		sp.mu.Unlock()
		// Closing shard by shard is safe: a draining shard's fences
		// only need their peers' workers, and later shards stay live
		// until their own Close.
		var first error
		for _, p := range sp.pipes {
			if err := p.Close(); err != nil && first == nil {
				first = err
			}
		}
		if sp.dr != nil && sp.dr.ckptKick != nil {
			// Stop the checkpointer after every shard drained; its
			// final checkpoint sees the complete frontier and leaves a
			// log that restarts without replay.
			close(sp.dr.ckptKick)
			<-sp.ckdone
		}
		if sp.dr != nil {
			// Make the tail durable; the sync's observer resolves the
			// WaitDurable tickets still parked, and settle clears
			// anything stranded above a fault's gap. The log stays
			// open — its owner closes it.
			err := sp.dr.settle(sp.dr.log.Sync())
			if err != nil && first == nil {
				first = &stm.DurabilityError{Err: err}
			}
		}
		sp.closeErr = first
		if sp.closeErr == nil {
			sp.mu.Lock()
			sp.closeErr = sp.ckptErr
			sp.mu.Unlock()
		}
		if f := sp.fault.Load(); f != nil {
			sp.closeErr = f
		}
	})
	return sp.closeErr
}

// Shards returns the partition count.
func (sp *ShardedPipeline) Shards() int { return sp.shards }

// PipelineConfig returns the effective per-shard pipeline
// configuration (defaults resolved), as every shard runs it.
func (sp *ShardedPipeline) PipelineConfig() stm.Config {
	return sp.pipes[0].Config()
}

// ShardOf returns the partition owning v under this pipeline's shard
// count.
func (sp *ShardedPipeline) ShardOf(v *stm.Var) int {
	return meta.ShardOf(v.ID(), sp.shards)
}

// Of returns the partition owning v among `shards` partitions — the
// same stable mapping every ShardedPipeline uses, exposed so
// workloads can be laid out partition-locally up front.
func Of(v *stm.Var, shards int) int { return meta.ShardOf(v.ID(), shards) }

// Submitted returns the number of transactions accepted so far.
func (sp *ShardedPipeline) Submitted() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.nextG - sp.firstAge
}

// CrossShard returns how many accepted transactions involved more
// than one shard.
func (sp *ShardedPipeline) CrossShard() uint64 {
	return sp.ncross.Load()
}

// Fault returns the global fault that stopped the system, or nil.
func (sp *ShardedPipeline) Fault() *stm.Fault { return sp.fault.Load() }

// Durable returns the global durability frontier: every global age
// below it is on stable storage and survives a crash of the whole
// sharded system. Without a WAL it returns zero.
func (sp *ShardedPipeline) Durable() uint64 {
	if sp.dr == nil {
		return 0
	}
	return sp.dr.log.Durable()
}

// Stats returns engine counters aggregated across every shard
// (commits, aborts, retries and quiesces summed). Note that each
// cross-shard transaction commits one fence per involved shard, so
// engine-level commits exceed Submitted when cross-shard traffic is
// present.
func (sp *ShardedPipeline) Stats() meta.StatsView {
	var out meta.StatsView
	for _, p := range sp.pipes {
		out = out.Plus(p.Stats())
	}
	return out
}

// ShardStats returns the per-shard engine counter breakdown, indexed
// by shard.
func (sp *ShardedPipeline) ShardStats() []meta.StatsView {
	out := make([]meta.StatsView, len(sp.pipes))
	for s, p := range sp.pipes {
		out[s] = p.Stats()
	}
	return out
}
