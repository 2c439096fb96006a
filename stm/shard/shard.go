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
	"sort"
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
	// Window, Capacity and EpochAges are per shard. FirstAge is the
	// global age of the first submission; the per-shard local age
	// sequences always start at zero. TableBits left zero defaults to
	// a per-shard table shrunk by log2(Shards) — each engine sees only
	// its slice of the variable space, so the aggregate lock-table
	// footprint matches a single unsharded engine. Pipeline.WAL,
	// Pipeline.Codec, Pipeline.WaitDurable and Pipeline.OnCommit must
	// be unset: sharded durability is configured at the router (the
	// fields below), which logs global ages through one WAL.
	Pipeline stm.Config

	// WAL attaches one global-age write-ahead log at the router: as
	// the *global* commit frontier advances (an age is done once every
	// involved shard committed its slice), the encoded payload of each
	// age is appended in global-age order. A WAL-backed router only
	// accepts submissions through SubmitPayload/SubmitEncoded.
	// Recovery replays the surviving records through SubmitEncoded of
	// a fresh router with the same Shards count — routing is
	// deterministic in (declaration, Shards), so every shard rebuilds
	// exactly its local sequence, cross-shard fences included.
	WAL stm.DurableLog
	// Codec encodes durable submission payloads and decodes them back
	// into (access, body) pairs. Required when WAL is set.
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
	xcond *sync.Cond
	xlive map[uint64]*xtxn // cross-shard transactions not yet resolved
	xout  int
	xwg   sync.WaitGroup

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
	sp.xcond = sync.NewCond(&sp.xmu)
	if cfg.WAL != nil {
		sp.dr = newDurRouter(sp, cfg.WAL, cfg.WaitDurable, first, cfg.Shards)
		cfg.WAL.Notify(sp.dr.durableTo)
	}
	if sink, ok := cfg.WAL.(stm.CheckpointSink); ok && cfg.Snapshotter != nil {
		sp.ckptSink = sink
		sp.snap = cfg.Snapshotter
	}
	if cfg.CheckpointEvery > 0 {
		sp.dr.ckptEvery = cfg.CheckpointEvery
		sp.dr.ckptKick = make(chan struct{}, 1)
		go sp.ckptLoop()
	} else {
		close(sp.ckdone)
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
	return sp, nil
}

// Submit hands the sharded pipeline the next transaction of the
// global stream. access declares the variables body may touch; body
// receives the global age (Tx.Age is global too). Submit assigns the
// next global age, routes the transaction to the involved shards, and
// returns a Ticket resolving when it commits everywhere it ran.
// After Close it returns stm.ErrClosed; after a fault, the
// *stm.Stopped error. On a router configured with a WAL, Submit
// returns stm.ErrPayloadRequired — use SubmitPayload or SubmitEncoded
// so the log receives a replayable input.
func (sp *ShardedPipeline) Submit(access stm.Access, body stm.Body) (*Ticket, error) {
	if sp.dr != nil {
		return nil, stm.ErrPayloadRequired
	}
	return sp.route(nil, access, body, nil)
}

// SubmitCtx is Submit with a cancellable backpressure wait, the
// sharded equivalent of stm.Pipeline.SubmitCtx. Cancellation is only
// observed while the submission can still be withdrawn without
// leaving a gap in any (global or local) age sequence: before any
// involved shard has accepted work for it. A cancellation inside that
// window returns an error wrapping stm.ErrCanceled and the router
// state is exactly as if the Submit never happened; past the window
// the context is not consulted and the call completes normally, so an
// accepted transaction never loses its position (bound the wait with
// Ticket.WaitCtx instead).
func (sp *ShardedPipeline) SubmitCtx(ctx context.Context, access stm.Access, body stm.Body) (*Ticket, error) {
	if sp.dr != nil {
		return nil, stm.ErrPayloadRequired
	}
	return sp.route(ctx, access, body, nil)
}

// SubmitPayload encodes payload through the configured Codec, decodes
// it back into the (access, body) pair that will run, and submits it.
// The encoded form is what the router's WAL stores once the global
// age commits on every involved shard.
func (sp *ShardedPipeline) SubmitPayload(payload any) (*Ticket, error) {
	return sp.SubmitPayloadCtx(nil, payload)
}

// SubmitPayloadCtx is SubmitPayload with SubmitCtx's cancellable
// backpressure wait and withdrawal semantics: cancellation inside the
// withdrawal window (before any involved shard accepted work) returns
// an error wrapping stm.ErrCanceled and leaves the router exactly as
// if the submission never happened.
func (sp *ShardedPipeline) SubmitPayloadCtx(ctx context.Context, payload any) (*Ticket, error) {
	if sp.codec == nil {
		return nil, errors.New("shard: SubmitPayload requires Config.Codec")
	}
	data, err := sp.codec.Encode(payload)
	if err != nil {
		return nil, fmt.Errorf("shard: encode payload: %w", err)
	}
	return sp.submitEncodedOwned(ctx, data)
}

// SubmitEncoded submits a payload already in its wire form — the
// recovery-replay entry point (wal.Recovery.Replay hands surviving
// records here). Replay requires the same Shards count the log was
// written under; routing is then deterministic and every shard
// rebuilds exactly its original local sequence.
//
// Unlike the unsharded Pipeline, the router may retain the payload
// past this submission's ticket resolution (the global-age log
// appends only when every lower global age completed, which can lag
// a single shard's commit), so data is copied here and the caller may
// reuse its buffer immediately. Recovery replay pays that one copy
// per record — bounded by the log size, and only on the rare restart
// path.
func (sp *ShardedPipeline) SubmitEncoded(data []byte) (*Ticket, error) {
	return sp.SubmitEncodedCtx(nil, data)
}

// SubmitEncodedCtx is SubmitEncoded with SubmitCtx's cancellable
// backpressure wait and withdrawal semantics — the ingress path for
// servers feeding pre-encoded request frames under a per-request
// context. Like SubmitEncoded it copies data, so the caller may reuse
// its buffer immediately.
func (sp *ShardedPipeline) SubmitEncodedCtx(ctx context.Context, data []byte) (*Ticket, error) {
	return sp.submitEncodedOwned(ctx, append([]byte(nil), data...))
}

// submitEncodedOwned is SubmitEncoded for payload bytes the router
// may keep (freshly encoded, or recovery records); ctx (nil for the
// uncancellable entry points) bounds the shard-side backpressure wait.
func (sp *ShardedPipeline) submitEncodedOwned(ctx context.Context, data []byte) (*Ticket, error) {
	if sp.dr == nil {
		return nil, errors.New("shard: SubmitEncoded requires Config.WAL")
	}
	access, body, err := sp.codec.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("shard: decode payload: %w", err)
	}
	return sp.route(ctx, access, body, data)
}

// route is the shared submission core; ctx (nil for the uncancellable
// entry points) bounds the shard-side backpressure wait, and data is
// nil on non-durable routers, else the encoded payload the WAL will
// store. On cancellation the assigned global age is rolled back —
// safe because sp.mu is held from assignment to rollback, so the age
// was never observable.
func (sp *ShardedPipeline) route(ctx context.Context, access stm.Access, body stm.Body, data []byte) (*Ticket, error) {
	if body == nil {
		return nil, errors.New("shard: nil body")
	}
	involved, err := sp.partitions(access)
	if err != nil {
		return nil, err
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if f := sp.fault.Load(); f != nil {
		return nil, &stm.Stopped{Fault: f}
	}
	if sp.closed {
		return nil, stm.ErrClosed
	}
	g := sp.nextG
	sp.nextG++
	var t *Ticket
	if len(involved) == 1 {
		t, err = sp.submitLocal(ctx, g, involved[0], body, data)
	} else {
		t, err = sp.submitCross(ctx, g, involved, body, data)
	}
	if err != nil && errors.Is(err, stm.ErrCanceled) {
		sp.nextG-- // withdrawn before any shard accepted it; reuse the age
		return nil, err
	}
	if err == nil && len(involved) > 1 {
		sp.ncross.Add(1)
	}
	return t, err
}

// Request pairs a declared access set with a transaction body for
// batched submission.
type Request struct {
	Access stm.Access
	Body   stm.Body
}

// SubmitBatch submits the requests as consecutive global ages, taking
// the router's sequencer lock once for the whole batch. Single-shard
// runs are forwarded to their shard's Pipeline.SubmitBatch (one
// per-shard stream lock per run instead of one per transaction);
// cross-shard requests flush the pending runs of their involved shards
// first, so every shard still receives its slice of the global age
// sequence in order — the invariant the determinism argument rests on.
//
// It returns one Ticket per request. On a fault or after Close the
// batch stops early: accepted requests keep their (valid) tickets,
// refused positions are nil, and the error reports why. Backpressure
// applies inside the batch exactly as for consecutive Submits. On a
// router configured with a WAL it returns stm.ErrPayloadRequired —
// use SubmitPayloadBatch or SubmitEncodedBatch so the log receives
// replayable inputs.
func (sp *ShardedPipeline) SubmitBatch(reqs []Request) ([]*Ticket, error) {
	if sp.dr != nil {
		return nil, stm.ErrPayloadRequired
	}
	return sp.submitBatch(nil, reqs, nil)
}

// SubmitBatchCtx is SubmitBatch with a cancellable wait: cancellation
// is observed between requests — before the next global age is
// assigned — stopping the batch there with an error wrapping
// stm.ErrCanceled (accepted requests keep their tickets). It is not
// consulted inside a shard's backpressure park once a flush began, so
// an assigned age is never withdrawn.
func (sp *ShardedPipeline) SubmitBatchCtx(ctx context.Context, reqs []Request) ([]*Ticket, error) {
	if sp.dr != nil {
		return nil, stm.ErrPayloadRequired
	}
	return sp.submitBatch(ctx, reqs, nil)
}

// SubmitPayloadBatch is SubmitBatch for durable routers: each payload
// is encoded, decoded into its (access, body) pair, and the batch
// submitted as consecutive global ages, with SubmitBatch's
// partial-acceptance semantics. The encoded forms reach the WAL in
// global-age order as the global frontier passes them.
func (sp *ShardedPipeline) SubmitPayloadBatch(payloads []any) ([]*Ticket, error) {
	return sp.SubmitPayloadBatchCtx(nil, payloads)
}

// SubmitPayloadBatchCtx is SubmitPayloadBatch with SubmitBatchCtx's
// between-requests cancellation rule.
func (sp *ShardedPipeline) SubmitPayloadBatchCtx(ctx context.Context, payloads []any) ([]*Ticket, error) {
	if sp.codec == nil {
		return nil, errors.New("shard: SubmitPayloadBatch requires Config.Codec")
	}
	datas := make([][]byte, len(payloads))
	for i, pl := range payloads {
		data, err := sp.codec.Encode(pl)
		if err != nil {
			return nil, fmt.Errorf("shard: encode payload %d: %w", i, err)
		}
		datas[i] = data
	}
	return sp.submitEncodedBatchOwned(ctx, datas)
}

// SubmitEncodedBatch is SubmitEncoded's batched form: each element is
// decoded through the Codec and the batch submitted as consecutive
// global ages. Like SubmitEncoded (and unlike the unsharded
// Pipeline's SubmitEncodedBatch) every element is copied, because the
// router may retain payloads past ticket resolution; callers may
// reuse their buffers immediately.
func (sp *ShardedPipeline) SubmitEncodedBatch(datas [][]byte) ([]*Ticket, error) {
	return sp.SubmitEncodedBatchCtx(nil, datas)
}

// SubmitEncodedBatchCtx is SubmitEncodedBatch with SubmitBatchCtx's
// between-requests cancellation rule — the batched ingress path for
// servers feeding pre-encoded frames under a connection context.
func (sp *ShardedPipeline) SubmitEncodedBatchCtx(ctx context.Context, datas [][]byte) ([]*Ticket, error) {
	owned := make([][]byte, len(datas))
	for i, d := range datas {
		owned[i] = append([]byte(nil), d...)
	}
	return sp.submitEncodedBatchOwned(ctx, owned)
}

// submitEncodedBatchOwned decodes owned payload bytes into requests
// and runs the shared batch core with the payloads attached.
func (sp *ShardedPipeline) submitEncodedBatchOwned(ctx context.Context, datas [][]byte) ([]*Ticket, error) {
	if sp.dr == nil {
		return nil, errors.New("shard: SubmitEncodedBatch requires Config.WAL")
	}
	reqs := make([]Request, len(datas))
	for i, data := range datas {
		access, body, err := sp.codec.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("shard: decode payload %d: %w", i, err)
		}
		reqs[i] = Request{Access: access, Body: body}
	}
	return sp.submitBatch(ctx, reqs, datas)
}

// submitBatch is the shared batch core; datas is nil on non-durable
// routers, else parallel to reqs (owned encoded payloads). On durable
// routers each single-shard request registers its global age and
// local-age mapping at queue time — before any shard sees it — so the
// commit hook can never observe an unmapped age, exactly like
// submitLocal; a flush refusal unwinds the registrations of the
// refused suffix. A non-nil ctx is consulted between requests only.
func (sp *ShardedPipeline) submitBatch(ctx context.Context, reqs []Request, datas [][]byte) ([]*Ticket, error) {
	parts := make([][]int, len(reqs))
	for i := range reqs {
		if reqs[i].Body == nil {
			return nil, errors.New("shard: nil body")
		}
		p, err := sp.partitions(reqs[i].Access)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	out := make([]*Ticket, len(reqs))
	pend := make([][]stm.Body, sp.shards) // per-shard run of wrapped bodies
	pendIdx := make([][]int, sp.shards)   // request index per pending body
	pendAge := make([][]uint64, sp.shards)
	var pendRT [][]*Ticket // WaitDurable: router-owned ticket per pending body
	if sp.dr != nil {
		pendRT = make([][]*Ticket, sp.shards)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	flush := func(s int) error {
		if len(pend[s]) == 0 {
			return nil
		}
		lts, err := sp.pipes[s].SubmitBatch(pend[s])
		base := sp.localNext[s]
		sp.localNext[s] += uint64(len(lts))
		for k := range lts {
			idx := pendIdx[s][k]
			if sp.dr != nil && pendRT[s][k] != nil {
				out[idx] = pendRT[s][k] // WaitDurable: resolved by the router
			} else {
				out[idx] = &Ticket{g: pendAge[s][k], sp: sp, local: lts[k]}
			}
		}
		if sp.dr != nil {
			// Refused suffix: those ages can never complete; unwind their
			// registrations so the frontier tracker never waits on them.
			for k := len(lts); k < len(pend[s]); k++ {
				sp.dr.unmapLocal(s, base+uint64(k))
				sp.dr.drop(pendAge[s][k])
			}
			pendRT[s] = pendRT[s][:0]
		}
		pend[s], pendIdx[s], pendAge[s] = pend[s][:0], pendIdx[s][:0], pendAge[s][:0]
		return err
	}
	flushAll := func() error {
		var first error
		for s := 0; s < sp.shards; s++ {
			if err := flush(s); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	// batchErr rewrites a shard-local refusal into the global
	// vocabulary without a specific faulting age.
	batchErr := func(err error) error {
		if f := sp.fault.Load(); f != nil {
			return &stm.Stopped{Fault: f}
		}
		return err
	}
	for i := range reqs {
		if f := sp.fault.Load(); f != nil {
			flushAll()
			return out, &stm.Stopped{Fault: f}
		}
		if sp.closed {
			flushAll()
			return out, stm.ErrClosed
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				flushAll()
				return out, fmt.Errorf("%w before an age was assigned: %w", stm.ErrCanceled, err)
			}
		}
		g := sp.nextG
		sp.nextG++
		if len(parts[i]) == 1 {
			s := parts[i][0]
			body := reqs[i].Body
			wrapped := func(tx stm.Tx, _ int) {
				defer sp.guard(g, tx)
				body(&checkedTx{tx: tx, shards: sp.shards, shard: s, g: g}, int(g))
			}
			if sp.dr != nil {
				rt := sp.dr.add(g, datas[i], 1)
				sp.dr.mapLocal(s, sp.localNext[s]+uint64(len(pend[s])), g)
				pendRT[s] = append(pendRT[s], rt)
			}
			pend[s] = append(pend[s], wrapped)
			pendIdx[s] = append(pendIdx[s], i)
			pendAge[s] = append(pendAge[s], g)
			continue
		}
		// Cross-shard: its fences must reach every involved shard after
		// the locals already assigned lower global ages there.
		for _, s := range parts[i] {
			if err := flush(s); err != nil {
				flushAll()
				return out, batchErr(err)
			}
		}
		sp.ncross.Add(1)
		var data []byte
		if datas != nil {
			data = datas[i]
		}
		t, err := sp.submitCross(nil, g, parts[i], reqs[i].Body, data)
		if err != nil {
			flushAll()
			return out, batchErr(err)
		}
		out[i] = t
	}
	if err := flushAll(); err != nil {
		return out, batchErr(err)
	}
	return out, nil
}

// partitions resolves an access declaration to the ascending list of
// involved shards. An empty declaration is ordered on (and confined
// to) partition 0.
func (sp *ShardedPipeline) partitions(a stm.Access) ([]int, error) {
	if sp.shards == 1 {
		return []int{0}, nil
	}
	if a.All() {
		all := make([]int, sp.shards)
		for s := range all {
			all[s] = s
		}
		return all, nil
	}
	seen := make([]bool, sp.shards)
	var out []int
	for _, v := range a.Vars() {
		if v == nil {
			return nil, errors.New("shard: nil Var in access declaration")
		}
		if s := meta.ShardOf(v.ID(), sp.shards); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return []int{0}, nil
	}
	sort.Ints(out)
	return out, nil
}

// submitLocal routes a single-shard transaction straight to its
// shard's local age sequence. Called with sp.mu held; the per-shard
// Submit may block on that shard's backpressure, which paces the
// whole router — the global sequencer is intentionally the one
// serialization point (and what makes route's cancellation rollback
// sound). On durable routers the global age and its local mapping are
// registered *before* the shard sees the submission, so the commit
// hook can never observe an unmapped age.
func (sp *ShardedPipeline) submitLocal(ctx context.Context, g uint64, s int, body stm.Body, data []byte) (*Ticket, error) {
	wrapped := func(tx stm.Tx, _ int) {
		defer sp.guard(g, tx)
		body(&checkedTx{tx: tx, shards: sp.shards, shard: s, g: g}, int(g))
	}
	var rt *Ticket
	if sp.dr != nil {
		rt = sp.dr.add(g, data, 1)
		sp.dr.mapLocal(s, sp.localNext[s], g)
	}
	lt, err := sp.pipes[s].SubmitCtx(ctx, wrapped)
	if err != nil {
		if sp.dr != nil {
			sp.dr.unmapLocal(s, sp.localNext[s])
			sp.dr.drop(g)
		}
		if errors.Is(err, stm.ErrCanceled) {
			return nil, err // withdrawn whole; route rolls the age back
		}
		return nil, sp.translate(g, err)
	}
	sp.localNext[s]++
	if rt != nil {
		// WaitDurable: the router resolves rt at durability (or via
		// sweepFail/settle), and lt is dropped — safe because every
		// shard fault reaches sp.fail before resolving local tickets
		// (body faults unwind through sp.guard, fence faults through
		// fenceBody), so lt's own resolution carries no information
		// the router does not already have.
		return rt, nil
	}
	return &Ticket{g: g, sp: sp, local: lt}, nil
}

// guard mirrors the run-loop sandbox's fault classification one level
// up: a genuine fault must stop every shard, not just the one that
// hit it, so the global predefined order is cut at a single point.
func (sp *ShardedPipeline) guard(g uint64, tx stm.Tx) {
	rec := recover()
	if rec == nil {
		return
	}
	if !speculative(rec, tx) && !sp.retryUnknown {
		sp.fail(&stm.Fault{Age: g, Value: rec})
	}
	panic(rec)
}

// submitCross registers the coordination state and fences every
// involved shard. Called with sp.mu held. On durable routers every
// fence's local age is mapped to g before it is submitted; the
// global age completes (and its payload reaches the WAL) once all
// fences committed — which is exactly "committed on every involved
// shard". Cancellation (non-nil ctx) is honored only on the first
// fence: once any shard accepted a fence the transaction owns local
// ages that cannot be withdrawn, so the remaining fences submit
// uncancellably and the call completes.
func (sp *ShardedPipeline) submitCross(ctx context.Context, g uint64, involved []int, body stm.Body, data []byte) (*Ticket, error) {
	x := newXtxn(sp, g, involved, body)
	var t *Ticket
	routerOwned := false
	if sp.dr != nil {
		if rt := sp.dr.add(g, data, len(involved)); rt != nil {
			t = rt // WaitDurable: the router resolves it at durability
			routerOwned = true
		}
	}
	if t == nil {
		t = &Ticket{g: g, sp: sp}
	}
	sp.xmu.Lock()
	sp.xlive[g] = x
	sp.xout++
	sp.xmu.Unlock()
	fences := make([]*stm.Ticket, 0, len(involved))
	for i, s := range involved {
		if sp.dr != nil {
			sp.dr.mapLocal(s, sp.localNext[s], g)
		}
		fctx := ctx
		if i > 0 {
			fctx = nil // past the withdrawal window (see above)
		}
		ft, err := sp.pipes[s].SubmitCtx(fctx, sp.fenceBody(x, s))
		if err != nil {
			if errors.Is(err, stm.ErrCanceled) {
				// First fence, nothing accepted anywhere: withdraw the
				// whole submission. The ticket never escaped, so it is
				// dropped unresolved; route rolls the global age back.
				if sp.dr != nil {
					sp.dr.unmapLocal(s, sp.localNext[s])
					sp.dr.drop(g)
				}
				sp.xfinish(g)
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
			if sp.dr != nil {
				sp.dr.unmapLocal(s, sp.localNext[s])
			}
			if f := sp.fault.Load(); f != nil {
				x.fail(f)
			}
			terr := sp.translate(g, err)
			if routerOwned {
				sp.dr.resolveErr(g, terr)
			} else {
				resolveTicket(t, err)
			}
			if sp.dr != nil {
				// Mirror submitLocal's cleanup: the refused age can
				// never complete, so stop tracking it (fences already
				// in flight find no entry, which localCommit tolerates;
				// the frontier stays frozen below the fault either way).
				sp.dr.drop(g)
			}
			sp.xfinish(g)
			return nil, terr
		}
		sp.localNext[s]++
		fences = append(fences, ft)
	}
	sp.xwg.Add(1)
	go func() {
		defer sp.xwg.Done()
		var err error
		for _, ft := range fences {
			if e := ft.Wait(); e != nil && err == nil {
				err = e
			}
		}
		if routerOwned {
			// The router resolves the ticket at durability; the
			// aggregator only surfaces fence failures (a fault on any
			// involved shard).
			if err != nil {
				sp.dr.resolveErr(g, sp.translate(g, err))
			}
		} else {
			resolveTicket(t, err)
		}
		sp.xfinish(g)
	}()
	return t, nil
}

func (sp *ShardedPipeline) xfinish(g uint64) {
	sp.xmu.Lock()
	x := sp.xlive[g]
	if x != nil {
		x.disarm()
	}
	delete(sp.xlive, g)
	sp.xout--
	sp.xcond.Broadcast()
	sp.xmu.Unlock()
	if f := sp.fault.Load(); f != nil && x != nil {
		// sp.fail stops the pipelines before it sweeps xlive, and a stop
		// resolves the fence tickets the aggregator waits on — so the
		// aggregator can take x off the list inside that window, with
		// peers still parked in the rendezvous. Whoever removes x after
		// a fault releases them (a no-op once the body completed).
		x.fail(f)
	}
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
		sp.dr.sweepFail(f)
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
func (sp *ShardedPipeline) Drain() error {
	for _, p := range sp.pipes {
		if p.Drain() != nil {
			break // the global fault is reported below
		}
	}
	sp.xmu.Lock()
	for sp.xout > 0 && sp.fault.Load() == nil {
		sp.xcond.Wait()
	}
	sp.xmu.Unlock()
	if f := sp.fault.Load(); f != nil {
		return f
	}
	return nil
}

// Close drains and shuts down every shard pipeline and waits for all
// cross-shard bookkeeping to settle. It returns the global fault that
// stopped the system, if any. Close is idempotent.
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
		sp.xwg.Wait()
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
			err := sp.dr.log.Sync()
			if err == nil {
				err = sp.dr.lastErr()
			}
			if err != nil && first == nil {
				first = &stm.DurabilityError{Err: err}
			}
			sp.dr.settle(sp.fault.Load())
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
