package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/internal/arena"
	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/serve"
	"github.com/orderedstm/ostm/stm/wal"
)

// Boot is everything a follower hands its owner to build the live
// pipeline, assembled from local crash recovery plus (for a fresh
// follower of a compacted leader) the leader's checkpoint. The owner
// must: build its engine with FirstAge as the pipeline's first age,
// restore Snapshot into the engine's variables when non-nil, attach
// Writer as the pipeline's WAL, replay Records in order through
// SubmitEncoded, and drain — exactly the recovery dance a restarting
// leader performs, because a follower boot IS a recovery that then
// keeps replaying from the network instead of stopping.
type Boot struct {
	// FirstAge is the pipeline's starting age (checkpoint age when a
	// snapshot is present, else the log's first record).
	FirstAge uint64
	// Snapshot is the checkpoint state to restore before replay (nil
	// when none); SnapshotAge its frontier.
	Snapshot    []byte
	SnapshotAge uint64
	// FromLeader reports that Snapshot came over the wire (fresh
	// follower of a compacted leader) rather than from local disk.
	FromLeader bool
	// Records is the local replay suffix, in age order.
	Records []wal.Record
	// Writer is the follower's local log, already positioned at the
	// replay frontier. Attach it as the pipeline's WAL: the pipeline
	// then appends every applied record locally at commit, which is
	// what keeps the follower's log a contiguous, durable prefix of
	// the leader's at all times.
	Writer *wal.Writer
}

// Runtime is the running engine a follower drives: Submit feeds one
// encoded record (the owner's SubmitEncoded), Drain awaits full
// commit + durability of everything submitted (the owner's Drain).
//
// The payload handed to Submit is a slice of the follower's receive
// buffer, lent under the SubmitEncoded contract: it stays intact until
// the record has been appended to Boot.Writer — which the pipeline
// does at commit, after the body's last execution — and may be
// overwritten any time after. A Submit that keeps the bytes longer
// (the sharded router queues them past its return) must copy them,
// as shard.SubmitEncoded does.
type Runtime struct {
	Submit func(payload []byte) error
	Drain  func() error
}

// FollowerConfig parameterizes StartFollower.
type FollowerConfig struct {
	// Dir is the follower's local WAL directory.
	Dir string
	// Leader is the leader's listener address ("host:port"). Empty
	// means start detached: boot from local disk and wait for
	// promotion (used when the leader is already gone).
	Leader string
	// Boot builds the live engine from the assembled Boot; see Boot.
	Boot func(Boot) (Runtime, error)
	// WAL configures the local writer.
	WAL wal.Options
	// Obs, when non-nil, registers the follower-side replication
	// metric families (ostm_repl_*).
	Obs *obs.Registry
	// ReconnectBackoff paces stream redials (default 100ms, doubled
	// to a 2s cap).
	ReconnectBackoff time.Duration
	// MaxFrame bounds accepted stream frames (default
	// DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds each connect attempt, including the initial
	// bootstrap probe (default 3s).
	DialTimeout time.Duration
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = 100 * time.Millisecond
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	return c
}

// Follower is a hot standby: it boots its engine by local crash
// recovery (or a leader checkpoint when starting fresh against a
// compacted leader), then applies the leader's record stream through
// the live pipeline for as long as it runs. Reads are served at the
// apply frontier; writes are refused through Gate until Promote.
type Follower struct {
	cfg    FollowerConfig
	writer *wal.Writer
	rt     Runtime

	applyNext atomic.Uint64 // age of the next record to apply
	promoted  atomic.Bool

	leaderFrontier atomic.Uint64 // newest hello/heartbeat age
	leaderBytes    atomic.Uint64 // newest hello/heartbeat aux
	localBytes     atomic.Uint64 // boot baseline + applied frame bytes
	byteSkew       atomic.Int64  // leaderBytes - localBytes at caught-up
	calibrated     atomic.Bool

	applied    atomic.Uint64
	appliedB   atomic.Uint64
	reconnects atomic.Uint64
	snapshots  atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	connMu   sync.Mutex
	cancel   context.CancelFunc // cancels the in-flight stream request

	errMu sync.Mutex
	err   error // fatal stream error; the follower has stopped applying

	// ring holds the group frames being applied, so that receiving one
	// allocates nothing and its records' payloads reach Runtime.Submit
	// as slices of it. A group's bytes are dead once the local writer's
	// Next() has passed its last age: the unsharded pipeline has copied
	// the payload into the log by then (at commit, the SubmitEncoded
	// contract) and the sharded router copied it at submit, so the one
	// rule covers every Runtime and needs no ticket. held queues the
	// groups not yet released, oldest first. Both belong to the apply
	// loop. A follower that falls a ring's worth behind its own
	// pipeline reads further groups into the heap.
	ring *arena.Ring
	held []heldGroup
}

// ringSize is the follower's receive ring: a few group frames of the
// shipper's default FlushBytes.
const ringSize = 1 << 20

// heldGroup is an applied group whose buffer is still lent out.
type heldGroup struct {
	end  uint64 // one past the group's last age
	mark uint64 // ring release point covering the group
}

// streamConn is one open stream to the leader.
type streamConn struct {
	resp *http.Response
	br   *bufio.Reader
	tr   *http.Transport
}

func (sc *streamConn) close() {
	sc.resp.Body.Close()
	sc.tr.CloseIdleConnections()
}

// dialStream opens the leader's stream endpoint starting at from.
func (f *Follower) dialStream(from uint64) (*streamConn, error) {
	tr := &http.Transport{}
	tr.Protocols = new(http.Protocols)
	tr.Protocols.SetUnencryptedHTTP2(true)
	ctx, cancel := context.WithCancel(context.Background())
	f.connMu.Lock()
	f.cancel = cancel
	f.connMu.Unlock()
	url := fmt.Sprintf("http://%s/repl/stream?from=%d", f.cfg.Leader, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The dial timeout covers connect + headers; once streaming, the
	// context stays live until stop/promotion cancels it.
	timer := time.AfterFunc(f.cfg.DialTimeout, cancel)
	resp, err := tr.RoundTrip(req)
	timer.Stop()
	if err != nil {
		cancel()
		return nil, fmt.Errorf("repl: dial %s: %w", f.cfg.Leader, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("repl: leader answered %s", resp.Status)
	}
	return &streamConn{resp: resp, br: bufio.NewReaderSize(resp.Body, 1<<20), tr: tr}, nil
}

// StartFollower recovers the local log, boots the engine through
// cfg.Boot, and starts applying the leader's stream in the
// background. A fresh follower (empty Dir) asks the leader first: if
// the leader has compacted away the log's start, the boot is seeded
// from the leader's checkpoint snapshot instead of local disk.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" || cfg.Boot == nil {
		return nil, errors.New("repl: FollowerConfig.Dir and Boot are required")
	}
	rec, err := wal.Recover(cfg.Dir)
	if err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, stop: make(chan struct{}), loopDone: make(chan struct{}), ring: arena.New(ringSize)}

	boot := Boot{
		FirstAge:    rec.First(),
		Snapshot:    rec.CheckpointState(),
		SnapshotAge: rec.CheckpointAge(),
		Records:     rec.Records(),
	}
	var sc *streamConn
	var pending []frame // frames consumed during bootstrap, not yet applied
	fresh := rec.Next() == 0 && !rec.HasCheckpoint()
	if fresh && cfg.Leader != "" {
		// Bootstrap probe: connect before booting, because only the
		// leader knows whether age 0 still exists in its log. The
		// first post-hello frame decides (the shipper always follows
		// hello promptly with a snapshot, a record, or a caught-up
		// heartbeat).
		if sc, err = f.dialStream(0); err == nil {
			var first frame
			if first, err = f.expectHello(sc); err != nil {
				sc.close()
				return nil, err
			}
			if first.typ == frameSnapshot {
				if wal.RecordCRC(first.age, first.payload) != first.crc {
					sc.close()
					return nil, errors.New("repl: bootstrap snapshot failed its checksum")
				}
				boot = Boot{
					FirstAge:    first.age,
					Snapshot:    first.payload,
					SnapshotAge: first.age,
					FromLeader:  true,
				}
				f.snapshots.Add(1)
			} else {
				pending = append(pending, first)
			}
		} else {
			sc = nil // leader unreachable: boot local, keep retrying in the loop
		}
	}

	if boot.FromLeader {
		// Seed the local log exactly as a checkpointed leader would
		// look after recovery: a fresh log starting at the snapshot
		// age, carrying the snapshot as its first checkpoint.
		w, werr := wal.Create(cfg.Dir, boot.SnapshotAge, cfg.WAL)
		if werr != nil {
			sc.close()
			return nil, werr
		}
		if werr := w.Checkpoint(boot.SnapshotAge, boot.Snapshot); werr != nil {
			sc.close()
			w.Close()
			return nil, werr
		}
		f.writer = w
	} else {
		w, werr := rec.Writer(cfg.WAL)
		if werr != nil {
			if sc != nil {
				sc.close()
			}
			return nil, werr
		}
		f.writer = w
	}
	boot.Writer = f.writer

	rt, err := cfg.Boot(boot)
	if err != nil {
		if sc != nil {
			sc.close()
		}
		f.writer.Close()
		return nil, err
	}
	if rt.Submit == nil || rt.Drain == nil {
		if sc != nil {
			sc.close()
		}
		return nil, errors.New("repl: Boot must return a Runtime with Submit and Drain")
	}
	f.rt = rt
	f.applyNext.Store(f.writer.Next())
	f.localBytes.Store(f.writer.Bytes())
	if cfg.Obs != nil {
		f.registerObs(cfg.Obs)
	}
	go f.loop(sc, pending)
	return f, nil
}

// expectHello reads the stream's hello and the first substantive
// frame after it (the shipper always sends one promptly).
func (f *Follower) expectHello(sc *streamConn) (frame, error) {
	h, err := readStreamFrame(sc.br, f.cfg.MaxFrame, f.ring)
	if err != nil {
		return frame{}, fmt.Errorf("repl: reading hello: %w", err)
	}
	if h.typ != frameHello {
		return frame{}, fmt.Errorf("repl: stream opened with %s, want hello", frameName(h.typ))
	}
	f.leaderFrontier.Store(h.age)
	f.leaderBytes.Store(h.aux)
	return readStreamFrame(sc.br, f.cfg.MaxFrame, f.ring)
}

// loop is the apply loop: (re)connect, validate, apply, repeat until
// stopped. sc, when non-nil, is the bootstrap connection with hello
// already consumed; pending are frames read during bootstrap.
func (f *Follower) loop(sc *streamConn, pending []frame) {
	defer close(f.loopDone)
	backoff := f.cfg.ReconnectBackoff
	for _, fr := range pending {
		if err := f.apply(fr); err != nil {
			f.fail(err)
			if sc != nil {
				sc.close()
			}
			return
		}
	}
	for {
		select {
		case <-f.stop:
			if sc != nil {
				sc.close()
			}
			return
		default:
		}
		if sc == nil {
			if f.cfg.Leader == "" {
				// Detached: nothing to stream; wait for promotion.
				<-f.stop
				return
			}
			var err error
			if sc, err = f.dialStream(f.applyNext.Load()); err != nil {
				select {
				case <-f.stop:
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > 2*time.Second {
					backoff = 2 * time.Second
				}
				continue
			}
			f.reconnects.Add(1)
			h, err := readStreamFrame(sc.br, f.cfg.MaxFrame, f.ring)
			if err != nil || h.typ != frameHello {
				sc.close()
				sc = nil
				continue
			}
			f.leaderFrontier.Store(h.age)
			f.leaderBytes.Store(h.aux)
			backoff = f.cfg.ReconnectBackoff
		}
		f.releaseApplied()
		fr, err := readStreamFrame(sc.br, f.cfg.MaxFrame, f.ring)
		if err != nil {
			sc.close()
			sc = nil
			continue // stream dropped; redial from the apply frontier
		}
		if err := f.apply(fr); err != nil {
			f.fail(err)
			sc.close()
			return
		}
	}
}

// apply consumes one stream frame. A group's records go, one by one,
// through exactly the validation recovery applies to disk bytes — the
// WAL's frame rule and the contiguous expected age — and then into the
// live pipeline; the pipeline's attached writer appends them locally
// at commit, so the local log never holds an age the engine has not
// applied.
func (f *Follower) apply(fr frame) error {
	switch fr.typ {
	case frameGroup:
		first := f.applyNext.Load()
		if fr.age != first {
			return fmt.Errorf("repl: stream broke age order: got %d, want %d", fr.age, first)
		}
		rest, err := f.applyGroup(fr.payload)
		end := f.applyNext.Load()
		if err == nil && end-first != fr.aux {
			err = fmt.Errorf("repl: group at %d holds %d records, its header says %d", first, end-first, fr.aux)
		}
		nbytes := uint64(len(fr.payload) - len(rest))
		f.applied.Add(end - first)
		f.appliedB.Add(nbytes)
		f.localBytes.Add(nbytes)
		// A group the ring could not take (the mark has not moved) is the
		// garbage collector's to free.
		if mark := f.ring.Mark(); len(f.held) == 0 || f.held[len(f.held)-1].mark != mark {
			f.held = append(f.held, heldGroup{end: end, mark: mark})
		}
		return err
	case frameHeartbeat, frameHello:
		f.leaderFrontier.Store(fr.age)
		f.leaderBytes.Store(fr.aux)
		if fr.age == f.applyNext.Load() {
			// Caught up: leader and follower name the same frontier, so
			// the difference of their cumulative byte counters is the
			// constant history offset between the two logs. Keep the
			// smallest observed value — the leader's counter can run a
			// transient in-flight group ahead of its frontier.
			skew := int64(fr.aux) - int64(f.localBytes.Load())
			if !f.calibrated.Load() || skew < f.byteSkew.Load() {
				f.byteSkew.Store(skew)
				f.calibrated.Store(true)
			}
		}
		return nil
	case frameSnapshot:
		// A running pipeline's state cannot be replaced: landing here
		// means the follower fell behind the leader's checkpoint
		// retention mid-life. Rebuilding needs a fresh start.
		return fmt.Errorf("repl: leader compacted past our frontier %d (snapshot at %d): follower must restart from scratch", f.applyNext.Load(), fr.age)
	default:
		return fmt.Errorf("repl: unknown frame %s", frameName(fr.typ))
	}
}

// applyGroup walks a group's raw frames, submitting each record that
// passes; the apply frontier advances record by record. It stops at
// the first that fails the frame rule, breaks the age order or is
// refused by the runtime, and returns the bytes from there on:
// everything before them has been applied, nothing in them is.
func (f *Follower) applyGroup(b []byte) ([]byte, error) {
	for expect := f.applyNext.Load(); len(b) > 0; expect++ {
		age, payload, rest, err := wal.ParseFrame(b)
		if err != nil {
			return b, fmt.Errorf("repl: record %d: %w", expect, err)
		}
		if age != expect {
			return b, fmt.Errorf("repl: stream broke age order: got %d, want %d", age, expect)
		}
		if err := f.rt.Submit(payload); err != nil {
			return b, fmt.Errorf("repl: applying record %d: %w", age, err)
		}
		f.applyNext.Store(expect + 1)
		b = rest
	}
	return nil, nil
}

// releaseApplied gives back the ring space of every group the local
// log has fully appended.
func (f *Follower) releaseApplied() {
	next, n := f.writer.Next(), 0
	for n < len(f.held) && f.held[n].end <= next {
		n++
	}
	if n == 0 {
		return
	}
	f.ring.Release(f.held[n-1].mark)
	f.held = f.held[:copy(f.held, f.held[n:])]
}

// fail latches a fatal apply error.
func (f *Follower) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// Err returns the fatal stream error, if the apply loop died on one.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// Frontier returns the apply frontier: every age below it has been
// submitted to the live pipeline. Reads served against the follower's
// state observe a prefix at least this fresh once drained.
func (f *Follower) Frontier() uint64 { return f.applyNext.Load() }

// LeaderFrontier returns the leader durability frontier most recently
// heard (0 before the first hello).
func (f *Follower) LeaderFrontier() uint64 { return f.leaderFrontier.Load() }

// LagAges returns how many ages the apply frontier trails the last
// heard leader frontier.
func (f *Follower) LagAges() uint64 {
	lf, ap := f.leaderFrontier.Load(), f.applyNext.Load()
	if lf <= ap {
		return 0
	}
	return lf - ap
}

// LagBytes returns the byte-space replication lag. ok is false until
// the follower has been caught up at least once (the byte counters of
// the two logs differ by a constant history offset that can only be
// measured at a shared frontier).
func (f *Follower) LagBytes() (uint64, bool) {
	if !f.calibrated.Load() {
		return 0, false
	}
	lag := int64(f.leaderBytes.Load()) - int64(f.localBytes.Load()) - f.byteSkew.Load()
	if lag < 0 {
		lag = 0
	}
	return uint64(lag), true
}

// Reconnects returns how many times the stream was (re)established.
func (f *Follower) Reconnects() uint64 { return f.reconnects.Load() }

// Applied returns how many records the follower has applied and their
// framed bytes.
func (f *Follower) Applied() (records, bytes uint64) {
	return f.applied.Load(), f.appliedB.Load()
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Gate returns the write gate for the follower's serve.Server: it
// refuses submissions with a NotLeaderError naming the current leader
// until promotion, then admits them.
func (f *Follower) Gate() func() error {
	return func() error {
		if f.promoted.Load() {
			return nil
		}
		return &serve.NotLeaderError{Leader: f.cfg.Leader}
	}
}

// Promote turns the follower into a leader: the stream stops, the
// pipeline drains (every applied record commits and becomes locally
// durable), and the write gate opens. The pipeline and writer carry
// straight on — promotion moves the append frontier authority, not
// the data. After a crash-and-restart the same guarantee comes from
// StartFollower's wal.Recover: the torn tail is truncated exactly as
// leader crash recovery would, so a promoted follower never claims an
// age its disk cannot prove.
func (f *Follower) Promote() error {
	if f.promoted.Load() {
		return nil
	}
	f.stopLoop()
	if err := f.rt.Drain(); err != nil {
		return fmt.Errorf("repl: promote drain: %w", err)
	}
	f.promoted.Store(true)
	return nil
}

// stopLoop ends the apply loop and waits it out; safe to call from
// Promote and Close in any order.
func (f *Follower) stopLoop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.connMu.Lock()
	if f.cancel != nil {
		f.cancel() // unblocks a read parked on the stream
	}
	f.connMu.Unlock()
	<-f.loopDone
}

// Close stops the apply loop without promoting. The engine and writer
// stay with their owner.
func (f *Follower) Close() error {
	f.stopLoop()
	return f.Err()
}
