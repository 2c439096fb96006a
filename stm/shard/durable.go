package shard

import (
	"math"
	"sync"

	"github.com/orderedstm/ostm/internal/frontier"
	"github.com/orderedstm/ostm/stm"
)

// Codec is the sharded sibling of stm.Codec: because the router needs
// the access declaration to route a replayed transaction to the same
// shards it originally ran on, Decode reconstructs both the
// declaration and the body from the wire form. Routing is a pure
// function of (declaration, shard count), so replaying the same
// payload sequence through a router with the same Shards rebuilds the
// exact per-shard local age sequences — which is what makes one
// global-age log at the router sufficient to recover cross-shard
// fences consistently.
type Codec interface {
	// Encode serializes payload into its durable wire form.
	Encode(payload any) ([]byte, error)
	// Decode reconstructs the access declaration and body from the
	// wire form. It must be deterministic.
	Decode(data []byte) (stm.Access, stm.Body, error)
}

// durRouter is the router's durability state: one global-age
// write-ahead log fed by per-shard commit events.
//
// Every local submission (single-shard body or cross-shard fence) is
// mapped to its global age up front, under the router lock, before
// the per-shard pipeline can possibly commit it. Each shard pipeline
// reports local commits through its commit-frontier hook
// (stm.Config.OnCommit); a global age completes when all its local
// submissions committed — one for a single-shard transaction, one
// fence per involved shard for a cross-shard one. Shards drain
// independently, so completions arrive out of global order; the feed
// still hands the log a strictly contiguous global-age sequence.
type durRouter struct {
	sp   *ShardedPipeline
	log  stm.DurableLog
	wait bool

	mu   sync.Mutex
	cond *sync.Cond // broadcast when the frontier advances, the log fails, or the system faults
	// feed holds every registered global age until the log has it, and
	// its router-resolved ticket until the age is durable.
	feed *frontier.Feed[*Ticket]
	// toGlobal maps each shard's in-flight local ages to global ages.
	toGlobal []*frontier.Tracker[uint64]
	ckptKick chan struct{} // the feed signals the checkpointer; nil when disabled
}

// track completes the router before its first submission: it makes the
// frontier rings, sized to each shard's Capacity, and subscribes to the
// log's durability reports. The feed covers every shard's Capacity
// twice over, for the completed ages a slower shard holds back; a local
// ring covers its shard's plus the age a submission maps before it
// waits for room, twice over too.
func (dr *durRouter) track(first uint64, capacity int) {
	dr.cond = sync.NewCond(&dr.mu)
	dr.feed = frontier.NewFeed(dr.log, first, 2*dr.sp.shards*capacity, resolveDurable)
	dr.toGlobal = make([]*frontier.Tracker[uint64], dr.sp.shards)
	for s := range dr.toGlobal {
		dr.toGlobal[s] = frontier.New[uint64](2 * capacity)
	}
	dr.log.Notify(dr.durableTo)
}

// add registers a global age before any of its local submissions can
// commit. Called with sp.mu held. In WaitDurable mode the router owns
// the resolution of t, the submission's ticket: it lands in t.res
// (made here for a single-shard ticket, which has none), and add
// reports true.
func (dr *durRouter) add(g uint64, payload []byte, involved int, t *Ticket) bool {
	var tk *Ticket
	if dr.wait {
		if t.res == nil {
			t.res = new(outcome)
		}
		tk = t
	}
	dr.mu.Lock()
	dr.feed.Put(g, payload, tk, involved)
	dr.mu.Unlock()
	return dr.wait
}

// mapLocal records that shard s's local age la carries global age g.
// Called with sp.mu held, before the local submission, so a commit can
// never observe an unmapped age.
func (dr *durRouter) mapLocal(s int, la, g uint64) {
	dr.mu.Lock()
	dr.toGlobal[s].Put(la, g)
	dr.mu.Unlock()
}

// withdraw backs out global age g and its mapping from shard s's local
// age la, whose submission was refused: the local age was never
// consumed and will be reassigned, and g can never complete (local
// submissions of g already in flight find no entry, which the feed
// ignores). Its ticket (if any) is resolved by the caller's error
// path.
func (dr *durRouter) withdraw(s int, la, g uint64) {
	dr.mu.Lock()
	dr.toGlobal[s].Take(la)
	dr.feed.Take(g)
	dr.mu.Unlock()
}

// localCommit is the per-shard commit hook: shard s committed its
// local age la. Shard pipelines carry no log, so their commit reports
// call it without any stream lock, from every worker of the shard at
// once (see stm.Config.OnCommit); dr.mu serializes it. It only updates
// counters and, at the global frontier, buffers log appends.
func (dr *durRouter) localCommit(s int, la uint64) {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	if g, ok := dr.toGlobal[s].Take(la); ok && dr.feed.Complete(g, nil) > 0 {
		dr.cond.Broadcast()
	}
}

// durableTo is the log's durability observer: every global age below
// next is on stable storage.
func (dr *durRouter) durableTo(next uint64, err error) {
	dr.mu.Lock()
	dr.feed.Synced(next, err)
	if err != nil {
		dr.cond.Broadcast() // release any frontier wait; the log is dead
	}
	dr.mu.Unlock()
}

// sweepFail resolves every router-owned ticket that can no longer
// commit: the system stopped at a fault, so entries still tracked
// (not yet appended at the frontier, or never completed) resolve in
// the global fault vocabulary. Tickets already appended and merely
// awaiting durability stay parked — their transactions committed
// below the fault and become durable at the closing sync. This is
// also how a failed fence reaches a WaitDurable cross-shard ticket:
// a fence only fails when the system stops, and its transaction then
// cannot have completed, so its entry is still here.
//
// Called once every shard has stopped. The sweep starts at the first
// global age that can never complete — one of its local submissions
// had not completed when its shard stopped. Every age below that cut
// completed on all its shards before the stop and only awaits its
// commit report (the run-loop reports every completed age), so
// localCommit appends it and it resolves with the truth.
func (dr *durRouter) sweepFail() {
	dr.mu.Lock()
	cut := uint64(math.MaxUint64)
	for s, r := range dr.toGlobal {
		r.Range(func(la uint64, g *uint64) {
			// On a stopped pipeline WaitFrontier does not wait.
			if *g < cut && !dr.sp.pipes[s].WaitFrontier(la+1) {
				cut = *g
			}
		})
	}
	dr.feed.Range(func(g uint64, e *frontier.Entry[*Ticket]) {
		if e.Ticket != nil && g >= cut {
			resolveTicket(e.Ticket, dr.sp.translate(g, stm.ErrClosed))
			e.Ticket = nil
		}
	})
	dr.cond.Broadcast() // the fault is visible; release any frontier wait
	dr.mu.Unlock()
}

// frontier returns the contiguous global commit frontier: every
// global age below it committed on all its shards.
func (dr *durRouter) frontier() uint64 {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.feed.Next()
}

// waitFrontier blocks until the contiguous global frontier reaches g
// (every age below g completed on all its shards and was appended to
// the log), the log fails, or the system faults. It returns nil only
// in the first case.
func (dr *durRouter) waitFrontier(g uint64) error {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	for dr.feed.Next() < g && dr.feed.Err == nil && dr.sp.fault.Load() == nil {
		dr.cond.Wait()
	}
	if err := dr.feed.Err; err != nil {
		return &stm.DurabilityError{Err: err}
	}
	if f := dr.sp.fault.Load(); f != nil && dr.feed.Next() < g {
		return &stm.Stopped{Fault: f}
	}
	return nil
}

// settle is the teardown backstop after the closing sync, whose result
// is syncErr: nothing may stay unresolved once Close returns. The
// result goes through the observer's path first, so a failure the
// observer never reported fails the parked tickets with the
// DurabilityError Close reports. It returns the log's failure.
func (dr *durRouter) settle(syncErr error) error {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	dr.feed.Synced(dr.log.Durable(), syncErr)
	dr.feed.Settle(func(t *Ticket) {
		err := dr.sp.translate(t.g, stm.ErrClosed) // the fault's vocabulary
		if dr.feed.Err != nil {
			err = &stm.DurabilityError{Err: dr.feed.Err}
		}
		resolveTicket(t, err)
	})
	return dr.feed.Err
}

// resolveDurable is the feed's resolution of a WaitDurable ticket: nil
// once its age is durable, else the log's failure.
func resolveDurable(t *Ticket, err error) {
	if err != nil {
		err = &stm.DurabilityError{Err: err}
	}
	resolveTicket(t, err)
}

// resolveTicket completes a router-resolved ticket. Every caller holds
// dr.mu and clears its reference afterwards, so a ticket resolves at
// most once.
func resolveTicket(t *Ticket, err error) {
	t.res.err = err
	t.res.done.Resolve()
}
