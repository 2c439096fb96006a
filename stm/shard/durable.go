package shard

import (
	"sync"

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
// independently, so completions arrive out of global order; the log
// still receives a strictly contiguous global-age sequence, because
// advance only appends at the frontier.
type durRouter struct {
	sp   *ShardedPipeline
	log  stm.DurableLog
	wait bool

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when next advances, the log fails, or the system faults
	next    uint64     // next global age to append (contiguous frontier)
	entries map[uint64]*durEntry
	local   []map[uint64]uint64 // per shard: local age → global age
	waiting map[uint64]*Ticket  // appended, not yet durable (WaitDurable)
	err     error               // first log failure; the durable prefix is frozen

	// Automatic checkpoint trigger; zero unless Config.CheckpointEvery
	// is set. advance counts appended ages and kicks the checkpointer
	// once enough have landed since the last checkpoint.
	ckptEvery uint64
	sinceCkpt uint64        // guarded by mu
	ckptKick  chan struct{} // capacity 1
}

// durEntry tracks one global age from submission to its log append.
type durEntry struct {
	g         uint64
	payload   []byte
	remaining int     // local commits still outstanding
	done      bool    // committed on every involved shard
	t         *Ticket // router-resolved ticket (WaitDurable), nil otherwise
}

func newDurRouter(sp *ShardedPipeline, log stm.DurableLog, wait bool, first uint64, shards int) *durRouter {
	dr := &durRouter{
		sp:      sp,
		log:     log,
		wait:    wait,
		next:    first,
		entries: make(map[uint64]*durEntry),
		local:   make([]map[uint64]uint64, shards),
		waiting: make(map[uint64]*Ticket),
	}
	for s := range dr.local {
		dr.local[s] = make(map[uint64]uint64)
	}
	dr.cond = sync.NewCond(&dr.mu)
	return dr
}

// add registers a global age before any of its local submissions can
// commit. Called with sp.mu held. The returned ticket is non-nil in
// WaitDurable mode (the router owns its resolution).
func (dr *durRouter) add(g uint64, payload []byte, involved int) *Ticket {
	e := &durEntry{g: g, payload: payload, remaining: involved}
	var t *Ticket
	if dr.wait {
		t = &Ticket{g: g, sp: dr.sp}
		e.t = t
	}
	dr.mu.Lock()
	dr.entries[g] = e
	dr.mu.Unlock()
	return t
}

// mapLocal records that shard s's local age la carries global age g.
// Called with sp.mu held, before the local submission, so a commit can
// never observe an unmapped age.
func (dr *durRouter) mapLocal(s int, la, g uint64) {
	dr.mu.Lock()
	dr.local[s][la] = g
	dr.mu.Unlock()
}

// unmapLocal backs out a mapping whose submission was refused (the
// local age was never consumed and will be reassigned).
func (dr *durRouter) unmapLocal(s int, la uint64) {
	dr.mu.Lock()
	delete(dr.local[s], la)
	dr.mu.Unlock()
}

// drop abandons an entry whose submission failed entirely; its ticket
// (if any) is resolved by the caller's error path.
func (dr *durRouter) drop(g uint64) {
	dr.mu.Lock()
	delete(dr.entries, g)
	dr.mu.Unlock()
}

// localCommit is the per-shard commit hook: shard s committed its
// local age la. Runs on the shard's commit path (its stream lock is
// held) — it only updates counters and, at the global frontier,
// buffers log appends.
func (dr *durRouter) localCommit(s int, la uint64) {
	dr.mu.Lock()
	g, ok := dr.local[s][la]
	if !ok {
		dr.mu.Unlock()
		return // not tracked (registration backed out on a refused submit)
	}
	delete(dr.local[s], la)
	if e := dr.entries[g]; e != nil {
		if e.remaining--; e.remaining == 0 {
			e.done = true
			dr.advance()
		}
	}
	dr.mu.Unlock()
}

// advance extends the contiguous global frontier: appends every
// completed age at the front of the entries map to the log, resolving
// or parking WaitDurable tickets. Called with dr.mu held.
func (dr *durRouter) advance() {
	start := dr.next
	defer func() {
		if dr.next == start {
			return
		}
		dr.cond.Broadcast()
		if dr.ckptEvery > 0 {
			if dr.sinceCkpt += dr.next - start; dr.sinceCkpt >= dr.ckptEvery {
				dr.sinceCkpt = 0
				select {
				case dr.ckptKick <- struct{}{}:
				default: // a kick is already pending
				}
			}
		}
	}()
	for {
		e := dr.entries[dr.next]
		if e == nil || !e.done {
			return
		}
		if dr.err == nil {
			if err := dr.log.Append(e.g, e.payload); err != nil {
				dr.err = err
			}
		}
		if e.t != nil {
			switch {
			case dr.err != nil:
				resolveTicket(e.t, &stm.DurabilityError{Err: dr.err})
			case e.g < dr.log.Durable():
				resolveTicket(e.t, nil)
			default:
				dr.waiting[e.g] = e.t // resolved by durableTo at a sync point
			}
			e.t = nil
		}
		delete(dr.entries, dr.next)
		dr.next++
	}
}

// durableTo is the log's durability observer: every global age below
// next is on stable storage.
func (dr *durRouter) durableTo(next uint64, err error) {
	dr.mu.Lock()
	if err != nil && dr.err == nil {
		dr.err = err
		dr.cond.Broadcast() // release any frontier wait; the log is dead
	}
	for g, t := range dr.waiting {
		switch {
		case dr.err != nil:
			delete(dr.waiting, g)
			resolveTicket(t, &stm.DurabilityError{Err: dr.err})
		case g < next:
			delete(dr.waiting, g)
			resolveTicket(t, nil)
		}
	}
	dr.mu.Unlock()
}

// resolveErr resolves the router-owned ticket for g with err (a
// cross-shard aggregator surfacing a fence failure). No-op if the
// ticket already resolved elsewhere.
func (dr *durRouter) resolveErr(g uint64, err error) {
	dr.mu.Lock()
	if e := dr.entries[g]; e != nil && e.t != nil {
		resolveTicket(e.t, err)
		e.t = nil
	} else if t, ok := dr.waiting[g]; ok {
		delete(dr.waiting, g)
		resolveTicket(t, err)
	}
	dr.mu.Unlock()
}

// sweepFail resolves every router-owned ticket that can no longer
// commit: the system stopped at a fault, so entries still tracked
// (not yet appended at the frontier, or never completed) resolve in
// the global fault vocabulary. Tickets already appended and merely
// awaiting durability stay parked — their transactions committed
// below the fault and become durable at the closing sync.
func (dr *durRouter) sweepFail(f *stm.Fault) {
	dr.mu.Lock()
	for _, e := range dr.entries {
		if e.t == nil {
			continue
		}
		if f != nil && e.g == f.Age {
			resolveTicket(e.t, f)
		} else {
			resolveTicket(e.t, &stm.Stopped{Fault: f})
		}
		e.t = nil
	}
	dr.cond.Broadcast() // the fault is visible; release any frontier wait
	dr.mu.Unlock()
}

// frontier returns the contiguous global commit frontier: every
// global age below it committed on all its shards.
func (dr *durRouter) frontier() uint64 {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.next
}

// waitFrontier blocks until the contiguous global frontier reaches g
// (every age below g completed on all its shards and was appended to
// the log), the log fails, or the system faults. It returns nil only
// in the first case.
func (dr *durRouter) waitFrontier(g uint64) error {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	for dr.next < g && dr.err == nil && dr.sp.fault.Load() == nil {
		dr.cond.Wait()
	}
	if dr.err != nil {
		return &stm.DurabilityError{Err: dr.err}
	}
	if f := dr.sp.fault.Load(); f != nil && dr.next < g {
		return &stm.Stopped{Fault: f}
	}
	return nil
}

// settle is the teardown backstop after the closing sync: nothing may
// stay unresolved once Close returns.
func (dr *durRouter) settle(f *stm.Fault) {
	dr.mu.Lock()
	fail := func(t *Ticket, g uint64) {
		switch {
		case dr.err != nil:
			resolveTicket(t, &stm.DurabilityError{Err: dr.err})
		case f != nil && g == f.Age:
			resolveTicket(t, f)
		case f != nil:
			resolveTicket(t, &stm.Stopped{Fault: f})
		default:
			resolveTicket(t, stm.ErrClosed)
		}
	}
	for g, t := range dr.waiting {
		delete(dr.waiting, g)
		fail(t, g)
	}
	for _, e := range dr.entries {
		if e.t != nil {
			fail(e.t, e.g)
			e.t = nil
		}
	}
	dr.mu.Unlock()
}

// lastErr returns the latched log failure, if any.
func (dr *durRouter) lastErr() error {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.err
}

// resolveTicket completes a router-resolved ticket. Every caller
// owns the only reference that may resolve it (durRouter's under
// dr.mu, cleared afterwards; the cross-shard aggregator's outright),
// so a ticket resolves at most once.
func resolveTicket(t *Ticket, err error) {
	t.err = err
	t.done.Resolve()
}
