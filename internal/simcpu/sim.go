package simcpu

import (
	"container/heap"
	"sort"

	"github.com/orderedstm/ostm/internal/rng"
)

// event wakes a core at a virtual time. seq breaks ties
// deterministically and guards against stale wakeups.
type event struct {
	time int64
	seq  uint64
	core int
	csn  uint64 // core sequence number at scheduling time
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type readEnt struct {
	addr uint32
	ver  int64
}

// simTx is one transaction attempt in flight.
type simTx struct {
	age     int
	doomed  bool
	exposed bool // cooperative: published, awaiting ordered commit
	final   bool // committed or fully aborted
	aborted bool
	core    int // core currently running/stalled on it, -1 otherwise

	reads   []readEnt
	writes  []uint32
	deps    []*simTx // cooperative forwarding consumers
	snap    int64    // rv / seq snapshot / TCM start stamp
	expTime int64    // when the attempt exposed/completed
}

// lockSt is the virtual lock/metadata record of one address.
type lockSt struct {
	writer  *simTx
	readers []*simTx
	version int64
}

type coreSt struct {
	seq     uint64 // invalidates stale events
	tx      *simTx
	opIdx   int
	state   int // 0 idle, 1 running, 2 stalled
	halted  bool
	readyAt int64 // the core's own timeline frontier
}

const (
	coreIdle = iota
	coreRunning
	coreStalled
)

// sim is one simulation run.
type sim struct {
	algo   Algo
	p      Params
	traces []Trace
	cores  []coreSt

	clock     int64
	seq       uint64
	events    eventHeap
	locks     map[uint32]*lockSt
	nextAge   int
	committed int   // lastCommitted count == next age to commit
	gclock    int64 // TL2-style global version / NOrec seq / TCM stamp

	exposedAt map[int]*simTx // cooperative: exposed, awaiting commit
	retryLow  []*simTx       // reachable re-executions, by age
	turnWait  map[int]int    // age -> core stalled for its turn
	winWait   []int          // cores stalled on the run-ahead window
	lockWait  map[*simTx][]int
	tcmQueue  map[int]*simTx // STMLite submissions by age
	tcmFree   int64
	valFree   int64 // validator service availability

	commits, aborts int64
	endTime         int64
	tries           map[int]int // per-age attempt counts (backoff escalation)
	r               *rng.Rand
}

// Simulate runs the traces on the given number of cores under the
// algorithm's protocol model.
func Simulate(algo Algo, traces []Trace, cores int, p Params) Result {
	if cores < 1 {
		cores = 1
	}
	if algo == Sequential {
		return simulateSequential(traces, p)
	}
	if algo == STMLite && cores > 1 {
		cores-- // the TCM occupies one of the paper's threads
	}
	s := &sim{
		algo:      algo,
		p:         p,
		traces:    traces,
		cores:     make([]coreSt, cores),
		locks:     make(map[uint32]*lockSt),
		exposedAt: make(map[int]*simTx),
		turnWait:  make(map[int]int),
		lockWait:  make(map[*simTx][]int),
		tcmQueue:  make(map[int]*simTx),
		tries:     make(map[int]int),
		r:         rng.New(0xC0FFEE),
	}
	for c := range s.cores {
		s.wake(c, 0)
	}
	// Safety valve: a protocol-model bug must surface as a panic, not
	// a silent hang.
	budget := uint64(len(traces))*2000 + 10_000_000
	for len(s.events) > 0 {
		if s.seq > budget {
			panic("simcpu: event budget exceeded (livelock in protocol model)")
		}
		ev := heap.Pop(&s.events).(event)
		if ev.csn != s.cores[ev.core].seq {
			continue // stale wakeup
		}
		if ev.time > s.clock {
			s.clock = ev.time
		}
		s.step(ev.core, ev.time)
	}
	return Result{
		Algo:        algo,
		Cores:       len(s.cores),
		Commits:     s.commits,
		Aborts:      s.aborts,
		VirtualTime: s.endTime,
	}
}

func simulateSequential(traces []Trace, p Params) Result {
	var t int64
	for _, tr := range traces {
		for _, op := range tr.Ops {
			t += op.Local + 1
		}
	}
	return Result{Algo: Sequential, Cores: 1, Commits: int64(len(traces)), VirtualTime: t}
}

// wake schedules a (fresh) event for core c at time t.
func (s *sim) wake(c int, t int64) {
	s.cores[c].seq++
	s.seq++
	heap.Push(&s.events, event{time: t, seq: s.seq, core: c, csn: s.cores[c].seq})
}

// resume advances core c's own timeline to t and schedules it. Spurious
// earlier wakeups (doom notifications, turn handoffs racing a restart)
// are deferred to readyAt by step, so an operation is never processed
// before the core's own timeline reaches it.
func (s *sim) resume(c int, t int64) {
	s.cores[c].readyAt = t
	s.wake(c, t)
}

func (s *sim) lock(addr uint32) *lockSt {
	l, ok := s.locks[addr]
	if !ok {
		l = &lockSt{}
		s.locks[addr] = l
	}
	return l
}

func liveTx(t *simTx) bool { return t != nil && !t.final }

// doom marks a victim aborted-to-be. If the victim is stalled on a
// core, the core is woken to process the abort.
func (s *sim) doom(v *simTx, t int64) {
	if v == nil || v.doomed || v.final {
		return
	}
	v.doomed = true
	for _, d := range v.deps {
		s.doom(d, t)
	}
	if v.core >= 0 && s.cores[v.core].state == coreStalled {
		s.wake(v.core, t)
	}
}

// finalizeAbort rolls back a doomed attempt and counts the abort.
// Returns the rollback cost.
func (s *sim) finalizeAbort(tx *simTx, t int64) int64 {
	cost := s.p.AbortBase
	if s.algo.writeThrough() {
		cost += int64(len(tx.writes)) * s.p.LockEntry
		for _, a := range tx.writes {
			l := s.lock(a)
			l.version++ // dirty value restored: invisible readers must revalidate
			// abort speculative higher-age readers of the rolled-back
			// value
			for _, rd := range l.readers {
				if liveTx(rd) && rd.age > tx.age {
					s.doom(rd, t)
				}
			}
		}
	} else if tx.exposed {
		cost += int64(len(tx.writes)) * s.p.LockEntry
	}
	s.releaseLocks(tx)
	tx.final = true
	tx.aborted = true
	s.aborts++
	s.wakeLockWaiters(tx, t+cost)
	return cost
}

func (s *sim) releaseLocks(tx *simTx) {
	for _, a := range tx.writes {
		l := s.lock(a)
		if l.writer == tx {
			l.writer = nil
		}
	}
	if s.algo.visibleReaders() {
		for _, e := range tx.reads {
			l := s.lock(e.addr)
			for i, rd := range l.readers {
				if rd == tx {
					l.readers[i] = l.readers[len(l.readers)-1]
					l.readers = l.readers[:len(l.readers)-1]
					break
				}
			}
		}
	}
}

func (s *sim) wakeLockWaiters(tx *simTx, t int64) {
	for _, c := range s.lockWait[tx] {
		s.wake(c, t)
	}
	delete(s.lockWait, tx)
}

// stallOn parks core c until victim finalizes.
func (s *sim) stallOn(c int, victim *simTx) {
	s.cores[c].state = coreStalled
	s.lockWait[victim] = append(s.lockWait[victim], c)
}

// restart resets a doomed attempt for re-execution on the same core.
func (s *sim) restart(c int, t int64) {
	cs := &s.cores[c]
	tx := cs.tx
	if w, ok := s.turnWait[tx.age]; ok && w == c {
		delete(s.turnWait, tx.age)
	}
	cost := s.finalizeAbort(tx, t)
	fresh := &simTx{age: tx.age, core: c, snap: s.gclock}
	cs.tx = fresh
	cs.opIdx = 0
	cs.state = coreRunning
	// Escalating backoff (contention-manager style): repeated retries
	// of the same age spread out so interference chains die down.
	s.tries[tx.age]++
	n := int64(s.tries[tx.age])
	if n > 64 {
		n = 64
	}
	s.resume(c, t+cost+s.p.RetryBackoff*n)
}

// step advances core c at time t.
func (s *sim) step(c int, t int64) {
	cs := &s.cores[c]
	if cs.halted {
		return
	}
	if t < cs.readyAt {
		s.wake(c, cs.readyAt) // early external wakeup: defer
		return
	}
	if cs.tx == nil {
		s.dispatch(c, t)
		return
	}
	tx := cs.tx
	if tx.doomed && !tx.final {
		s.restart(c, t)
		return
	}
	if cs.opIdx >= len(s.traces[tx.age].Ops) {
		s.finish(c, t)
		return
	}
	op := s.traces[tx.age].Ops[cs.opIdx]
	var cost int64
	var stalled bool
	if op.Kind == OpRead {
		cost, stalled = s.doRead(c, tx, op, t)
	} else {
		cost, stalled = s.doWrite(c, tx, op, t)
	}
	if stalled {
		return // parked; will be woken and retry this op
	}
	if tx.doomed {
		s.restart(c, t+cost)
		return
	}
	cs.opIdx++
	cs.state = coreRunning
	s.resume(c, t+op.Local+cost)
}

// dispatch assigns the next work item to an idle core.
func (s *sim) dispatch(c int, t int64) {
	cs := &s.cores[c]
	// Reachable re-executions first (lowest age).
	if len(s.retryLow) > 0 {
		sort.Slice(s.retryLow, func(i, j int) bool { return s.retryLow[i].age < s.retryLow[j].age })
		tx := s.retryLow[0]
		s.retryLow = s.retryLow[1:]
		fresh := &simTx{age: tx.age, core: c, snap: s.gclock}
		cs.tx = fresh
		cs.opIdx = 0
		cs.state = coreRunning
		s.resume(c, t)
		return
	}
	if s.nextAge >= len(s.traces) {
		cs.halted = true
		if t > s.endTime {
			s.endTime = t
		}
		return
	}
	// Run-ahead window (cooperative and lite modes).
	if (s.algo.cooperative() || s.algo == STMLite) && s.nextAge > s.committed+s.p.Window {
		cs.state = coreStalled
		s.winWait = append(s.winWait, c)
		return
	}
	age := s.nextAge
	s.nextAge++
	cs.tx = &simTx{age: age, core: c, snap: s.gclock}
	cs.opIdx = 0
	cs.state = coreRunning
	s.resume(c, t)
}

// doRead applies the per-algorithm read protocol. Returns (cost,
// stalled).
func (s *sim) doRead(c int, tx *simTx, op Op, t int64) (int64, bool) {
	l := s.lock(op.Addr)
	cost := s.p.ReadBase
	switch s.algo {
	case OWB:
		cost += s.p.PerEntryVal * int64(len(tx.reads)) // incremental validation
		if liveTx(l.writer) && l.writer != tx {
			if l.writer.age > tx.age {
				s.doom(l.writer, t) // W2→R1
			} else if l.writer.exposed {
				l.writer.deps = append(l.writer.deps, tx) // forward
			}
		}
		for _, e := range tx.reads {
			if s.lock(e.addr).version != e.ver {
				s.doom(tx, t)
				return cost, false
			}
		}
	case OUL:
		cost += s.p.VisibleReg
		if liveTx(l.writer) && l.writer != tx && l.writer.age > tx.age {
			s.doom(l.writer, t) // W2→R1; forwarding otherwise
		}
		l.readers = append(l.readers, tx)
	case UndoLogVis, OrderedUndoLogVis, UndoLogInvis, OrderedUndoLogInvis:
		if liveTx(l.writer) && l.writer != tx {
			if s.algo.Ordered() && l.writer.age > tx.age {
				s.doom(l.writer, t)
			}
			// No forwarding: wait for the writer to finish its commit
			// or rollback (the key contrast with OUL; the real engines
			// spin until the victim's status is final so version bumps
			// land before the read records its version).
			s.stallOn(c, l.writer)
			return 0, true
		}
		if s.algo.visibleReaders() {
			cost += s.p.VisibleReg
			l.readers = append(l.readers, tx)
		}
	case TL2, OrderedTL2:
		if l.version > tx.snap {
			s.doom(tx, t) // stale snapshot
			return cost, false
		}
	case NOrec, OrderedNOrec:
		if s.gclock != tx.snap {
			cost += s.p.PerEntryVal * int64(len(tx.reads))
			for _, e := range tx.reads {
				if s.lock(e.addr).version != e.ver {
					s.doom(tx, t)
					return cost, false
				}
			}
			tx.snap = s.gclock
		}
	case STMLite:
		cost = s.p.ReadBase / 2 // signature add only
	}
	tx.reads = append(tx.reads, readEnt{addr: op.Addr, ver: l.version})
	return cost, false
}

// doWrite applies the per-algorithm write protocol.
func (s *sim) doWrite(c int, tx *simTx, op Op, t int64) (int64, bool) {
	l := s.lock(op.Addr)
	cost := s.p.WriteBase
	switch s.algo {
	case OUL, UndoLogVis, OrderedUndoLogVis, UndoLogInvis, OrderedUndoLogInvis:
		if liveTx(l.writer) && l.writer != tx {
			w := l.writer
			ordered := s.algo.Ordered()
			switch {
			case ordered && w.age > tx.age && s.algo == OUL:
				s.doom(w, t) // W2→W1: cooperative writers take over at once
			case ordered && w.age > tx.age:
				// Blocked undo logs doom the higher-age holder and wait
				// out its rollback.
				s.doom(w, t)
				s.stallOn(c, w)
				return 0, true
			case ordered && s.algo == OUL:
				s.doom(tx, t) // W1→W2
				return cost, false
			case ordered: // blocked undo logs favor the lower age
				s.stallOn(c, w)
				return 0, true
			default: // unordered undo logs: bounded wait then self-abort
				s.doom(tx, t)
				return cost, false
			}
		}
		cost += s.p.LockEntry
		l.writer = tx
		// Abort conflicting speculative readers (R2→W1).
		if s.algo.visibleReaders() {
			for _, rd := range l.readers {
				if liveTx(rd) && rd != tx && (!s.algo.Ordered() || rd.age > tx.age) {
					s.doom(rd, t)
				}
			}
		}
	default:
		// Write-back engines just buffer.
	}
	tx.writes = append(tx.writes, op.Addr)
	return cost, false
}

// finish handles a transaction completing its trace on core c.
func (s *sim) finish(c int, t int64) {
	switch {
	case s.algo.cooperative():
		s.finishCooperative(c, t)
	case s.algo == STMLite:
		s.finishLite(c, t)
	case s.algo.blocked():
		s.finishBlocked(c, t)
	default:
		s.finishUnordered(c, t)
	}
}
