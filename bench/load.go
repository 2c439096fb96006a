package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load is closed-loop: C client goroutines (connections, on the
// wire workloads), each keeping a sliding window of D submissions in
// flight — wait for the oldest, submit the next. A slow stack receives
// less load; that is the shape of callers that each wait for a reply.

var epoch = time.Now()

// now is nanoseconds on the monotonic clock; half the cost of
// time.Now on the clients' hot loop.
func now() int64 { return int64(time.Since(epoch)) }

// unixOf converts a now() reading to the UnixNano scale the program's
// trace ring stamps its events with.
func unixOf(mono int64) int64 { return epoch.UnixNano() + mono }

// acker is one in-flight submission: a ticket or a wire call.
type acker interface {
	wait() (age uint64, err error)
}

const (
	// timeMask selects the submit calls the clients time: one in four.
	// Three clock reads per transaction would be a tenth of a client's
	// loop on the in-process workloads.
	timeMask = 3
	// spanEvery must equal the trace ring's sampling interval, so the
	// harness records spans for the ages the program records stages for.
	spanEvery = 64
	// maxPhases bounds warm-up + reps + the stopped phase.
	maxPhases = 16
)

// phaseStats is what one client saw during one phase.
type phaseStats struct {
	acked  uint64
	lat    hist // submit-call start -> acknowledgement, timed calls only
	call   hist // submit-call duration, timed calls only
	callNs uint64
}

// spanRec is the harness side of one sampled transaction's trace, on
// the now() clock.
type spanRec struct {
	age                uint64
	tEnc, t0, t1, tAck int64
}

// client is one closed-loop submitter and its record of what it was
// told: ages[i] is the age acknowledged for its i-th submission, or
// noAge if that submission was refused or failed.
type client struct {
	id      int
	ages    []uint64 // off-heap, by submission index
	next    int      // next submission index
	refused uint64
	ph      [maxPhases]phaseStats
	spans   []spanRec // traced stacks only: ring of the most recent sampled transactions
	nspans  int
}

type pending struct {
	a      acker
	i      int
	tEnc   int64
	t0, t1 int64
	timed  bool
}

// loadSpec is how clients drive a stack.
type loadSpec struct {
	depth int // D: submissions in flight per client
	burst int // submissions per submit call
}

// run is the client's loop: submit bursts while phase is below stop
// and the quota (0 = none) is not used up, then drain the window.
func (c *client) run(st *stack, ls loadSpec, phase *atomic.Int32, stop int32, quota int) {
	win := make([]pending, ls.depth+ls.burst) // circular: head is the oldest
	head, inflight := 0, 0
	out := make([]acker, ls.burst)
	sent, errs := 0, 0
	for phase.Load() < stop && (quota == 0 || sent < quota) && c.next+ls.burst <= len(c.ages) {
		i := c.next
		timed := (i/ls.burst)&timeMask == 0
		var tEnc, t0, t1 int64
		if timed {
			if c.spans != nil {
				tEnc = now()
			}
			t0 = now()
		}
		err := st.submit(c.id, i, out)
		if timed {
			t1 = now()
			ps := &c.ph[phase.Load()]
			ps.call.add(t1 - t0)
			ps.callNs += uint64(t1 - t0)
		}
		c.next += ls.burst
		sent += ls.burst
		if err != nil {
			for j := 0; j < ls.burst; j++ {
				c.record(i+j, 0, err)
			}
			if errs++; errs > 100 {
				break // the stack is refusing everything; do not spin on it
			}
			continue
		}
		for j, a := range out {
			win[(head+inflight)%len(win)] = pending{a: a, i: i + j, tEnc: tEnc, t0: t0, t1: t1, timed: timed}
			inflight++
		}
		for inflight > ls.depth-ls.burst {
			c.reap(win[head], phase)
			head = (head + 1) % len(win)
			inflight--
		}
	}
	for ; inflight > 0; inflight-- {
		c.reap(win[head], phase)
		head = (head + 1) % len(win)
	}
}

// record notes the outcome of the client's i-th submission and
// reports whether it was acknowledged.
func (c *client) record(i int, age uint64, err error) bool {
	if err != nil {
		c.ages[i] = noAge
		c.refused++
		return false
	}
	c.ages[i] = age
	return true
}

// reap waits for one submission's acknowledgement and records it.
func (c *client) reap(p pending, phase *atomic.Int32) {
	age, err := p.a.wait()
	if !c.record(p.i, age, err) {
		return
	}
	ps := &c.ph[phase.Load()]
	ps.acked++
	if p.timed {
		t := now()
		ps.lat.add(t - p.t0)
		if c.spans != nil && age%spanEvery == 0 {
			c.spans[c.nspans%len(c.spans)] = spanRec{age: age, tEnc: p.tEnc, t0: p.t0, t1: p.t1, tAck: t}
			c.nspans++
		}
	}
}

// sample is the process and stack counters at a phase boundary.
type sample struct {
	at       int64
	mem      runtime.MemStats
	cpuNs    int64
	counters map[string]float64
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func takeSample(st *stack) sample {
	s := sample{counters: map[string]float64{}}
	runtime.ReadMemStats(&s.mem)
	s.cpuNs = cpuNs()
	st.counters(s.counters)
	s.at = now()
	return s
}

// loadResult is one loaded run: boundary samples (len = reps+1) and
// the stack's clients hold their per-phase statistics (phase 0 is
// warm-up, phase r the r-th rep).
type loadResult struct {
	reps    int
	samples []sample
	warmS   float64 // clients started -> first rep began
}

// drive runs warm-up and reps back to back under full load and returns
// once every client has drained its window.
func drive(st *stack, warm, rep time.Duration, reps int, during func(stop <-chan struct{})) loadResult {
	var phase atomic.Int32
	stopPhase := int32(reps + 1)
	var wg sync.WaitGroup
	t0 := now()
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(st, st.ls, &phase, stopPhase, 0)
		}(c)
	}
	bg := make(chan struct{})
	var bgWG sync.WaitGroup
	if during != nil {
		bgWG.Add(1)
		go func() { defer bgWG.Done(); during(bg) }()
	}
	time.Sleep(warm)
	res := loadResult{reps: reps}
	for r := 1; r <= reps; r++ {
		res.samples = append(res.samples, takeSample(st))
		phase.Store(int32(r))
		time.Sleep(rep)
	}
	res.samples = append(res.samples, takeSample(st))
	phase.Store(stopPhase)
	close(bg)
	wg.Wait()
	bgWG.Wait()
	res.warmS = float64(res.samples[0].at-t0) / 1e9
	return res
}

// runQuota has every client submit and await exactly n/len(clients)
// transactions (the remainder rides the last client).
func runQuota(st *stack, n int) {
	var phase atomic.Int32 // stays 0: counted with warm-up, outside every rep
	var wg sync.WaitGroup
	per := n / len(st.clients)
	for k, c := range st.clients {
		q := per
		if k == len(st.clients)-1 {
			q = n - per*(len(st.clients)-1)
		}
		wg.Add(1)
		go func(c *client, q int) {
			defer wg.Done()
			c.run(st, loadSpec{depth: st.ls.depth, burst: 1}, &phase, 1, q)
		}(c, q)
	}
	wg.Wait()
}

// probe is the unloaded round trip: one client, one transaction in
// flight, for at least d and at least trips round trips.
func probe(st *stack, c *client, d time.Duration, trips int) *hist {
	h := &hist{}
	out := make([]acker, 1)
	start := now()
	for n := 0; (n < trips || now()-start < int64(d)) && now()-start < int64(10*d) && c.next < len(c.ages); n++ {
		i := c.next
		c.next++
		t0 := now()
		var age uint64
		err := st.submit(c.id, i, out)
		if err == nil {
			age, err = out[0].wait()
		}
		if c.record(i, age, err) {
			h.add(now() - t0)
		}
	}
	return h
}
