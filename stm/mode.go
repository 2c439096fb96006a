package stm

import (
	"sync/atomic"
	"time"
)

// This file chooses between the stream's two execution modes for the
// cooperative engines (runloop.go): speculative, the paper's model,
// and direct, one age at a time once reachable, straight against
// memory. Speculation wins when bodies are long enough for a second
// core to pay for the engine's bookkeeping; direct wins when they are
// short or conflict, where re-execution and waiting for the frontier
// eat what the second core adds. The loop measures instead of
// guessing: it times epochs of commits in each mode, keeps the faster,
// and probes the other now and then (modePolicy.next).

const (
	// epochCommits is how many commits one epoch times.
	epochCommits = 1024
	// probeMin and probeMax bound the number of settled epochs between
	// two probes of the other mode; each lost probe doubles it.
	probeMin = 4
	probeMax = 128
	// probeMargin: a probe wins only if its epoch took at least
	// 1/probeMargin less time than the settled mode's last one.
	probeMargin = 8
)

// modePolicy is the mode switch's deterministic state machine: fed the
// mode an epoch ran in, its wall time and whether it idled, it returns
// the mode the next epoch runs in. An epoch in the settled mode records
// its time, and after wait of them the policy probes the other mode for
// one epoch. A probe that beats the settled mode's last epoch by the
// margin becomes the settled mode; one that does not goes back and
// doubles the wait before the next probe, up to probeMax. Equal rates
// therefore never switch the settled mode, and a lost probe costs at
// most one epoch in every probeMax+1 once the wait has grown.
//
// Idle time (a claim found nothing to claim) can only stretch an
// epoch: it then measures the producers, not the mode. So an idle
// probe that still wins is faster, and wins; but an idle settled epoch
// is no bar to measure a probe against, and the next probe loses.
type modePolicy struct {
	probing bool  // the current epoch is a probe of the other mode
	wait    int   // settled epochs left before the next probe
	backoff int   // settled epochs between probes
	last    int64 // the settled mode's newest epoch, ns; 0 if unjudged
}

// newModePolicy starts settled in direct mode with its first probe
// after one epoch: direct execution is never wrong, and the probe finds
// speculation at once where it pays.
func newModePolicy() modePolicy { return modePolicy{wait: 1, backoff: probeMin} }

// next judges one epoch that ran in mode direct, took ns and idled or
// not, and returns the mode of the next epoch.
func (p *modePolicy) next(direct bool, ns int64, idle bool) bool {
	if p.probing {
		p.probing = false
		if p.last > 0 && ns < p.last-p.last/probeMargin {
			p.last, p.backoff, p.wait = ns, probeMin, probeMin
			return direct // the probe won: settle in its mode
		}
		p.backoff = min(2*p.backoff, probeMax)
		p.wait = p.backoff
		return !direct
	}
	p.last = ns
	if idle {
		p.last = 0
	}
	if p.wait--; p.wait > 0 {
		return direct
	}
	p.probing = true
	return !direct
}

// modeState is the loop's side of the switch. Only the holder of the
// validator token touches it (noteCommit), and commits reach that
// holder one at a time in age order, so it needs no lock; the counters
// are atomic for the metrics.
//
// An epoch idled if a claim parked with nothing to claim during it:
// the stream ran dry, or a checkpoint held the gate (see modePolicy).
type modeState struct {
	pol     modePolicy
	direct  bool      // the mode new claims take
	pinned  bool      // tests: stay where pin put the loop
	force   *forcing  // tests: switch at seeded ages instead of by policy
	n       int       // commits since t0; -1 until the epoch starts
	t0      time.Time // the epoch's first commit
	idle0   uint64    // the feed's idle count at t0
	directN atomic.Uint64
	flips   atomic.Uint64
}

func (m *modeState) start() {
	m.pol = newModePolicy()
	m.direct = true
	m.n = -1
}

// noteCommit feeds one commit to the mode switch; direct tells the mode
// the age ran in. Called by the holder of the validator token after the
// commit is reported. Commits of the mode the switch just left (the
// tail of ages claimed before it) are neither timed nor judged: the
// next epoch starts at the new mode's first commit.
func (l *loop) noteCommit(age uint64, direct bool) {
	m := &l.modes
	if direct {
		m.directN.Add(1)
	}
	switch {
	case l.modal == nil || m.pinned:
		return
	case m.force != nil:
		if age >= m.force.at {
			l.setMode(!m.direct)
			m.force.step(age)
		}
		return
	case direct != m.direct:
		return
	case m.n < 0:
		m.n, m.t0, m.idle0 = 0, time.Now(), l.modal.idles.Load()
		return
	}
	if m.n++; m.n < epochCommits {
		return
	}
	now, idle := time.Now(), l.modal.idles.Load()
	if next := m.pol.next(direct, now.Sub(m.t0).Nanoseconds(), idle != m.idle0); next != direct {
		l.setMode(next)
		return
	}
	m.n, m.t0, m.idle0 = 0, now, idle
}

// setMode switches the mode new claims take and restarts the epoch.
func (l *loop) setMode(direct bool) {
	m := &l.modes
	m.direct, m.n = direct, -1
	m.flips.Add(1)
	l.modal.setDirect(direct, &l.specFrom)
}

// pinSpeculative puts the loop in speculative mode for good. Tests
// that assert speculation (aborts, retries, window movement) call it
// before the first submission.
func (l *loop) pinSpeculative() {
	if l.modal == nil {
		return
	}
	l.setMode(false)
	l.modes.pinned = true
}

// forcing replaces the policy in the mode-boundary oracle: a switch
// every 1–64 commits, at ages drawn from a seeded generator.
type forcing struct {
	rng uint64 // xorshift state
	at  uint64 // the commit age at which the next switch happens
}

func newForcing(seed uint64, base uint64) *forcing {
	f := &forcing{rng: seed | 1}
	f.step(base)
	return f
}

func (f *forcing) step(age uint64) {
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	f.at = age + 1 + f.rng%64
}

// pipelineHook, when set, runs on every new pipeline's loop before its
// workers start (tests only; see export_test.go).
var pipelineHook func(*loop)
