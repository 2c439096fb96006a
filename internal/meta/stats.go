package meta

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// StatsCell is one contention-free slice of a Stats instance: a full
// counter set padded out to its own cache lines, so two goroutines
// recording into different cells never bounce a line between cores.
// The run-loop gives every worker (and the validator) its own cell;
// attempt descriptors carry the cell of the pool that allocated them,
// so engine-side events (aborts recorded by whichever goroutine dooms
// the victim) land on a per-worker line too. Any goroutine may record
// into any cell — counters are still atomics — sharding is a
// contention optimization, not an ownership rule.
type StatsCell struct {
	starts   atomic.Uint64
	commits  atomic.Uint64
	retries  atomic.Uint64
	quiesces atomic.Uint64
	aborts   [NumCauses]atomic.Uint64
	_        [statsCellPad]byte
}

// statsCellPad rounds the counter block up to a 64-byte cache-line
// boundary and adds one guard line, so adjacent cells never share a
// line even with unlucky allocator placement.
const statsCellPad = (64-(4+int(NumCauses))*8%64)%64 + 64

// Start counts a fresh attempt beginning execution.
func (c *StatsCell) Start() { c.starts.Add(1) }

// Commit counts a transaction reaching its final commit.
func (c *StatsCell) Commit() { c.commits.Add(1) }

// Retry counts an attempt being re-executed after an abort.
func (c *StatsCell) Retry() { c.retries.Add(1) }

// Quiesce counts liveness-guard activations (executor gating exposes so
// the reachable transaction can win).
func (c *StatsCell) Quiesce() { c.quiesces.Add(1) }

// Abort counts an abort with the given cause.
func (c *StatsCell) Abort(cause Cause) {
	if cause >= NumCauses {
		cause = CauseNone
	}
	c.aborts[cause].Add(1)
}

// view snapshots the cell.
func (c *StatsCell) view() StatsView {
	v := StatsView{
		Starts:   c.starts.Load(),
		Commits:  c.commits.Load(),
		Retries:  c.retries.Load(),
		Quiesces: c.quiesces.Load(),
	}
	for i := range c.aborts {
		v.Aborts[i] = c.aborts[i].Load()
	}
	return v
}

// Stats aggregates counters for one engine run: a default cell (the
// pre-sharding single-counter behavior, still used by paths without a
// worker identity) plus any number of per-worker cells handed out by
// NewCell. View folds across every cell.
type Stats struct {
	def   StatsCell
	mu    sync.Mutex
	cells atomic.Pointer[[]*StatsCell]
}

// DefaultCell returns the built-in cell (used by engine NewTxn outside
// any pool, and by anything recording directly on the Stats).
func (s *Stats) DefaultCell() *StatsCell { return &s.def }

// NewCell registers and returns a fresh padded cell. Called once per
// run-loop goroutine; the registry is copy-on-write so folding reads
// never lock.
func (s *Stats) NewCell() *StatsCell {
	c := &StatsCell{}
	s.mu.Lock()
	var cur []*StatsCell
	if p := s.cells.Load(); p != nil {
		cur = *p
	}
	next := make([]*StatsCell, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = c
	s.cells.Store(&next)
	s.mu.Unlock()
	return c
}

// Start counts a fresh attempt beginning execution.
func (s *Stats) Start() { s.def.Start() }

// Commit counts a transaction reaching its final commit.
func (s *Stats) Commit() { s.def.Commit() }

// Retry counts an attempt being re-executed after an abort.
func (s *Stats) Retry() { s.def.Retry() }

// Quiesce counts liveness-guard activations.
func (s *Stats) Quiesce() { s.def.Quiesce() }

// Abort counts an abort with the given cause.
func (s *Stats) Abort(c Cause) { s.def.Abort(c) }

// View returns a consistent-enough snapshot for reporting (individual
// counters are read atomically; cross-counter skew is harmless because
// snapshots are taken after the run drains).
func (s *Stats) View() StatsView {
	v := s.def.view()
	if p := s.cells.Load(); p != nil {
		for _, c := range *p {
			v = v.Plus(c.view())
		}
	}
	return v
}

// StatsView is a plain-value snapshot of Stats.
type StatsView struct {
	Starts   uint64
	Commits  uint64
	Retries  uint64
	Quiesces uint64
	Aborts   [NumCauses]uint64
}

// Plus returns the element-wise sum of two views (the sharded router
// sums its shards' views with it).
func (v StatsView) Plus(w StatsView) StatsView {
	out := StatsView{
		Starts:   v.Starts + w.Starts,
		Commits:  v.Commits + w.Commits,
		Retries:  v.Retries + w.Retries,
		Quiesces: v.Quiesces + w.Quiesces,
	}
	for i := range v.Aborts {
		out.Aborts[i] = v.Aborts[i] + w.Aborts[i]
	}
	return out
}

// TotalAborts sums aborts across causes.
func (v StatsView) TotalAborts() uint64 {
	var t uint64
	for _, a := range v.Aborts {
		t += a
	}
	return t
}

// AbortRatio returns aborts per commit (the paper's "Aborts %" axis is
// this ratio expressed in percent and can exceed 100%).
func (v StatsView) AbortRatio() float64 {
	if v.Commits == 0 {
		return 0
	}
	return float64(v.TotalAborts()) / float64(v.Commits)
}

// Breakdown returns the fraction of total aborts per Figure 5 category:
// read-after-write (RAW + killed-reader), write-after-write, cascade,
// locked-write, validation. Causes outside the five paper categories
// (order kills, busy fallbacks) are reported under "other".
func (v StatsView) Breakdown() map[string]float64 {
	tot := float64(v.TotalAborts())
	m := map[string]float64{
		"read-after-write": 0, "write-after-write": 0, "cascade": 0,
		"locked-write": 0, "validation": 0, "other": 0,
	}
	if tot == 0 {
		return m
	}
	m["read-after-write"] = float64(v.Aborts[CauseRAW]+v.Aborts[CauseKilledReader]) / tot
	m["write-after-write"] = float64(v.Aborts[CauseWAW]) / tot
	m["cascade"] = float64(v.Aborts[CauseCascade]) / tot
	m["locked-write"] = float64(v.Aborts[CauseLockedWrite]) / tot
	m["validation"] = float64(v.Aborts[CauseValidation]) / tot
	m["other"] = float64(v.Aborts[CauseOrder]+v.Aborts[CauseBusy]+v.Aborts[CauseNone]) / tot
	return m
}

// String renders a compact one-line summary.
func (v StatsView) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d aborts=%d (%.1f%%)", v.Commits, v.TotalAborts(), 100*v.AbortRatio())
	for c := Cause(1); c < NumCauses; c++ {
		if v.Aborts[c] > 0 {
			fmt.Fprintf(&b, " %s=%d", c, v.Aborts[c])
		}
	}
	return b.String()
}
