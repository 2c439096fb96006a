package stm

import (
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/stm/obs"
)

// latSampleMask selects which ages get latency-timestamped: ages
// with age&latSampleMask == 0, i.e. 1 in 32. The commit frontier is a
// serialized section, so a clock read plus histogram record per
// transaction costs whole percents of throughput; sampling keeps the
// percentile estimates (at engine rates, thousands of samples per
// second of wall time) while 31 of 32 transactions never touch the
// clock. Deterministic age-based selection means a sampled age is
// timed consistently across submit, commit, and durable resolution.
const latSampleMask = 31

// pipeObs bundles the pipeline's observability instruments: handles
// are resolved once at NewPipeline, so the hot paths touch plain
// pointers and atomic adds — never the registry. A nil *pipeObs (no
// Config.Obs) keeps every instrumented path on a single predictable
// branch; nothing else is paid.
type pipeObs struct {
	submitWaits *obs.Counter   // submissions that parked on backpressure
	submitWait  *obs.Histogram // ns parked before an age was assigned
	commitLat   *obs.Histogram // ns from age assignment to commit
	resolveLat  *obs.Histogram // ns from age assignment to ticket resolution
	ckptDur     *obs.Histogram // ns per committed checkpoint
	trace       *obs.TraceRing // sampled lifecycle events (may be nil)
	lastCommit  atomic.Int64   // UnixNano of the newest frontier advance
}

// newPipeObs registers the pipeline's metric families on r and
// returns the resolved handles. Engine-behavior families (commits,
// aborts by cause, retries) carry an alg label so per-algorithm abort
// breakdowns survive aggregation; lifecycle families stay unlabeled
// (the sharded router scopes whole registries per shard instead).
func newPipeObs(r *obs.Registry, p *Pipeline) *pipeObs {
	po := &pipeObs{trace: r.Trace()}
	po.lastCommit.Store(time.Now().UnixNano())
	po.submitWaits = r.Counter("ostm_submit_wait_total",
		"submissions that parked on backpressure before an age was assigned")
	po.submitWait = r.DurationHistogram("ostm_submit_wait_seconds",
		"backpressure wait from submit call to age assignment")
	po.commitLat = r.DurationHistogram("ostm_commit_seconds",
		"latency from age assignment to commit at the frontier")
	po.resolveLat = r.DurationHistogram("ostm_resolve_seconds",
		"latency from age assignment to ticket resolution (includes durability under WaitDurable)")
	po.ckptDur = r.DurationHistogram("ostm_checkpoint_seconds",
		"wall time of one checkpoint, claim gate to sink commit")

	ar := r.With("alg", p.cfg.Algorithm.String())
	ar.CounterFunc("ostm_commits_total",
		"transactions committed by the engine",
		func() float64 { return float64(p.Stats().Commits) })
	ar.CounterFunc("ostm_starts_total",
		"execution attempts started, retries included",
		func() float64 { return float64(p.Stats().Starts) })
	ar.CounterFunc("ostm_retries_total",
		"aborted attempts that were retried",
		func() float64 { return float64(p.Stats().Retries) })
	ar.CounterFunc("ostm_quiesces_total",
		"validator quiesce gates raised against retry storms",
		func() float64 { return float64(p.Stats().Quiesces) })
	for c := meta.Cause(1); c < meta.NumCauses; c++ {
		cause := c
		ar.With("cause", cause.String()).CounterFunc("ostm_aborts_total",
			"aborted execution attempts by cause",
			func() float64 { return float64(p.Stats().Aborts[cause]) })
	}

	if p.l.modal != nil {
		r.CounterFunc("ostm_pipeline_direct_commits_total",
			"commits of ages the run-loop ran directly, in order, outside the engine",
			func() float64 { return float64(p.l.modes.directN.Load()) })
		r.CounterFunc("ostm_pipeline_mode_switches_total",
			"switches of the run-loop between speculative and direct execution",
			func() float64 { return float64(p.l.modes.flips.Load()) })
	}
	r.CounterFunc("ostm_submitted_total",
		"transactions accepted into the stream",
		func() float64 { return float64(p.Submitted()) })
	r.CounterFunc("ostm_committed_total",
		"stream transactions whose age reached its final commit",
		func() float64 { return float64(p.Committed()) })
	r.GaugeFunc("ostm_frontier_age",
		"commit frontier: the next age to commit",
		func() float64 { return float64(p.order.Committed()) })
	r.GaugeFunc("ostm_frontier_lag",
		"ages submitted but not yet committed (bounded by Capacity)",
		func() float64 { return float64(p.InFlight()) })
	r.GaugeFunc("ostm_frontier_idle_seconds",
		"seconds since the commit frontier last advanced",
		func() float64 {
			return float64(time.Now().UnixNano()-po.lastCommit.Load()) / 1e9
		})
	r.GaugeFunc("ostm_queue_depth",
		"submission-ring depth: ages submitted but not yet claimed by a worker",
		func() float64 {
			// The cursor first: it never passes submitted, so the later
			// read of submitted keeps the difference non-negative.
			s := p.s
			claimed := s.cursor.Load() &^ (gateBit | directBit)
			return float64(s.submitted.Load() - claimed)
		})
	if p.s.dur != nil {
		r.GaugeFunc("ostm_durable_age",
			"durability frontier: every age below it is on stable storage",
			func() float64 { return float64(p.Durable()) })
	}
	if p.ckptSink != nil {
		r.CounterFunc("ostm_checkpoints_total",
			"checkpoints committed",
			func() float64 { return float64(p.Checkpoints()) })
		r.GaugeFunc("ostm_checkpoint_age",
			"frontier age of the newest committed checkpoint",
			func() float64 { return float64(p.CheckpointAge()) })
	}
	return po
}
