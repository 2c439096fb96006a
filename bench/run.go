package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"github.com/orderedstm/ostm/stm/serve"
)

// runOpts is the shape of one measurement. The issue's shape is 1 s of
// warm-up, 3 reps of 5 s and a 1 s probe; the contract's --seconds is
// the sum of the reps, and BENCHMARK.json asks for 15.
type runOpts struct {
	reps   int
	rep    time.Duration
	warm   time.Duration
	probe  time.Duration
	setups int  // how many times set-up is built and timed; the median is reported
	traced bool // add one traced rep on a second stack

	// Sizes of the fixed-count steps; the self-test shrinks them.
	probeTrips int // least round trips of the unloaded probe
	crashTxns  int // transactions acknowledged between the forced checkpoint and the crash
	batchTxns  int // transactions per Executor.Run
}

// issueOpts is the measurement the issue fixes: 1 s of warm-up, the
// given reps, a 1 s probe of at least 1000 trips, 100 000 transactions
// before the crash, 100 000 per batch. The stack is built nine times and
// the median build time counted, as the contract asks of setup_s.
func issueOpts(reps int, rep time.Duration) runOpts {
	return runOpts{
		reps: reps, rep: rep, warm: time.Second, probe: time.Second, setups: 9,
		probeTrips: 1000, crashTxns: 100000, batchTxns: 100000,
	}
}

// result is everything one workload's run produced: per-rep values of
// every metric (a metric's value is the median of its reps), the
// oracle's verdict, and the trace report when traced.
type result struct {
	workload  string
	attempted uint64
	failed    uint64
	findings  []string
	failAll   bool // a finding that fails every operation attempted
	reps      int
	repS      float64
	values    map[string][]float64
	trace     *traceReport
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string][]float64{}}
}

func (r *result) add(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = append(r.values[name], v)
}

// set replaces a metric's values with one value.
func (r *result) set(name string, v float64) {
	delete(r.values, name)
	r.add(name, v)
}

// fatal records a finding that fails every operation of the workload.
func (r *result) fatal(format string, args ...any) {
	r.findings = append(r.findings, fmt.Sprintf(format, args...))
	r.failAll = true
}

// failures is the workload's failed-operation count.
func (r *result) failures() uint64 {
	if r.failAll {
		return r.attempted
	}
	return r.failed
}

func (r *result) judge(v verdict) {
	r.attempted += v.attempted
	r.failed += v.failed()
	r.findings = append(r.findings, v.fatal...)
	r.failAll = r.failAll || len(v.fatal) > 0
	if n := v.refused; n > 0 {
		r.findings = append(r.findings, fmt.Sprintf("%d submissions refused or errored", n))
	}
	if n := v.mismatched; n > 0 {
		r.findings = append(r.findings, fmt.Sprintf("%d per-ticket results differ from the sequential fold", n))
	}
	if n := v.disorder; n > 0 {
		r.findings = append(r.findings, fmt.Sprintf("%d acknowledgements out of age order on their client", n))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runStream measures one streaming workload.
func runStream(e env, sp spec, o runOpts) (*result, error) {
	res := newResult(sp.name)
	res.reps, res.repS = o.reps, o.rep.Seconds()

	var st *stack
	for k := 0; k < o.setups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("%s: teardown between set-ups: %w", sp.name, err)
			}
		}
		t0 := now()
		var err error
		if st, err = buildStack(e, sp, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		res.add("setup_s", float64(now()-t0)/1e9)
	}
	defer st.close()

	var lags []float64
	var during func(<-chan struct{})
	if st.fol != nil {
		lags = make([]float64, 0, 1<<16)
		during = func(stop <-chan struct{}) {
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if len(lags) < cap(lags) {
						// Leader durable frontier minus follower apply
						// frontier; Follower.LagAges only knows the
						// frontier its last heartbeat carried.
						lag := 0.0
						if d, f := st.w.Durable(), st.fol.Frontier(); d > f {
							lag = float64(d - f)
						}
						lags = append(lags, lag)
					}
				}
			}
		}
	}
	lr := drive(st, o.warm, o.rep, o.reps, during)
	// Set-up is everything before the first measured rep, so the one
	// warm-up this run made is part of each of its set-ups.
	for i := range res.values["setup_s"] {
		res.values["setup_s"][i] += lr.warmS
	}
	if st.fol != nil {
		st.followerCatchUp(res, lags)
	}
	// The probe is taken in as many parts as there are reps, so that
	// rtt_p50_us too is a median of several and carries a spread.
	for r := 0; r < o.reps; r++ {
		rtt := probe(st, st.clients[0], o.probe/time.Duration(o.reps), (o.probeTrips+o.reps-1)/o.reps)
		res.add("rtt_p50_us", rtt.quantile(0.5)/1e3)
	}

	var claims []claim
	if sp.durable && !sp.repl {
		rec, err := crashAndRecover(st, o.crashTxns)
		if err != nil {
			return nil, fmt.Errorf("%s: crash step: %w", sp.name, err)
		}
		res.set("wal.recover_scan_ms", rec.scanMS)
		res.set("recovery_ms", rec.totalMS)
		res.set("wal.replay_tx_per_s", rec.replayRate)
		claims = append(claims, claim{"recovered clone", rec.next, rec.state})
		if acked := st.pipe.Submitted(); acked > rec.next {
			res.fatal("ages [%d,%d) were acknowledged as durable but are missing after recovery", rec.next, acked)
		}
	}
	if err := st.drain(); err != nil {
		return nil, fmt.Errorf("%s: drain: %w", sp.name, err)
	}
	total := st.submitted()
	claims = append(claims, claim{"final", total, st.bank.balances()})
	if st.fol != nil {
		more, err := st.promote(res, total)
		if err != nil {
			return nil, fmt.Errorf("%s: promote: %w", sp.name, err)
		}
		claims = append(claims, more...)
	}
	if sp.durable {
		ns, err := appendProbe(filepath.Join(e.dir, sp.name+"-append-probe"), st.inputs[0].at(0))
		if err != nil {
			return nil, fmt.Errorf("%s: append probe: %w", sp.name, err)
		}
		res.set("wal.append_probe_ns", ns)
		res.set("wal.sync_depth_max", float64(st.w.SyncDepthMax()))
	}

	v := verify(st.clients, st.inputs, sp.accounts, st.bank.results, min(total, uint64(len(st.bank.results))), claims)
	if n := st.bank.overflow.Load(); n > 0 {
		v.fatal = append(v.fatal, fmt.Sprintf("%d ages ran past the result log's capacity of %d", n, len(st.bank.results)))
	}
	res.judge(v)
	derive(res, st, lr)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", sp.name, err)
	}

	if o.traced {
		if err := tracedPass(e, sp, o, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// submitted is how many ages the stack's front door has assigned.
func (st *stack) submitted() uint64 {
	if st.sp != nil {
		return st.sp.Submitted()
	}
	return st.pipe.Submitted()
}

// followerCatchUp runs the moment the load stops: how far behind the
// follower is, and how long it takes to apply everything acknowledged.
func (st *stack) followerCatchUp(res *result, lags []float64) {
	target := st.w.Durable()
	lag := uint64(0)
	if f := st.fol.Frontier(); f < target {
		lag = target - f
	}
	t0 := now()
	caught := st.awaitFollower(target)
	res.set("repl.lag_at_stop_ages", float64(lag))
	res.set("repl.catchup_ms", float64(now()-t0)/1e6)
	if !caught {
		res.fatal("follower stuck at age %d, leader durable at %d", st.fol.Frontier(), target)
	}
	_, med, _ := quartiles(lags)
	res.set("repl.lag_ages_p50", med)
	top := 0.0
	for _, l := range lags {
		top = max(top, l)
	}
	res.set("repl.lag_ages_max", top)
}

// promote is the hand-off: Promote() on the follower, then one
// acknowledged write on the promoted node. The follower's state after
// Promote's drain, and again after that write, must each be the fold
// of exactly the prefix it holds.
func (st *stack) promote(res *result, total uint64) ([]claim, error) {
	conn, err := serve.Dial(context.Background(), st.fsrv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// Promotion stops the stream: whatever the follower has not applied
	// by then it never will, so let it reach the leader's last age first.
	st.awaitFollower(total)
	c := st.clients[0]
	i := c.next
	c.next++
	t0 := now()
	if err := st.fol.Promote(); err != nil {
		return nil, err
	}
	// Between the drain and the write; reading 65 536 words is tens of
	// microseconds against a promotion of milliseconds.
	claims := []claim{{"follower after Promote", total, st.fbank.balances()}}
	call, err := conn.Submit(st.inputs[0].at(i))
	if err != nil {
		return nil, err
	}
	age, err := call.Wait()
	res.set("repl.promote_ms", float64(now()-t0)/1e6)
	if !c.record(i, age, err) {
		return claims, nil
	}
	if err := st.fpipe.Drain(); err != nil {
		return nil, err
	}
	return append(claims, claim{"promoted node after one write", total + 1, st.fbank.balances()}), nil
}

// derive turns the loaded run's samples and client statistics into
// metrics: one value per rep, so that the median of reps is reported.
func derive(res *result, st *stack, lr loadResult) {
	layer := st.layer()
	heapMax := 0.0
	for _, s := range lr.samples {
		heapMax = max(heapMax, float64(s.mem.HeapInuse)/(1<<20))
	}
	res.set("runtime.heap_inuse_mb_max", heapMax)
	for r := 1; r <= lr.reps; r++ {
		s0, s1 := lr.samples[r-1], lr.samples[r]
		dt := float64(s1.at-s0.at) / 1e9
		d := func(name string) float64 { return s1.counters[name] - s0.counters[name] }
		var lat, call hist
		var acked, callNs float64
		for _, c := range st.clients {
			ps := &c.ph[r]
			acked += float64(ps.acked)
			callNs += float64(ps.callNs)
			lat.merge(&ps.lat)
			call.merge(&ps.call)
		}
		res.add("tx_per_s", ratio(acked, dt))
		res.add("commit_p50_us", lat.quantile(0.50)/1e3)
		res.add("commit_p95_us", lat.quantile(0.95)/1e3)
		res.add("client.commit_p99_us", lat.quantile(0.99)/1e3)
		res.add("client.commit_p999_us", lat.quantile(0.999)/1e3)
		res.add("client.commit_max_us", float64(lat.max)/1e3)
		res.add("client.samples", float64(lat.n))
		res.add("alloc_bytes_per_tx", ratio(float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc), acked))

		res.add("runtime.allocs_per_tx", ratio(float64(s1.mem.Mallocs-s0.mem.Mallocs), acked))
		res.add("runtime.gc_pause_ms_total", float64(s1.mem.PauseTotalNs-s0.mem.PauseTotalNs)/1e6)
		res.add("runtime.num_gc", float64(s1.mem.NumGC-s0.mem.NumGC))
		res.add("runtime.cpu_s_per_mtx", ratio(float64(s1.cpuNs-s0.cpuNs)/1e9, acked/1e6))

		res.add(layer+".submit_call_us_p50", call.quantile(0.50)/1e3)
		if layer == "pipeline" {
			res.add("pipeline.submit_call_us_p99", call.quantile(0.99)/1e3)
			// Timed calls are one in timeMask+1; scale their time up to
			// all calls, over the clients' total wall time.
			res.add("pipeline.submit_blocked_frac", ratio(callNs*(timeMask+1), float64(len(st.clients))*dt*1e9))
		}

		commits := d("commits")
		res.add("engine.starts_per_commit", ratio(d("starts"), commits))
		res.add("engine.aborts_per_commit", ratio(d("aborts"), commits))
		res.add("engine.retries_per_commit", ratio(d("retries"), commits))
		res.add("engine.quiesces", d("quiesces"))
		res.add("engine.abort.read_after_write_per_commit", ratio(d("abort.raw"), commits))
		res.add("engine.abort.write_after_write_per_commit", ratio(d("abort.waw"), commits))
		res.add("engine.abort.cascade_per_commit", ratio(d("abort.cascade"), commits))
		res.add("engine.abort.validation_per_commit", ratio(d("abort.validation"), commits))
		res.add("engine.abort.locked_write_per_commit", ratio(d("abort.locked_write"), commits))
		res.add("engine.abort.killed_reader_per_commit", ratio(d("abort.killed_reader"), commits))
		res.add("pipeline.epochs", d("epochs"))
		res.add("pipeline.checkpoints", d("checkpoints"))

		if st.sp != nil {
			res.add("shard.cross_frac", ratio(d("cross"), d("submitted")))
			top, sum := 0.0, 0.0
			for s := 0; s < st.spec.shards; s++ {
				n := d(fmt.Sprintf("shard.commits.%d", s))
				top, sum = max(top, n), sum+n
			}
			res.add("shard.imbalance", ratio(top, sum/float64(st.spec.shards)))
		}
		if st.w != nil {
			res.add("wal.fsyncs_per_ktx", ratio(d("fsyncs"), acked/1e3))
			res.add("wal.bytes_per_tx", ratio(d("wal.bytes"), d("wal.appended")))
			res.add("wal.overlapped_sync_frac", ratio(d("overlaps"), d("fsyncs")))
			res.add("wal.retries", d("wal.retries"))
			res.add("wal.io_errors", d("wal.io_errors"))
		}
		if st.srv != nil {
			res.add("serve.order_violations", d("order_violations"))
			res.add("serve.redials", d("redials"))
		}
		if st.fol != nil {
			res.add("repl.applied_tx_per_s", ratio(d("applied"), dt))
			res.add("repl.shipped_bytes_per_tx", ratio(d("shipped.bytes"), d("shipped")))
		}
	}
	if st.srv != nil {
		var refused float64
		for _, c := range st.clients {
			refused += float64(c.refused)
		}
		res.set("serve.refused", refused)
	}
	if st.fol != nil {
		res.set("repl.reconnects", lr.samples[len(lr.samples)-1].counters["reconnects"])
	}
}

// tracedPass builds the stack a second time with the obs registry and
// trace ring attached, runs one more rep, and reads the per-layer
// numbers the registry and the spans give. It reports separately: the
// end-to-end numbers above were taken with Config.Obs == nil.
func tracedPass(e env, sp spec, o runOpts, res *result) error {
	st, err := buildStack(e, sp, true)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", sp.name, err)
	}
	defer st.close()
	lr := drive(st, o.warm, o.rep, 1, nil)
	if err := st.drain(); err != nil {
		return fmt.Errorf("%s: traced drain: %w", sp.name, err)
	}
	total := st.submitted()
	v := verify(st.clients, st.inputs, sp.accounts, st.bank.results, min(total, uint64(len(st.bank.results))),
		[]claim{{"traced final", total, st.bank.balances()}})
	res.judge(v)

	var acked float64
	for _, c := range st.clients {
		acked += float64(c.ph[1].acked)
	}
	tracedRate := ratio(acked, float64(lr.samples[1].at-lr.samples[0].at)/1e9)
	res.set("client.trace_overhead_frac", 1-ratio(tracedRate, median(res.values["tx_per_s"])))

	tr := assemble(st)
	res.trace = tr
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }
	res.set("engine.exec_us_p50", us(&tr.execute, 0.5))
	res.set("pipeline.queue_us_p50", us(&tr.queue, 0.5))
	res.set("pipeline.resolve_us_p50", us(&tr.resolve, 0.5))
	res.set("wal.durable_wait_us_p50", us(&tr.durable, 0.5))
	res.set("serve.ingress_us_p50", us(&tr.ingress, 0.5))
	if st.srv != nil {
		res.set("serve.egress_us_p50", us(&tr.egress, 0.5))
		res.set("serve.egress_us_p95", us(&tr.egress, 0.95))
	}

	reg := st.reg
	if n, ok := reg.Sum("ostm_submit_wait_total"); ok {
		res.set("pipeline.backpressure_waits_per_ktx", ratio(n, float64(total)/1e3))
	}
	if h, ok := reg.Hist("ostm_checkpoint_seconds"); ok {
		res.set("pipeline.checkpoint_ms_max", h.Max()/1e6)
	}
	if h, ok := reg.Hist("ostm_wal_group_size"); ok {
		res.set("wal.group_size_p50", h.Quantile(0.5))
	}
	if h, ok := reg.Hist("ostm_wal_fsync_seconds"); ok {
		res.set("wal.fsync_us_p50", h.Quantile(0.5)/1e3)
		res.set("wal.fsync_us_p99", h.Quantile(0.99)/1e3)
	}
	if h, ok := reg.Hist("ostm_fence_wait_seconds"); ok {
		res.set("shard.fence_wait_us_p50", h.Quantile(0.5)/1e3)
		res.set("shard.fence_wait_us_p99", h.Quantile(0.99)/1e3)
	}
	return st.close()
}
