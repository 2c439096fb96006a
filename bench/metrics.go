package main

import "slices"

// The benchmark's vocabulary: every metric it prints, by name, with
// its unit and the direction that counts as better. BENCHMARK.json
// lists exactly these names (bench_test.go holds the two in step), and
// later issues name their claims in them.

// metricDef describes one metric. bound is the share of the base's
// median by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// The end-to-end metrics are what a user of the stack sees: the
// issue's eight, under the issue's names, printed on every run and
// judged by -compare.
//
// The driver's contract (quoted in README.md) takes an end-to-end
// metric only if every workload reports it, never as zero, and ten runs
// of one commit on different seeds agree on it to within its bound,
// which is at most 25 %. speedup_vs_seq and recovery_ms exist on one
// workload each, the latencies on the six streaming ones, and on the
// 2-vCPU hosts this was written on no latency holds still on all six
// (README.md has the spreads). So BENCHMARK.json lists three under
// end_to_end, which the driver holds every later change to, and the
// other five under per_layer, without a bound; only -compare holds a
// change to those. A gated timing's bound has to sit well above the
// ten-seed spread or identical code is refused: 25 %, the most allowed.
var (
	gatedEndToEnd = []metricDef{
		{"setup_s", "s", "lower", 0.25},
		{"tx_per_s", "1/s", "higher", 0.25},
		{"alloc_bytes_per_tx", "B", "lower", 0.05},
	}
	ungatedEndToEnd = []metricDef{
		{"commit_p50_us", "us", "lower", 0.10},
		{"commit_p95_us", "us", "lower", 0.15},
		{"rtt_p50_us", "us", "lower", 0.10},
		{"speedup_vs_seq", "ratio", "higher", 0.10},
		{"recovery_ms", "ms", "lower", 0.15},
	}
	endToEnd = slices.Concat(gatedEndToEnd, ungatedEndToEnd)
)

// perLayer metrics are prefixed with the module they measure. On a
// workload that bypasses the module they read zero and should stay
// there.
var perLayer = []metricDef{
	{"engine.starts_per_commit", "ratio", "lower", 0},
	{"engine.aborts_per_commit", "ratio", "lower", 0},
	{"engine.retries_per_commit", "ratio", "lower", 0},
	{"engine.quiesces", "count", "lower", 0},
	{"engine.abort.read_after_write_per_commit", "ratio", "lower", 0},
	{"engine.abort.write_after_write_per_commit", "ratio", "lower", 0},
	{"engine.abort.cascade_per_commit", "ratio", "lower", 0},
	{"engine.abort.validation_per_commit", "ratio", "lower", 0},
	{"engine.abort.locked_write_per_commit", "ratio", "lower", 0},
	{"engine.abort.killed_reader_per_commit", "ratio", "lower", 0},
	{"engine.exec_us_p50", "us", "lower", 0},

	{"pipeline.submit_call_us_p50", "us", "lower", 0},
	{"pipeline.submit_call_us_p99", "us", "lower", 0},
	{"pipeline.submit_blocked_frac", "ratio", "lower", 0},
	{"pipeline.backpressure_waits_per_ktx", "ratio", "lower", 0},
	{"pipeline.queue_us_p50", "us", "lower", 0},
	{"pipeline.resolve_us_p50", "us", "lower", 0},
	{"pipeline.epochs", "count", "lower", 0},
	{"pipeline.checkpoints", "count", "lower", 0},
	{"pipeline.checkpoint_ms_max", "ms", "lower", 0},

	{"executor.run_s", "s", "lower", 0},
	{"executor.seq_run_s", "s", "lower", 0},

	{"shard.submit_call_us_p50", "us", "lower", 0},
	{"shard.cross_frac", "ratio", "lower", 0},
	{"shard.fence_wait_us_p50", "us", "lower", 0},
	{"shard.fence_wait_us_p99", "us", "lower", 0},
	{"shard.imbalance", "ratio", "lower", 0},

	{"wal.fsyncs_per_ktx", "ratio", "lower", 0},
	{"wal.bytes_per_tx", "B", "lower", 0},
	{"wal.group_size_p50", "count", "higher", 0},
	{"wal.fsync_us_p50", "us", "lower", 0},
	{"wal.fsync_us_p99", "us", "lower", 0},
	{"wal.overlapped_sync_frac", "ratio", "higher", 0},
	{"wal.sync_depth_max", "count", "higher", 0},
	{"wal.durable_wait_us_p50", "us", "lower", 0},
	{"wal.append_probe_ns", "ns", "lower", 0},
	{"wal.recover_scan_ms", "ms", "lower", 0},
	{"wal.replay_tx_per_s", "1/s", "higher", 0},
	{"wal.retries", "count", "lower", 0},
	{"wal.io_errors", "count", "lower", 0},

	{"serve.submit_call_us_p50", "us", "lower", 0},
	{"serve.ingress_us_p50", "us", "lower", 0},
	{"serve.egress_us_p50", "us", "lower", 0},
	{"serve.egress_us_p95", "us", "lower", 0},
	{"serve.order_violations", "count", "lower", 0},
	{"serve.refused", "count", "lower", 0},
	{"serve.redials", "count", "lower", 0},

	{"repl.lag_ages_p50", "count", "lower", 0},
	{"repl.lag_ages_max", "count", "lower", 0},
	{"repl.lag_at_stop_ages", "count", "lower", 0},
	{"repl.catchup_ms", "ms", "lower", 0},
	{"repl.applied_tx_per_s", "1/s", "higher", 0},
	{"repl.shipped_bytes_per_tx", "B", "lower", 0},
	{"repl.reconnects", "count", "lower", 0},
	{"repl.promote_ms", "ms", "lower", 0},

	{"runtime.allocs_per_tx", "ratio", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.num_gc", "count", "lower", 0},
	{"runtime.heap_inuse_mb_max", "MB", "lower", 0},
	{"runtime.cpu_s_per_mtx", "s", "lower", 0},

	{"client.commit_p99_us", "us", "lower", 0},
	{"client.commit_p999_us", "us", "lower", 0},
	{"client.commit_max_us", "us", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"client.trace_overhead_frac", "ratio", "lower", 0},
}

// ladderOnly metrics compare two workloads of one invocation, so only
// a run of every workload (no -workload) can print them.
var ladderOnly = []struct{ name, numerator, denominator string }{
	{"wal.cost_ratio", "stream-uniform", "durable"},
	{"shard.cost_ratio", "stream-uniform", "sharded-cross"},
	{"serve.cost_ratio", "stream-uniform", "wire"},
	{"repl.cost_ratio", "wire", "wire-repl"},
}

// workloadDef names one workload and why it is on the ladder.
type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{"stream-uniform", "65536 accounts, ~0 aborts: the front-end (post/claim/ticket/run-loop hand-off) is all the work; the ladder's base rung"},
	{"stream-contended", "64 hot accounts: abort/cascade/forwarding in internal/core does most of the work; the paper's presence of data conflicts"},
	{"batch-heavy", "Executor.Run over micro RWN/Heavy against stm.Sequential: the paper's own model; body time dominates, so overhead savings move it little"},
	{"durable", "stream-uniform traffic on a WaitDurable WAL in a real directory: group commit dominates; ends with a crash and recovery"},
	{"sharded-cross", "two shards, 10% of transactions span both: the router's sequencer and the fence/rendezvous dominate"},
	{"wire", "stream-uniform traffic through serve.Server/Client on loopback: framing, ingress batching and commit-order responses are the delta"},
	{"wire-repl", "wire + WaitDurable WAL + live follower: ship/apply and its CPU steal are the delta; ends with catch-up, state match and Promote"},
}
