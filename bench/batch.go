package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/orderedstm/ostm/internal/micro"
	"github.com/orderedstm/ostm/stm"
)

// batch-heavy is the paper's own model: Executor.Run over n
// transactions with ages 0..n-1, the engine against stm.Sequential on
// the same transactions, final states compared. It has no tickets, so
// none of the streaming workloads' latencies.
const (
	batchPool = 4096
	batchOps  = 2000
	batchWarm = 2000 // transactions of the warm-up Run that ends set-up
)

type batchRig struct {
	w        *micro.Workload
	body     stm.Body
	seq, par *stm.Executor
}

func buildBatch(e env, txns int) (*batchRig, error) {
	w := micro.New(micro.Config{
		Bench: micro.RWN, Length: micro.Heavy, Txns: txns,
		PoolSize: batchPool, Seed: e.seed, HeavyOps: batchOps,
	})
	seq, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential, Workers: 1})
	if err != nil {
		return nil, err
	}
	par, err := stm.NewExecutor(stm.Config{Algorithm: e.alg, Workers: e.workers})
	if err != nil {
		return nil, err
	}
	rig := &batchRig{w: w, body: w.Body(), seq: seq, par: par}
	if _, err := par.Run(batchWarm, rig.body); err != nil {
		return nil, err
	}
	return rig, nil
}

func runBatch(e env, o runOpts) (*result, error) {
	res := newResult("batch-heavy")
	var rig *batchRig
	for k := 0; k < o.setups; k++ {
		t0 := now()
		var err error
		if rig, err = buildBatch(e, o.batchTxns); err != nil {
			return nil, fmt.Errorf("batch-heavy: set-up: %w", err)
		}
		res.add("setup_s", float64(now()-t0)/1e9)
	}

	batchTxns := o.batchTxns // ~30 us of body each
	budget := time.Duration(o.reps) * o.rep
	var m0, m1 runtime.MemStats
	heapMax := 0.0
	start := now()
	for pair := 0; pair < 3 || now()-start < int64(budget); pair++ {
		rig.w.Reset()
		t0 := now()
		sres, err := rig.seq.Run(batchTxns, rig.body)
		seqS := float64(now()-t0) / 1e9
		if err != nil {
			return nil, fmt.Errorf("batch-heavy: sequential run: %w", err)
		}
		want := rig.w.Checksum()

		rig.w.Reset()
		runtime.ReadMemStats(&m0)
		cpu0 := cpuNs()
		t0 = now()
		pres, err := rig.par.Run(batchTxns, rig.body)
		parS := float64(now()-t0) / 1e9
		cpu1 := cpuNs()
		runtime.ReadMemStats(&m1)
		got := rig.w.Checksum()

		res.attempted += uint64(batchTxns)
		switch {
		case err != nil:
			res.failed += uint64(batchTxns)
			res.findings = append(res.findings, fmt.Sprintf("run %d: %v", pair, err))
		case sres.N != batchTxns || pres.N != batchTxns:
			res.failed += uint64(batchTxns)
			res.findings = append(res.findings, fmt.Sprintf("run %d committed %d of %d (sequential %d)", pair, pres.N, batchTxns, sres.N))
		case got != want:
			res.failed += uint64(batchTxns)
			res.findings = append(res.findings, fmt.Sprintf("run %d: final state %016x differs from the sequential run's %016x", pair, got, want))
		}

		res.add("tx_per_s", float64(batchTxns)/parS)
		res.add("alloc_bytes_per_tx", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(batchTxns))
		res.add("executor.run_s", parS)
		res.add("executor.seq_run_s", seqS)
		res.add("speedup_vs_seq", seqS/parS)
		res.add("runtime.allocs_per_tx", float64(m1.Mallocs-m0.Mallocs)/float64(batchTxns))
		res.add("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		res.add("runtime.num_gc", float64(m1.NumGC-m0.NumGC))
		res.add("runtime.cpu_s_per_mtx", float64(cpu1-cpu0)/1e9/(float64(batchTxns)/1e6))
		heapMax = max(heapMax, float64(m1.HeapInuse)/(1<<20))

		v := pres.Stats
		commits := float64(v.Commits)
		res.add("engine.starts_per_commit", ratio(float64(v.Starts), commits))
		res.add("engine.aborts_per_commit", ratio(float64(v.TotalAborts()), commits))
		res.add("engine.retries_per_commit", ratio(float64(v.Retries), commits))
		res.add("engine.quiesces", float64(v.Quiesces))
	}
	res.set("runtime.heap_inuse_mb_max", heapMax)
	runs := res.values["executor.run_s"]
	res.reps, res.repS = len(runs), median(runs)
	return res, nil
}
