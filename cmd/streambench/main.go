// Command streambench measures the streaming front-ends (stm.Pipeline
// and shard.ShardedPipeline) under a closed-loop load: a set of client
// goroutines each submits a transaction, waits for its ticket to
// commit, and immediately submits the next — the standard way to
// measure a long-lived transaction service's sustained throughput and
// commit latency together, as opposed to the open-loop batch numbers
// microbench reports.
//
// With -shards 0 (the default) it drives a single stm.Pipeline. With
// -shards S >= 1 it drives a shard.ShardedPipeline over S partitions:
// accounts are laid out partition-locally, each client transacts
// within a random partition, and -cross sets the fraction of
// transactions that deliberately span two partitions (declared via
// stm.Access and executed through the fence/rendezvous protocol).
// With -batch B > 1 each client submits B transactions per round
// through SubmitBatch and waits for all of them, exercising the
// amortized producer path.
//
// It also verifies the memory-discipline story two ways: heap
// occupancy is sampled across the run (an unbounded stream that leaked
// engine metadata per transaction would show monotonic growth), and
// allocator/GC counters are differenced across the run so the -json
// report carries allocs_per_tx, bytes_per_tx and gc_pauses_us — the
// machine-checkable form of the zero-alloc hot-path claim. The client
// machinery reuses its transaction bodies and index scratch, so those
// metrics measure the Submit→commit path, not the benchmark harness.
//
// Examples:
//
//	streambench -alg OWB -workers 8 -clients 16 -txns 100000
//	streambench -alg OWB -batch 32 -json >> BENCH_stream.json
//	streambench -alg OWB -shards 4 -cross 0.05 -json >> BENCH_stream.json
//	streambench -alg OWB -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// waiter is the common ticket surface of both front-ends.
type waiter interface{ Wait() error }

// txnState is one in-flight transaction's reusable parameter block.
// Each client owns -batch of them and rewrites them between rounds, so
// steady-state submission allocates nothing beyond the ticket itself:
// the body closure, the extra-read scratch and the access declaration
// are all reused. Rewriting is safe because the client only mutates a
// state after the previous submission using it has resolved (bodies
// may re-execute speculatively, but never after their ticket commits).
type txnState struct {
	accounts []stm.Var
	from, to int
	extra    []int // indices folded in as extra reads
	body     stm.Body
	vars     []*stm.Var // declared access set (sharded mode)
	pl       txnPayload // reusable durable payload (wal mode)
	wire     []byte     // recycled encode buffer (wal mode)

	// Typed mode (-typed): the same transfer over TVar[uint64]
	// accounts as a value-returning Func; handles are the cached
	// per-account word handles for access declarations.
	tacc    []stm.TVar[uint64]
	handles []*stm.Var
	fnT     stm.Func[uint64]
}

func newTxnState(accounts []stm.Var, ops int) *txnState {
	st := &txnState{accounts: accounts, extra: make([]int, 0, ops), vars: make([]*stm.Var, 0, ops+2)}
	st.body = func(tx stm.Tx, age int) {
		b := tx.Read(&st.accounts[st.from])
		for _, i := range st.extra {
			b += tx.Read(&st.accounts[i])
		}
		amt := b % 7
		cur := tx.Read(&st.accounts[st.from])
		if cur >= amt {
			tx.Write(&st.accounts[st.from], cur-amt)
			tx.Write(&st.accounts[st.to], tx.Read(&st.accounts[st.to])+amt)
		}
	}
	return st
}

// newTypedTxnState mirrors newTxnState over the typed pool: one
// reusable Func per state, returning the sender's post-transfer
// balance (the typed path must carry a real result to exercise the
// value latch, not just run).
func newTypedTxnState(tacc []stm.TVar[uint64], handles []*stm.Var, ops int) *txnState {
	st := &txnState{tacc: tacc, handles: handles, extra: make([]int, 0, ops), vars: make([]*stm.Var, 0, ops+2)}
	st.fnT = func(tx stm.Tx, age int) uint64 {
		b := stm.ReadT(tx, &st.tacc[st.from])
		for _, i := range st.extra {
			b += stm.ReadT(tx, &st.tacc[i])
		}
		amt := b % 7
		cur := stm.ReadT(tx, &st.tacc[st.from])
		if cur >= amt {
			stm.WriteT(tx, &st.tacc[st.from], cur-amt)
			stm.WriteT(tx, &st.tacc[st.to], stm.ReadT(tx, &st.tacc[st.to])+amt)
			return cur - amt
		}
		return cur
	}
	return st
}

// scratch is one client's reusable batch-submission buffers, so the
// batched path allocates no harness slices per round either.
type scratch struct {
	bodies   []stm.Body
	reqs     []shard.Request
	payloads []any
}

// fillExtra rewrites the extra-read indices: ops-2 neighbors of
// position fi, walking the given index set (or the whole pool when idx
// is nil).
func (st *txnState) fillExtra(fi, ops, n int, idx []int) {
	st.extra = st.extra[:0]
	for k := 1; k < ops-1; k++ {
		if idx == nil {
			st.extra = append(st.extra, (fi+k)%n)
		} else {
			st.extra = append(st.extra, idx[(fi+k)%n])
		}
	}
}

// payload rewrites the durable submission payload from the current
// indices. The struct and its index scratch are reused across rounds
// (Encode runs synchronously inside SubmitPayload, and the state is
// only rewritten after the previous submission resolved), so durable
// submission allocates just the wire bytes and the decoded body.
func (st *txnState) payload() *txnPayload {
	st.pl.op, st.pl.from, st.pl.to = opTransfer, uint32(st.from), uint32(st.to)
	st.pl.extra = st.pl.extra[:0]
	for _, e := range st.extra {
		st.pl.extra = append(st.pl.extra, uint32(e))
	}
	return &st.pl
}

// encodeWire frames the current indices into the state's recycled
// buffer for SubmitEncoded: the pipeline releases the bytes when the
// ticket resolves, and this closed-loop client reuses a state only
// after its previous submission resolved, so the durable submit path
// allocates nothing beyond the decoded body.
func (st *txnState) encodeWire() []byte {
	st.wire = appendTransfer(st.wire[:0], *st.payload())
	return st.wire
}

// declare rewrites the access declaration from the current indices.
func (st *txnState) declare() stm.Access {
	st.vars = st.vars[:0]
	st.vars = append(st.vars, &st.accounts[st.from], &st.accounts[st.to])
	for _, i := range st.extra {
		st.vars = append(st.vars, &st.accounts[i])
	}
	return stm.Touches(st.vars...)
}

// declareTyped is declare over the typed pool's cached word handles.
func (st *txnState) declareTyped() stm.Access {
	st.vars = st.vars[:0]
	st.vars = append(st.vars, st.handles[st.from], st.handles[st.to])
	for _, i := range st.extra {
		st.vars = append(st.vars, st.handles[i])
	}
	return stm.Touches(st.vars...)
}

func main() {
	var (
		alg      = stm.OWB
		workers  = flag.Int("workers", 8, "engine worker goroutines (per shard when -shards > 0)")
		clients  = flag.Int("clients", 16, "closed-loop client goroutines")
		txns     = flag.Int("txns", 100000, "total transactions to stream")
		pool     = flag.Int("pool", 1<<16, "shared word-pool size (accounts)")
		ops      = flag.Int("ops", 4, "reads+writes per transaction")
		capF     = flag.Int("capacity", 0, "pipeline capacity (0 = default)")
		window   = flag.Int("window", 0, "run-ahead window (0 = default)")
		epoch    = flag.Int("epoch", 1<<14, "commits per recycling epoch")
		batch    = flag.Int("batch", 1, "transactions submitted per client round (>1 uses SubmitBatch)")
		typed    = flag.Bool("typed", false, "drive the typed API (TVar[uint64] + SubmitFunc / SubmitPayloadT) instead of the word API")
		fresh    = flag.Bool("fresh", false, "disable descriptor recycling (one fresh descriptor per attempt)")
		shardsF  = flag.Int("shards", 0, "partitions for sharded execution (0 = unsharded stm.Pipeline)")
		crossF   = flag.Float64("cross", 0, "fraction of transactions spanning two shards (sharded mode)")
		walDir   = flag.String("wal", "", "write-ahead log directory (durable mode; empty = no WAL)")
		syncF    = flag.String("sync", "none", "WAL sync policy: none | N (fsync every N commits) | duration (fsync interval) | adaptive (size groups to fsync latency)")
		syncDep  = flag.Int("sync-depth", 0, "max in-flight fsyncs (pipelined group commit depth; 0 = default)")
		ckptEv   = flag.Uint64("checkpoint-every", 0, "checkpoint every N commits: snapshot the pool, truncate redundant log history (requires -wal)")
		waitDur  = flag.Bool("waitdurable", false, "resolve tickets only once their age is durable (requires -wal)")
		recoverF = flag.Bool("recover", false, "recover the -wal log: truncate torn tail, replay, verify against the sequential oracle, report")
		faultsF  = flag.String("faults", "", "chaos mode: seed:N runs a seeded fault-injection pass instead of the benchmark and reports the safety verdicts")
		onFailF  = flag.String("onfail", "failstop", "WAL terminal-failure policy in chaos mode: failstop | degrade")
		obsOn    = flag.Bool("obs", true, "attach the observability registry (latency histograms, abort breakdown, /metrics families); -obs=false measures the uninstrumented hot path")
		metrAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and pprof on this address during the run (requires -obs)")
		jsonF    = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		memEvery = flag.Int("memevery", 8, "heap samples across the run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	// Algorithm implements encoding.TextMarshaler/TextUnmarshaler, so
	// the flag package parses paper-style names directly — no
	// hand-rolled switch.
	flag.TextVar(&alg, "alg", stm.OWB, "algorithm (paper-style name, e.g. OWB, OUL, Ordered-TL2)")
	flag.Parse()
	if *faultsF != "" {
		runChaos(*faultsF, alg, *shardsF, *workers, *txns, *onFailF, *walDir, *jsonF)
		return
	}
	if *recoverF {
		if *walDir == "" {
			fatal(fmt.Errorf("-recover requires -wal"))
		}
		runRecovery(*walDir, alg, *shardsF, *workers, *pool, *jsonF)
		return
	}
	if *waitDur && *walDir == "" {
		fatal(fmt.Errorf("-waitdurable requires -wal"))
	}
	if *batch < 1 {
		*batch = 1
	}
	if *walDir != "" && *batch > 1 && *shardsF > 0 {
		fatal(fmt.Errorf("-batch > 1 with -wal is unsupported in sharded mode"))
	}
	if *typed && *batch > 1 {
		fatal(fmt.Errorf("-typed has no batched submission path; use -batch 1"))
	}
	if *typed && *walDir != "" && *shardsF > 0 {
		fatal(fmt.Errorf("-typed with -wal is unsupported in sharded mode"))
	}
	if *ckptEv > 0 && *walDir == "" {
		fatal(fmt.Errorf("-checkpoint-every requires -wal"))
	}
	if *ckptEv > 0 && *typed {
		fatal(fmt.Errorf("-checkpoint-every snapshots the word pool; use the word API (-typed off)"))
	}
	if *metrAddr != "" && !*obsOn {
		fatal(fmt.Errorf("-metrics-addr requires -obs"))
	}
	var reg *obs.Registry
	if *obsOn {
		reg = obs.NewRegistry()
	}
	pcfg := stm.Config{
		Algorithm:        alg,
		Workers:          *workers,
		Window:           *window,
		Capacity:         *capF,
		EpochAges:        *epoch,
		FreshDescriptors: *fresh,
	}

	accounts := stm.NewVars(*pool)
	for i := range accounts {
		accounts[i].Store(1000)
	}
	// Typed mode state: a TVar pool with the same layout and initial
	// balances, plus cached word handles for sharded declarations.
	var tAccounts []stm.TVar[uint64]
	var tHandles []*stm.Var
	if *typed {
		tAccounts = stm.NewTVars[uint64](*pool)
		tHandles = make([]*stm.Var, *pool)
		for i := range tAccounts {
			tAccounts[i].Store(1000)
			tHandles[i] = tAccounts[i].Vars()[0]
		}
	}

	// Durable mode: create the log up front; the selected front-end
	// appends each committed age's payload and the run reports the
	// durability columns below.
	var walw *wal.Writer
	var snapper stm.Snapshotter
	if *walDir != "" {
		opts, err := parseSyncPolicy(*syncF)
		if err != nil {
			fatal(err)
		}
		opts.MaxInFlightSyncs = *syncDep
		opts.Obs = reg
		if *waitDur && opts.SyncEveryN == 0 && opts.SyncInterval == 0 && !opts.Adaptive {
			// Policy "none" has no background sync points, so tickets
			// deferred to durability would wait forever.
			fatal(fmt.Errorf("-waitdurable requires a sync policy (-sync N, duration, or adaptive — not none)"))
		}
		if walw, err = wal.Create(*walDir, 0, opts); err != nil {
			fatal(err)
		}
		if *ckptEv > 0 {
			snapper = stm.SnapshotterFuncs{
				SnapshotFunc: func() ([]byte, error) { return stm.SnapshotVars(accounts), nil },
				RestoreFunc:  func(data []byte) error { return stm.RestoreVars(accounts, data) },
			}
		}
	}

	// prepare rewrites one txnState for the next submission; submitOne
	// and submitMany route it through the selected front-end; warmup
	// runs before the measured window (see below).
	var warmup func()
	var prepare func(r *rng.Rand, st *txnState)
	var submitOne func(st *txnState) (waiter, error)
	var submitMany func(sts []*txnState, ws []waiter, sc *scratch) ([]waiter, error)
	var closeSvc func() error
	var committed func() uint64
	var epochs func() uint64
	var stats func() (commits, aborts, retries uint64)
	var breakdown func() map[string]float64
	var perShard func() []shardStats
	var crossCount func() uint64
	var ckptStats func() (n, age uint64)
	var effCapacity, effWindow int

	if *shardsF == 0 {
		pcfg.Obs = reg
		if walw != nil {
			pcfg.WAL = walw
			if *typed {
				pcfg.Codec = typedBenchCodec(tAccounts)
			} else {
				pcfg.Codec = benchCodec{accounts: accounts}
			}
			pcfg.WaitDurable = *waitDur
			pcfg.CheckpointEvery = *ckptEv
			pcfg.Snapshotter = snapper
		}
		p, err := stm.NewPipeline(pcfg)
		if err != nil {
			fatal(err)
		}
		ckptStats = func() (uint64, uint64) { return p.Checkpoints(), p.CheckpointAge() }
		prepare = func(r *rng.Rand, st *txnState) {
			st.from, st.to = r.Intn(*pool), r.Intn(*pool)
			st.fillExtra(st.from, *ops, *pool, nil)
		}
		switch {
		case *typed && walw != nil:
			submitOne = func(st *txnState) (waiter, error) {
				return stm.SubmitPayloadT[*txnPayload, uint64](p, st.payload())
			}
		case *typed:
			submitOne = func(st *txnState) (waiter, error) { return stm.SubmitFunc(p, st.fnT) }
		case walw != nil:
			submitOne = func(st *txnState) (waiter, error) { return p.SubmitEncoded(st.encodeWire()) }
		default:
			submitOne = func(st *txnState) (waiter, error) { return p.Submit(st.body) }
		}
		warmup = func() {
			var tk waiter
			var err error
			switch {
			case *typed && walw != nil:
				tk, err = stm.SubmitPayloadT[*txnPayload, uint64](p, &txnPayload{op: opWarmAll})
			case *typed:
				tk, err = stm.SubmitFunc(p, func(tx stm.Tx, _ int) uint64 {
					for i := range tAccounts {
						stm.ReadT(tx, &tAccounts[i])
					}
					return 0
				})
			case walw != nil:
				tk, err = p.SubmitPayload(txnPayload{op: opWarmAll})
			default:
				tk, err = p.Submit(func(tx stm.Tx, _ int) {
					for i := range accounts {
						tx.Read(&accounts[i])
					}
				})
			}
			if err == nil {
				err = tk.Wait()
			}
			if err != nil {
				fatal(err)
			}
		}
		submitMany = func(sts []*txnState, ws []waiter, sc *scratch) ([]waiter, error) {
			var tks []*stm.Ticket
			var err error
			if walw != nil {
				sc.payloads = sc.payloads[:0]
				for _, st := range sts {
					sc.payloads = append(sc.payloads, st.payload())
				}
				tks, err = p.SubmitPayloadBatch(sc.payloads)
			} else {
				sc.bodies = sc.bodies[:0]
				for _, st := range sts {
					sc.bodies = append(sc.bodies, st.body)
				}
				tks, err = p.SubmitBatch(sc.bodies)
			}
			for _, tk := range tks {
				ws = append(ws, tk)
			}
			return ws, err
		}
		closeSvc = p.Close
		committed = p.Committed
		epochs = p.Epochs
		stats = func() (uint64, uint64, uint64) {
			sv := p.Stats()
			return sv.Commits, sv.TotalAborts(), sv.Retries
		}
		breakdown = func() map[string]float64 { return p.Stats().Breakdown() }
		perShard = func() []shardStats { return nil }
		crossCount = func() uint64 { return 0 }
		effCapacity, effWindow = p.Config().Capacity, p.Config().Window
	} else {
		// Partition-local account layout: bucket indices by owning
		// shard (the stable mapping, computable before the router
		// exists — the durable codec needs it at construction). Typed
		// mode buckets by the TVar pool's word handles instead.
		buckets := make([][]int, *shardsF)
		for i := range accounts {
			h := &accounts[i]
			if *typed {
				h = tHandles[i]
			}
			s := shard.Of(h, *shardsF)
			buckets[s] = append(buckets[s], i)
		}
		scfg := shard.Config{Shards: *shardsF, Pipeline: pcfg, Obs: reg}
		if walw != nil {
			scfg.WAL = walw
			scfg.Codec = shardCodec{accounts: accounts, buckets: buckets}
			scfg.WaitDurable = *waitDur
			scfg.CheckpointEvery = *ckptEv
			scfg.Snapshotter = snapper
		}
		sp, err := shard.New(scfg)
		if err != nil {
			fatal(err)
		}
		ckptStats = func() (uint64, uint64) { return sp.Checkpoints(), sp.CheckpointAge() }
		for s, b := range buckets {
			if len(b) < 2 {
				fatal(fmt.Errorf("shard %d owns %d accounts; raise -pool", s, len(b)))
			}
		}
		nshards := *shardsF
		crossPPM := int(*crossF * 1e6) // per-million threshold; rng has no Float64
		prepare = func(r *rng.Rand, st *txnState) {
			if nshards > 1 && r.Intn(1_000_000) < crossPPM {
				// Cross-shard transfer between two partitions.
				sa := r.Intn(nshards)
				sb := (sa + 1 + r.Intn(nshards-1)) % nshards
				st.from = buckets[sa][r.Intn(len(buckets[sa]))]
				st.to = buckets[sb][r.Intn(len(buckets[sb]))]
				st.extra = st.extra[:0]
				return
			}
			// Single-shard transaction confined to one partition.
			s := r.Intn(nshards)
			bk := buckets[s]
			fi := r.Intn(len(bk))
			st.from, st.to = bk[fi], bk[r.Intn(len(bk))]
			st.fillExtra(fi, *ops, len(bk), bk)
		}
		switch {
		case *typed:
			submitOne = func(st *txnState) (waiter, error) {
				return shard.SubmitFunc(sp, st.declareTyped(), st.fnT)
			}
		case walw != nil:
			submitOne = func(st *txnState) (waiter, error) {
				return sp.SubmitEncoded(st.encodeWire())
			}
		default:
			submitOne = func(st *txnState) (waiter, error) {
				return sp.Submit(st.declare(), st.body)
			}
		}
		warmup = func() {
			for s := range buckets {
				var tk waiter
				var err error
				switch {
				case *typed:
					bk := buckets[s]
					vs := make([]*stm.Var, len(bk))
					for i, idx := range bk {
						vs[i] = tHandles[idx]
					}
					tk, err = shard.SubmitFunc(sp, stm.Touches(vs...), func(tx stm.Tx, _ int) uint64 {
						for _, idx := range bk {
							stm.ReadT(tx, &tAccounts[idx])
						}
						return 0
					})
				case walw != nil:
					tk, err = sp.SubmitPayload(txnPayload{op: opWarmShard, shard: uint16(s)})
				default:
					bk := buckets[s]
					vs := make([]*stm.Var, len(bk))
					for i, idx := range bk {
						vs[i] = &accounts[idx]
					}
					tk, err = sp.Submit(stm.Touches(vs...), func(tx stm.Tx, _ int) {
						for _, v := range vs {
							tx.Read(v)
						}
					})
				}
				if err == nil {
					err = tk.Wait()
				}
				if err != nil {
					fatal(err)
				}
			}
		}
		submitMany = func(sts []*txnState, ws []waiter, sc *scratch) ([]waiter, error) {
			sc.reqs = sc.reqs[:0]
			for _, st := range sts {
				sc.reqs = append(sc.reqs, shard.Request{Access: st.declare(), Body: st.body})
			}
			tks, err := sp.SubmitBatch(sc.reqs)
			for _, tk := range tks {
				if tk != nil {
					ws = append(ws, tk)
				}
			}
			return ws, err
		}
		closeSvc = sp.Close
		committed = sp.Submitted // every accepted txn commits on a clean run
		epochs = func() uint64 { return 0 }
		stats = func() (uint64, uint64, uint64) {
			sv := sp.Stats()
			return sv.Commits, sv.TotalAborts(), sv.Retries
		}
		breakdown = func() map[string]float64 { return sp.Stats().Breakdown() }
		perShard = func() []shardStats {
			out := make([]shardStats, 0, nshards)
			for s, sv := range sp.ShardStats() {
				out = append(out, shardStats{
					Shard:    s,
					Commits:  sv.Commits,
					Aborts:   sv.TotalAborts(),
					Retries:  sv.Retries,
					Quiesces: sv.Quiesces,
				})
			}
			return out
		}
		crossCount = sp.CrossShard
		effCapacity, effWindow = sp.PipelineConfig().Capacity, sp.PipelineConfig().Window
	}

	// Metrics endpoint: live during the measured window, so a scrape can
	// watch frontier lag, abort breakdown and fsync latency mid-run.
	if *metrAddr != "" {
		srv, err := obs.Serve(*metrAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		if !*jsonF {
			fmt.Printf("metrics on http://%s/metrics\n", srv.Addr)
		}
	}

	// Frontier lag is a gauge: sample it across the run and report the
	// worst value seen (steady-state lag ≈ in-flight depth under load).
	var lagMax float64
	lagStop := make(chan struct{})
	lagDone := make(chan struct{})
	if reg != nil {
		go func() {
			defer close(lagDone)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-lagStop:
					return
				case <-tick.C:
					if v, ok := reg.Sum("ostm_frontier_lag"); ok && v > lagMax {
						lagMax = v
					}
				}
			}
		}()
	} else {
		close(lagDone)
	}

	heapSamples := make([]uint64, 0, *memEvery+2)
	var heapMu sync.Mutex
	// The endpoint samples force a collection so first-vs-last compares
	// live bytes (the leak signal); mid-run samples are taken raw to
	// avoid injecting GC pauses into the measured latencies.
	sampleHeap := func(forceGC bool) {
		if forceGC {
			runtime.GC()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMu.Lock()
		heapSamples = append(heapSamples, ms.HeapAlloc)
		heapMu.Unlock()
	}
	// Warm the engine before the measured window: one read-everything
	// transaction (per shard) materializes every lazily-allocated
	// reader-slot array the workload will ever touch, so allocs_per_tx
	// reports the steady state of a long-lived service rather than
	// first-touch warmup — exactly the regime the zero-alloc claim is
	// about (and the heap baseline below then reflects it too).
	warmup()
	warmed := committed() // exclude warmup from the reported txn count
	sampleHeap(true)

	if *clients > *txns {
		*clients = *txns // fewer transactions than clients: shrink the loop
	}
	if *clients < 1 {
		fatal(fmt.Errorf("need at least 1 transaction (got -txns %d)", *txns))
	}
	perClient := *txns / *clients
	if *batch > perClient {
		*batch = perClient
	}
	if *memEvery < 1 {
		*memEvery = 1
	}
	sampleEvery := perClient / *memEvery
	if sampleEvery == 0 {
		sampleEvery = 1
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Allocator/GC counters are differenced across the measured run:
	// allocs_per_tx is total heap objects allocated (anywhere in the
	// process) divided by transactions, the before/after number the
	// zero-alloc hot path is judged by.
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c)*0x9E3779B97F4A7C15 + 1)
			states := make([]*txnState, *batch)
			for i := range states {
				if *typed {
					states[i] = newTypedTxnState(tAccounts, tHandles, *ops)
				} else {
					states[i] = newTxnState(accounts, *ops)
				}
			}
			ws := make([]waiter, 0, *batch)
			sc := &scratch{
				bodies: make([]stm.Body, 0, *batch),
				reqs:   make([]shard.Request, 0, *batch),
			}
			for done := 0; done < perClient; {
				n := *batch
				if rem := perClient - done; n > rem {
					n = rem
				}
				if n == 1 {
					prepare(r, states[0])
					tk, err := submitOne(states[0])
					if err != nil {
						fatal(err)
					}
					if err := tk.Wait(); err != nil {
						fatal(err)
					}
				} else {
					for i := 0; i < n; i++ {
						prepare(r, states[i])
					}
					var err error
					ws, err = submitMany(states[:n], ws[:0], sc)
					if err != nil {
						fatal(err)
					}
					for _, w := range ws {
						if err := w.Wait(); err != nil {
							fatal(err)
						}
					}
				}
				done += n
				if c == 0 && done%sampleEvery < n {
					sampleHeap(false)
				}
			}
		}(c)
	}
	wg.Wait()
	close(lagStop)
	<-lagDone
	ncommitted := committed() - warmed
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if err := closeSvc(); err != nil {
		fatal(err)
	}
	var durableTxns, fsyncs, walBytes, syncDepthMax, overlapped, ckptN, ckptAge uint64
	var syncPolicy string
	if walw != nil {
		durableTxns = walw.Durable() // frontier == durable age count (warmup included)
		fsyncs = walw.Fsyncs()
		walBytes = walw.Bytes()
		syncDepthMax = uint64(walw.SyncDepthMax())
		overlapped = walw.OverlappedSyncs()
		syncPolicy = walw.Policy()
		ckptN, ckptAge = ckptStats()
		if err := walw.Close(); err != nil {
			fatal(err)
		}
	}
	sampleHeap(true)
	commits, aborts, retries := stats()

	ntx := float64(ncommitted)
	if ntx == 0 {
		ntx = 1
	}
	rep := report{
		Bench:           "stream-closed-loop",
		Algorithm:       alg.String(),
		Workers:         *workers,
		Clients:         *clients,
		Shards:          *shardsF,
		Batch:           *batch,
		Typed:           *typed,
		Fresh:           *fresh,
		Obs:             reg != nil,
		Txns:            int(ncommitted),
		CrossTxns:       crossCount(),
		Capacity:        effCapacity,
		Window:          effWindow,
		ElapsedS:        elapsed.Seconds(),
		TxPerSec:        stm.Throughput(ncommitted, elapsed),
		LatencyUS:       latencyFrom(reg),
		FrontierLag:     lagMax,
		Epochs:          epochs(),
		Commits:         commits,
		Aborts:          aborts,
		Retries:         retries,
		AbortBreakdown:  breakdown(),
		AllocsPerTx:     float64(m1.Mallocs-m0.Mallocs) / ntx,
		BytesPerTx:      float64(m1.TotalAlloc-m0.TotalAlloc) / ntx,
		GCPausesUS:      float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e3,
		NumGC:           m1.NumGC - m0.NumGC,
		WAL:             syncPolicy,
		WaitDurable:     *waitDur,
		DurableTxns:     durableTxns,
		Fsyncs:          fsyncs,
		WALBytes:        walBytes,
		SyncDepthMax:    syncDepthMax,
		OverlappedSyncs: overlapped,
		CheckpointEvery: *ckptEv,
		Checkpoints:     ckptN,
		CheckpointAge:   ckptAge,
		PerShard:        perShard(),
		HeapBytes:       heapSamples,
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if *jsonF {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	api := "word"
	if rep.Typed {
		api = "typed"
	}
	if rep.Shards > 0 {
		fmt.Printf("%s  shards=%d workers=%d/shard clients=%d batch=%d cross=%d api=%s\n",
			rep.Algorithm, rep.Shards, rep.Workers, rep.Clients, rep.Batch, rep.CrossTxns, api)
	} else {
		fmt.Printf("%s  workers=%d clients=%d batch=%d api=%s\n", rep.Algorithm, rep.Workers, rep.Clients, rep.Batch, api)
	}
	fmt.Printf("  %d txns in %.3fs  →  %.0f tx/s\n", rep.Txns, rep.ElapsedS, rep.TxPerSec)
	if reg != nil {
		fmt.Printf("  resolve latency  p50=%.1fµs  p95=%.1fµs  p99=%.1fµs  p999=%.1fµs  max=%.1fµs\n",
			rep.LatencyUS["p50"], rep.LatencyUS["p95"], rep.LatencyUS["p99"], rep.LatencyUS["p999"], rep.LatencyUS["max"])
		fmt.Printf("  frontier lag (max sampled)=%.0f\n", rep.FrontierLag)
	}
	fmt.Printf("  aborts=%d retries=%d epochs=%d\n", rep.Aborts, rep.Retries, rep.Epochs)
	if rep.Aborts > 0 {
		fmt.Printf("  abort breakdown: %v\n", rep.AbortBreakdown)
	}
	fmt.Printf("  allocs/tx=%.2f bytes/tx=%.1f gc=%d pauses=%.0fµs\n",
		rep.AllocsPerTx, rep.BytesPerTx, rep.NumGC, rep.GCPausesUS)
	if rep.WAL != "" {
		fmt.Printf("  wal: sync=%s waitdurable=%v durable=%d fsyncs=%d bytes=%d depth_max=%d overlapped=%d\n",
			rep.WAL, rep.WaitDurable, rep.DurableTxns, rep.Fsyncs, rep.WALBytes, rep.SyncDepthMax, rep.OverlappedSyncs)
		if rep.CheckpointEvery > 0 {
			fmt.Printf("  checkpoints: every=%d taken=%d newest_age=%d\n", rep.CheckpointEvery, rep.Checkpoints, rep.CheckpointAge)
		}
	}
	for _, s := range rep.PerShard {
		fmt.Printf("    shard %d: commits=%d aborts=%d retries=%d\n", s.Shard, s.Commits, s.Aborts, s.Retries)
	}
	if n := len(heapSamples); n >= 2 {
		fmt.Printf("  live heap: start=%dKiB end=%dKiB (flat ⇒ bounded engine state; raw mid-run peak=%dKiB)\n",
			heapSamples[0]/1024, heapSamples[n-1]/1024, maxOf(heapSamples[1:n-1])/1024)
	}
}

// shardStats is the per-shard engine counter breakdown in -json mode.
type shardStats struct {
	Shard    int    `json:"shard"`
	Commits  uint64 `json:"commits"`
	Aborts   uint64 `json:"aborts"`
	Retries  uint64 `json:"retries"`
	Quiesces uint64 `json:"quiesces"`
}

// report is the -json document; one line per run appended to a
// BENCH_*.json file tracks the perf trajectory across PRs.
type report struct {
	Bench           string             `json:"bench"`
	Algorithm       string             `json:"algorithm"`
	Workers         int                `json:"workers"`
	Clients         int                `json:"clients"`
	Shards          int                `json:"shards"`
	Batch           int                `json:"batch"`
	Typed           bool               `json:"typed,omitempty"`
	Fresh           bool               `json:"fresh,omitempty"`
	Obs             bool               `json:"obs"`
	Txns            int                `json:"txns"`
	CrossTxns       uint64             `json:"cross_txns"`
	Capacity        int                `json:"capacity"`
	Window          int                `json:"window"`
	ElapsedS        float64            `json:"elapsed_s"`
	TxPerSec        float64            `json:"tx_per_s"`
	LatencyUS       map[string]float64 `json:"latency_us"`
	FrontierLag     float64            `json:"frontier_lag"`
	Epochs          uint64             `json:"epochs"`
	Commits         uint64             `json:"commits"`
	Aborts          uint64             `json:"aborts"`
	Retries         uint64             `json:"retries"`
	AbortBreakdown  map[string]float64 `json:"abort_breakdown,omitempty"`
	AllocsPerTx     float64            `json:"allocs_per_tx"`
	BytesPerTx      float64            `json:"bytes_per_tx"`
	GCPausesUS      float64            `json:"gc_pauses_us"`
	NumGC           uint32             `json:"num_gc"`
	WAL             string             `json:"wal,omitempty"` // sync policy when logging
	WaitDurable     bool               `json:"wait_durable,omitempty"`
	DurableTxns     uint64             `json:"durable_txns,omitempty"`
	Fsyncs          uint64             `json:"fsyncs,omitempty"`
	WALBytes        uint64             `json:"wal_bytes,omitempty"`
	SyncDepthMax    uint64             `json:"sync_depth_max,omitempty"`
	OverlappedSyncs uint64             `json:"overlapped_syncs,omitempty"`
	CheckpointEvery uint64             `json:"checkpoint_every,omitempty"`
	Checkpoints     uint64             `json:"checkpoints,omitempty"`
	CheckpointAge   uint64             `json:"checkpoint_age,omitempty"`
	PerShard        []shardStats       `json:"per_shard,omitempty"`
	HeapBytes       []uint64           `json:"heap_bytes"`
}

// latencyFrom derives the commit-latency percentiles (µs) from the
// registry's resolve-latency histogram — the same data /metrics
// exposes, so the report and a scrape can never disagree. Resolution
// latency spans age assignment to ticket resolution (durability
// included under -waitdurable); when it is empty (nothing resolved
// through the instrumented path) the commit histogram stands in. With
// -obs=false the map carries zeros: the uninstrumented run measures
// throughput only.
func latencyFrom(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{"p50": 0, "p90": 0, "p95": 0, "p99": 0, "p999": 0, "max": 0}
	if reg == nil {
		return out
	}
	h, ok := reg.Hist("ostm_resolve_seconds")
	if !ok || h.Count == 0 {
		if h, ok = reg.Hist("ostm_commit_seconds"); !ok || h.Count == 0 {
			return out
		}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	out["p50"] = us(h.Quantile(0.50))
	out["p90"] = us(h.Quantile(0.90))
	out["p95"] = us(h.Quantile(0.95))
	out["p99"] = us(h.Quantile(0.99))
	out["p999"] = us(h.Quantile(0.999))
	out["max"] = us(h.Max())
	return out
}

func maxOf(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streambench:", err)
	os.Exit(1)
}
