// Command ordersvc runs an ordered-transaction pipeline as a network
// service: an h2c streaming front-end (stm/serve) over an unsharded
// or sharded engine, with WAL durability, startup recovery, periodic
// checkpoints, /metrics + pprof on the same listener, and a graceful
// SIGTERM drain (stop accepting, drain in flight, final checkpoint,
// close the log, exit 0).
//
// The same binary doubles as the closed-loop load generator
// (-loadgen): N connections × K in-flight × B-frame bursts against a
// running server, with a state_match verdict folding the observed
// (age, payload) pairs against GET /state.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/repl"
	"github.com/orderedstm/ostm/stm/serve"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// parseSyncPolicy maps the -sync flag to wal.Options: "none", an
// integer N (fsync every N commits), a duration (fsync at least that
// often while dirty), or "adaptive" (groups sized to the storage's
// observed fsync latency).
func parseSyncPolicy(s string) (wal.Options, error) {
	if s == "" || s == "none" {
		return wal.Options{}, nil
	}
	if s == "adaptive" {
		return wal.Options{Adaptive: true}, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return wal.Options{}, fmt.Errorf("ordersvc: -sync %d must be positive", n)
		}
		return wal.Options{SyncEveryN: n}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return wal.Options{}, fmt.Errorf("ordersvc: -sync %v must be positive", d)
		}
		return wal.Options{SyncInterval: d}, nil
	}
	return wal.Options{}, fmt.Errorf("ordersvc: -sync must be none, adaptive, an integer, or a duration (got %q)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ordersvc:", err)
	os.Exit(1)
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7171", "listen address (server) / target address (-loadgen)")
		workers = flag.Int("workers", 4, "engine worker goroutines (per shard when -shards > 0)")
		shardsF = flag.Int("shards", 0, "partitions for sharded execution (0 = unsharded stm.Pipeline)")
		pool    = flag.Int("pool", 1<<13, "account pool size (server and loadgen must agree)")
		capF    = flag.Int("capacity", 0, "pipeline capacity (0 = default)")
		walDir  = flag.String("wal", "", "write-ahead log directory (durable mode; recovered at startup when non-empty)")
		syncF   = flag.String("sync", "none", "WAL sync policy: none | N | duration | adaptive")
		syncDep = flag.Int("sync-depth", 0, "max in-flight fsyncs (0 = default)")
		waitDur = flag.Bool("waitdurable", false, "resolve responses only once durable (requires -wal)")
		ckptEv  = flag.Uint64("checkpoint-every", 0, "checkpoint every N appended ages (requires -wal)")
		obsOn   = flag.Bool("obs", true, "attach the observability registry and mount /metrics + pprof on the listener")
		jsonF   = flag.Bool("json", false, "emit machine-readable JSON lines")
		follow  = flag.String("follow", "", "run as a hot-standby follower of this leader address (requires -wal; SIGHUP promotes)")

		loadgen  = flag.Bool("loadgen", false, "run as load generator against -addr instead of serving")
		conns    = flag.Int("conns", 4, "loadgen: concurrent connections")
		inflight = flag.Int("inflight", 16, "loadgen: in-flight requests per connection")
		batchF   = flag.Int("batch", 1, "loadgen: frames per submission burst (>1 exercises server-side ingress batching)")
		txns     = flag.Int("txns", 100000, "loadgen: total transactions across all connections")
		follVrfy = flag.String("follower", "", "loadgen: follower address to verify after the run (catch-up, lag, state match)")
	)
	var alg stm.Algorithm
	flag.TextVar(&alg, "alg", stm.OWB, "algorithm (paper-style name, e.g. OWB, OUL, Ordered-TL2)")
	flag.Parse()

	if *loadgen {
		runLoadgen(*addr, *conns, *inflight, *batchF, *txns, *pool, *jsonF, *follVrfy)
		return
	}
	runServer(serverConfig{
		addr: *addr, alg: alg, workers: *workers, shards: *shardsF,
		pool: *pool, capacity: *capF, walDir: *walDir, sync: *syncF,
		syncDepth: *syncDep, waitDurable: *waitDur, ckptEvery: *ckptEv,
		obsOn: *obsOn, json: *jsonF, follow: *follow,
	})
}

type serverConfig struct {
	addr        string
	alg         stm.Algorithm
	workers     int
	shards      int
	pool        int
	capacity    int
	walDir      string
	sync        string
	syncDepth   int
	waitDurable bool
	ckptEvery   uint64
	obsOn       bool
	json        bool
	follow      string
}

// event emits one structured log line.
func event(jsonMode bool, kind string, kv map[string]any) {
	if jsonMode {
		m := map[string]any{"event": kind}
		for k, v := range kv {
			m[k] = v
		}
		b, _ := json.Marshal(m)
		fmt.Println(string(b))
		return
	}
	fmt.Printf("ordersvc: %s", kind)
	for k, v := range kv {
		fmt.Printf(" %s=%v", k, v)
	}
	fmt.Println()
}

func runServer(cfg serverConfig) {
	accounts := stm.NewVars(cfg.pool)
	for i := range accounts {
		accounts[i].Store(1000)
	}
	snapshotter := stm.SnapshotterFuncs{
		SnapshotFunc: func() ([]byte, error) { return stm.SnapshotVars(accounts), nil },
		RestoreFunc:  func(data []byte) error { return stm.RestoreVars(accounts, data) },
	}

	var reg *obs.Registry
	if cfg.obsOn {
		reg = obs.NewRegistry()
	}

	if cfg.follow != "" {
		runFollower(cfg, accounts, snapshotter, reg)
		return
	}

	// Durable startup: recover whatever the directory holds (empty is
	// a fresh start), restore the newest checkpoint, and replay the
	// surviving suffix through the same SubmitEncoded path live
	// traffic uses before the listener opens.
	var (
		w          *wal.Writer
		rec        *wal.Recovery
		localFirst []uint64
		firstAge   uint64
	)
	if cfg.walDir != "" {
		if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
			fatal(err)
		}
		opts, err := parseSyncPolicy(cfg.sync)
		if err != nil {
			fatal(err)
		}
		opts.MaxInFlightSyncs = cfg.syncDepth
		r, err := wal.Recover(cfg.walDir)
		if err != nil {
			fatal(fmt.Errorf("recover %s: %w", cfg.walDir, err))
		}
		rec = r
		firstAge = rec.First()
		if rec.HasCheckpoint() {
			app := rec.CheckpointState()
			if cfg.shards > 0 {
				ln, a, err := shard.DecodeCheckpoint(app)
				if err != nil {
					fatal(err)
				}
				localFirst, app = ln, a
			}
			if err := stm.RestoreVars(accounts, app); err != nil {
				fatal(fmt.Errorf("%w (restart with the original -pool and -shards)", err))
			}
		}
		w, err = rec.Writer(opts)
		if err != nil {
			fatal(err)
		}
	}

	var (
		p   *stm.Pipeline
		sp  *shard.ShardedPipeline
		err error
	)
	scfg := serve.Config{Obs: reg}
	if cfg.shards == 0 {
		pc := stm.Config{
			Algorithm: cfg.alg,
			Workers:   cfg.workers,
			Capacity:  cfg.capacity,
			Codec:     bankCodec{accounts},
			Obs:       reg,
			FirstAge:  firstAge,
		}
		if w != nil {
			pc.WAL = w
			pc.WaitDurable = cfg.waitDurable
			pc.CheckpointEvery = cfg.ckptEvery
			pc.Snapshotter = snapshotter
		}
		p, err = stm.NewPipeline(pc)
		if err != nil {
			fatal(err)
		}
		scfg.Pipeline = p
		scfg.State = func() ([]byte, error) {
			p.WaitStable()
			return stm.SnapshotVars(accounts), nil
		}
	} else {
		sc := shard.Config{
			Shards:         cfg.shards,
			Pipeline:       stm.Config{Algorithm: cfg.alg, Workers: cfg.workers, Capacity: cfg.capacity, FirstAge: firstAge},
			Obs:            reg,
			LocalFirstAges: localFirst,
		}
		if w != nil {
			sc.WAL = w
			sc.Codec = bankShardCodec{accounts}
			sc.WaitDurable = cfg.waitDurable
			sc.CheckpointEvery = cfg.ckptEvery
			sc.Snapshotter = snapshotter
		} else {
			fatal(fmt.Errorf("-shards without -wal is not servable: the sharded router only accepts encoded submissions through its WAL path"))
		}
		sp, err = shard.New(sc)
		if err != nil {
			fatal(err)
		}
		scfg.Sharded = sp
		scfg.State = func() ([]byte, error) { return stm.SnapshotVars(accounts), nil }
	}

	replayed := 0
	if rec != nil && rec.Count() > 0 {
		start := time.Now()
		err := rec.Replay(func(_ uint64, payload []byte) error {
			var err error
			if sp != nil {
				_, err = sp.SubmitEncoded(payload)
			} else {
				_, err = p.SubmitEncoded(payload)
			}
			return err
		})
		if err != nil {
			fatal(fmt.Errorf("replay: %w", err))
		}
		if sp != nil {
			err = sp.Drain()
		} else {
			err = p.Drain()
		}
		if err != nil {
			fatal(fmt.Errorf("replay drain: %w", err))
		}
		replayed = rec.Count()
		event(cfg.json, "recovered", map[string]any{
			"records":    replayed,
			"first_age":  rec.First(),
			"next_age":   rec.Next(),
			"truncated":  rec.Truncated(),
			"checkpoint": rec.HasCheckpoint(),
			"elapsed_ms": float64(time.Since(start).Microseconds()) / 1e3,
		})
	}

	// A durable leader ships its log: any follower can attach to
	// /repl/stream on the same listener the submit wire uses.
	if w != nil {
		ship := repl.NewShipper(w, repl.ShipperOptions{Obs: reg})
		scfg.Handlers = map[string]http.Handler{
			"/repl/stream": ship.Handler(),
			"/repl/status": statusHandler(nil, ship, w),
		}
	}

	srv, err := serve.NewServer(scfg)
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(cfg.addr); err != nil {
		fatal(err)
	}
	event(cfg.json, "listening", map[string]any{
		"addr":     srv.Addr().String(),
		"alg":      cfg.alg.String(),
		"shards":   cfg.shards,
		"pool":     cfg.pool,
		"wal":      cfg.walDir != "",
		"replayed": replayed,
	})
	serveUntilSignal(cfg, srv, p, sp, w, nil)
}

// serveUntilSignal owns the process's signal protocol. SIGHUP promotes
// a follower in place (ignored otherwise). SIGTERM/SIGINT run the
// drain sequence the wire contract promises — refuse new streams, let
// in-flight streams finish, stop the replication stream if one is
// running, drain the engine, cut a final checkpoint (so the next start
// replays nothing), then close pipeline and log.
func serveUntilSignal(cfg serverConfig, srv *serve.Server, p *stm.Pipeline, sp *shard.ShardedPipeline, w *wal.Writer, f *repl.Follower) {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	var s os.Signal
	for s = range sig {
		if s != syscall.SIGHUP {
			break
		}
		if f == nil || f.Promoted() {
			continue
		}
		if err := f.Promote(); err != nil {
			fatal(fmt.Errorf("promote: %w", err))
		}
		event(cfg.json, "promoted", map[string]any{
			"frontier":   f.Frontier(),
			"old_leader": cfg.follow,
		})
	}
	event(cfg.json, "draining", map[string]any{"signal": s.String()})
	if f != nil {
		if err := f.Close(); err != nil {
			event(cfg.json, "stream_error", map[string]any{"err": err.Error()})
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	var drainErr error
	if sp != nil {
		drainErr = sp.Drain()
	} else {
		drainErr = p.Drain()
	}
	if drainErr != nil {
		fatal(fmt.Errorf("drain: %w", drainErr))
	}
	var ckptAge uint64
	if w != nil {
		var err error
		if sp != nil {
			ckptAge, err = sp.Checkpoint()
		} else {
			ckptAge, err = p.Checkpoint()
		}
		if err != nil {
			fatal(fmt.Errorf("final checkpoint: %w", err))
		}
	}
	var closeErr error
	if sp != nil {
		closeErr = sp.Close()
	} else {
		closeErr = p.Close()
	}
	if closeErr != nil {
		fatal(fmt.Errorf("close: %w", closeErr))
	}
	if w != nil {
		if err := w.Close(); err != nil {
			fatal(fmt.Errorf("wal close: %w", err))
		}
	}
	kv := map[string]any{}
	if sp != nil {
		kv["submitted"] = sp.Submitted()
		kv["cross_shard"] = sp.CrossShard()
	} else {
		kv["submitted"] = p.Submitted()
	}
	if w != nil {
		kv["checkpoint_age"] = ckptAge
		kv["fsyncs"] = w.Fsyncs()
		kv["wal_bytes"] = w.Bytes()
	}
	event(cfg.json, "drained", kv)
}
