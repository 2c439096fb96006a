package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/repl"
	"github.com/orderedstm/ostm/stm/serve"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// spec is the part of a workload that shapes the stack and its
// traffic. Everything not named here is the layers' defaults: the
// numbers are what a user gets.
type spec struct {
	name      string
	accounts  int
	k         int     // extra accounts read per transaction
	shards    int     // 0 = unsharded stm.Pipeline
	crossFrac float64 // share of transactions spanning shards
	durable   bool    // stm/wal, Adaptive, WaitDurable, on a real directory
	wire      bool    // through serve.Server / serve.Client on loopback
	repl      bool    // live repl.Follower fed by repl.Shipper
	batch     bool    // Executor.Run over internal/micro instead of a stream
}

var specs = map[string]spec{
	"stream-uniform":   {name: "stream-uniform", accounts: 1 << 16, k: 2},
	"stream-contended": {name: "stream-contended", accounts: 64, k: 6},
	"batch-heavy":      {name: "batch-heavy", batch: true},
	"durable":          {name: "durable", accounts: 1 << 16, k: 2, durable: true},
	"sharded-cross":    {name: "sharded-cross", accounts: 1 << 16, k: 2, shards: 2, crossFrac: 0.10},
	"wire":             {name: "wire", accounts: 1 << 16, k: 2, wire: true},
	"wire-repl":        {name: "wire-repl", accounts: 1 << 16, k: 2, wire: true, durable: true, repl: true},
}

const (
	checkpointEvery = 262144
	wireBurst       = 8
	inputsPerClient = 1 << 17
	// shardInputs is smaller: sharded submissions carry a prebuilt
	// closure and access set each, which the collector must scan.
	shardInputs = 1 << 14
)

// env is what one invocation fixes for every stack it builds.
type env struct {
	alg     stm.Algorithm
	seed    uint64
	workers int    // W, per shard when sharded
	clients int    // C
	depth   int    // D
	dir     string // scratch root, inside the checkout
	maxAges int    // capacity of the per-age result log
}

// stack is one workload's program under test, built only from the
// layers' public functions, plus the harness's clients and records.
type stack struct {
	spec    spec
	env     env
	arena   arena
	bank    *bank
	inputs  []inputs
	clients []*client
	ls      loadSpec

	pipe   *stm.Pipeline
	sp     *shard.ShardedPipeline
	w      *wal.Writer
	walDir string
	srv    *serve.Server
	conns  []*serve.Client
	bursts [][][]byte // per connection, the payload slice SubmitMany takes

	bodies   [][]stm.Body   // sharded: prebuilt per input
	accesses [][]stm.Access // sharded: prebuilt per input

	ship   *repl.Shipper
	fol    *repl.Follower
	fbank  *bank
	fpipe  *stm.Pipeline
	fsrv   *serve.Server
	folDir string

	reg  *obs.Registry // traced stacks only
	ring *obs.TraceRing

	closers []func() error // run in reverse by close
}

type pipeTicket struct{ t *stm.Ticket }

func (p pipeTicket) wait() (uint64, error) { err := p.t.Wait(); return p.t.Age(), err }

type shardTicket struct{ t *shard.Ticket }

func (s shardTicket) wait() (uint64, error) { err := s.t.Wait(); return s.t.Age(), err }

type wireCall struct{ c *serve.Call }

func (w wireCall) wait() (uint64, error) { return w.c.Wait() }

// submit hands len(out) consecutive inputs of one client, starting at
// its submission index, to the stack's front door.
func (st *stack) submit(client, index int, out []acker) error {
	in := st.inputs[client]
	switch {
	case st.srv != nil:
		conn := st.conns[client]
		if len(out) == 1 {
			call, err := conn.Submit(in.at(index))
			if err != nil {
				return err
			}
			out[0] = wireCall{call}
			return nil
		}
		burst := st.bursts[client][:len(out)]
		for j := range burst {
			burst[j] = in.at(index + j)
		}
		calls, err := conn.SubmitMany(burst)
		if err != nil {
			return err
		}
		for j, call := range calls {
			out[j] = wireCall{call}
		}
		return nil
	case st.sp != nil:
		for j := range out {
			i := (index + j) % in.n
			t, err := st.sp.Submit(st.accesses[client][i], st.bodies[client][i])
			if err != nil {
				return err
			}
			out[j] = shardTicket{t}
		}
		return nil
	default:
		for j := range out {
			t, err := st.pipe.SubmitEncoded(in.at(index + j))
			if err != nil {
				return err
			}
			out[j] = pipeTicket{t}
		}
		return nil
	}
}

func walOptions(reg *obs.Registry) wal.Options {
	return wal.Options{Adaptive: true, Obs: reg}
}

func (st *stack) pipeConfig(b *bank, w *wal.Writer, first uint64, reg *obs.Registry) stm.Config {
	cfg := stm.Config{
		Algorithm: st.env.alg,
		Workers:   st.env.workers,
		Codec:     b.codec(),
		FirstAge:  first,
		Obs:       reg,
	}
	if w != nil {
		cfg.WAL = w
		cfg.WaitDurable = true
		cfg.CheckpointEvery = checkpointEvery
		cfg.Snapshotter = b.snapshotter()
	}
	return cfg
}

// buildStack is a workload's whole set-up: state, inputs, the stack,
// connections, follower bootstrap. traced attaches the obs registry
// and trace ring; end-to-end numbers are taken without.
func buildStack(e env, sp spec, traced bool) (st *stack, err error) {
	st = &stack{spec: sp, env: e}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.closers = append(st.closers, func() error { st.arena.free(); return nil })
	results, err := st.arena.u64(e.maxAges)
	if err != nil {
		return st, err
	}
	st.bank = newBank(sp.accounts, results)

	if traced {
		st.reg = obs.NewRegistry()
		st.ring = obs.NewTraceRing(1<<18, spanEvery)
		st.reg.SetTrace(st.ring)
	}

	lay := layout{accounts: sp.accounts, k: sp.k, crossFrac: sp.crossFrac}
	if sp.shards > 0 {
		lay.parts = make([][]uint32, sp.shards)
		for i := range st.bank.accounts {
			s := shard.Of(&st.bank.accounts[i], sp.shards)
			lay.parts[s] = append(lay.parts[s], uint32(i))
		}
	}
	n := inputsPerClient
	if sp.shards > 0 {
		n = shardInputs
	}
	st.ls = loadSpec{depth: e.depth, burst: 1}
	if sp.wire {
		st.ls.burst = wireBurst
	}
	for c := 0; c < e.clients; c++ {
		st.inputs = append(st.inputs, genInputs(e.seed, c, n, lay))
		ages, err := st.arena.u64(e.maxAges)
		if err != nil {
			return st, err
		}
		cl := &client{id: c, ages: ages}
		if traced {
			cl.spans = make([]spanRec, 1<<15)
		}
		st.clients = append(st.clients, cl)
	}

	if sp.durable {
		st.walDir = filepath.Join(e.dir, sp.name+"-wal")
		if st.w, err = wal.Create(st.walDir, 0, walOptions(st.reg)); err != nil {
			return st, err
		}
		st.closers = append(st.closers, st.w.Close)
	}

	if sp.shards > 0 {
		st.sp, err = shard.New(shard.Config{
			Shards:   sp.shards,
			Pipeline: stm.Config{Algorithm: e.alg, Workers: e.workers},
			Obs:      st.reg,
		})
		if err != nil {
			return st, err
		}
		st.closers = append(st.closers, st.sp.Close)
		for c := range st.inputs {
			bodies := make([]stm.Body, n)
			accesses := make([]stm.Access, n)
			for i := 0; i < n; i++ {
				x, err := parsePayload(st.inputs[c].at(i), sp.accounts)
				if err != nil {
					return st, err
				}
				bodies[i], accesses[i] = st.bank.body(x), st.bank.access(x)
			}
			st.bodies = append(st.bodies, bodies)
			st.accesses = append(st.accesses, accesses)
		}
		return st, nil
	}

	if st.pipe, err = stm.NewPipeline(st.pipeConfig(st.bank, st.w, 0, st.reg)); err != nil {
		return st, err
	}
	st.closers = append(st.closers, st.pipe.Close)
	if !sp.wire {
		return st, nil
	}

	scfg := serve.Config{Pipeline: st.pipe}
	if sp.repl {
		st.ship = repl.NewShipper(st.w, repl.ShipperOptions{Obs: st.reg})
		scfg.Handlers = map[string]http.Handler{"/repl/stream": st.ship.Handler()}
	}
	if st.srv, err = startServer(scfg); err != nil {
		return st, err
	}
	st.closers = append(st.closers, func() error { return shutdown(st.srv) })
	if sp.repl {
		if err = st.startFollower(); err != nil {
			return st, err
		}
	}
	for range st.clients {
		conn, err := serve.Dial(context.Background(), st.srv.Addr().String())
		if err != nil {
			return st, err
		}
		st.conns = append(st.conns, conn)
		st.bursts = append(st.bursts, make([][]byte, wireBurst))
		st.closers = append(st.closers, conn.Close)
	}
	return st, nil
}

func startServer(cfg serve.Config) (*serve.Server, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// startFollower boots the hot standby the way cmd/ordersvc does: its
// own bank, its own log directory, applying the leader's stream
// through a live pipeline, behind a server that refuses writes until
// promotion.
func (st *stack) startFollower() error {
	st.fbank = newBank(st.spec.accounts, nil)
	st.folDir = filepath.Join(st.env.dir, st.spec.name+"-follower-wal")
	var fw *wal.Writer
	fol, err := repl.StartFollower(repl.FollowerConfig{
		Dir:    st.folDir,
		Leader: st.srv.Addr().String(),
		WAL:    walOptions(nil),
		Obs:    st.reg,
		Boot: func(b repl.Boot) (repl.Runtime, error) {
			fw = b.Writer
			if b.Snapshot != nil {
				if err := stm.RestoreVars(st.fbank.accounts, b.Snapshot); err != nil {
					return repl.Runtime{}, err
				}
			}
			p, err := stm.NewPipeline(st.pipeConfig(st.fbank, b.Writer, b.FirstAge, nil))
			if err != nil {
				return repl.Runtime{}, err
			}
			st.fpipe = p
			for _, r := range b.Records {
				if _, err := p.SubmitEncoded(r.Payload); err != nil {
					return repl.Runtime{}, fmt.Errorf("follower replay: %w", err)
				}
			}
			if err := p.Drain(); err != nil {
				return repl.Runtime{}, err
			}
			return repl.Runtime{
				Submit: func(pl []byte) error { _, err := p.SubmitEncoded(pl); return err },
				Drain:  p.Drain,
			}, nil
		},
	})
	if err != nil {
		if st.fpipe != nil {
			st.fpipe.Close()
		}
		return fmt.Errorf("start follower: %w", err)
	}
	st.fol = fol
	// Closers run in reverse: stop applying, then the follower's
	// server, pipeline and log. The stream must end before the
	// leader's server can shut down gracefully.
	st.closers = append(st.closers, fw.Close, st.fpipe.Close)
	st.fsrv, err = startServer(serve.Config{Pipeline: st.fpipe, Gate: fol.Gate()})
	if err != nil {
		st.closers = append(st.closers, fol.Close)
		return err
	}
	st.closers = append(st.closers, func() error { return shutdown(st.fsrv) }, fol.Close)
	return nil
}

// close tears the stack down in reverse order of construction and
// removes its directories. The first error is returned; teardown
// continues past it.
func (st *stack) close() error {
	var first error
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	st.closers = nil
	for _, d := range []string{st.walDir, st.folDir} {
		if d != "" {
			if err := os.RemoveAll(d); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// layer names the module whose front door the clients call.
func (st *stack) layer() string {
	switch {
	case st.srv != nil:
		return "serve"
	case st.sp != nil:
		return "shard"
	}
	return "pipeline"
}

// awaitFollower waits, up to 30 s, until the follower has applied
// every age below target, and reports whether it did.
func (st *stack) awaitFollower(target uint64) bool {
	for t0 := now(); st.fol.Frontier() < target; {
		if now()-t0 > int64(30*time.Second) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// drain waits until everything submitted has committed.
func (st *stack) drain() error {
	if st.sp != nil {
		return st.sp.Drain()
	}
	return st.pipe.Drain()
}

// engineStats is the engine's cumulative counters (all shards).
func (st *stack) engineStats() meta.StatsView {
	if st.sp != nil {
		return st.sp.Stats()
	}
	return st.pipe.Stats()
}

// counters writes the stack's cumulative counters, by the names
// derive() reads back; a rep's value is the difference of two calls.
func (st *stack) counters(m map[string]float64) {
	v := st.engineStats()
	m["starts"] = float64(v.Starts)
	m["commits"] = float64(v.Commits)
	m["retries"] = float64(v.Retries)
	m["quiesces"] = float64(v.Quiesces)
	m["aborts"] = float64(v.TotalAborts())
	m["abort.raw"] = float64(v.Aborts[meta.CauseRAW])
	m["abort.waw"] = float64(v.Aborts[meta.CauseWAW])
	m["abort.cascade"] = float64(v.Aborts[meta.CauseCascade])
	m["abort.validation"] = float64(v.Aborts[meta.CauseValidation])
	m["abort.locked_write"] = float64(v.Aborts[meta.CauseLockedWrite])
	m["abort.killed_reader"] = float64(v.Aborts[meta.CauseKilledReader])
	if st.pipe != nil {
		m["epochs"] = float64(st.pipe.Epochs())
		if st.w != nil {
			m["checkpoints"] = float64(st.pipe.Checkpoints())
		}
	}
	if st.sp != nil {
		m["cross"] = float64(st.sp.CrossShard())
		m["submitted"] = float64(st.sp.Submitted())
		for s, sv := range st.sp.ShardStats() {
			m[fmt.Sprintf("shard.commits.%d", s)] = float64(sv.Commits)
		}
	}
	if st.w != nil {
		m["fsyncs"] = float64(st.w.Fsyncs())
		m["wal.bytes"] = float64(st.w.Bytes())
		m["wal.appended"] = float64(st.w.Next())
		m["overlaps"] = float64(st.w.OverlappedSyncs())
		m["wal.retries"] = float64(st.w.Retries())
		m["wal.io_errors"] = float64(st.w.IOErrors())
	}
	if st.fol != nil {
		applied, _ := st.fol.Applied()
		m["applied"] = float64(applied)
		m["reconnects"] = float64(st.fol.Reconnects())
		rec, bytes, _, _ := st.ship.Stats()
		m["shipped"] = float64(rec)
		m["shipped.bytes"] = float64(bytes)
	}
	var viol, redials float64
	for _, c := range st.conns {
		viol += float64(c.OrderViolations())
		redials += float64(c.Redials())
	}
	m["order_violations"] = viol
	m["redials"] = redials
}
