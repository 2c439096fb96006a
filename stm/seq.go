package stm

import "github.com/orderedstm/ostm/internal/meta"

// seqEngine is the non-instrumented sequential baseline (the paper's
// green line): bodies run one at a time, in age order, on a single
// goroutine; reads and writes go straight to memory.
type seqEngine struct {
	cfg meta.EngineConfig
}

func newSeqEngine(cfg meta.EngineConfig) *seqEngine {
	return &seqEngine{cfg: cfg.Normalize()}
}

// Name implements meta.Engine.
func (e *seqEngine) Name() string { return "Sequential" }

// Mode implements meta.Engine.
func (e *seqEngine) Mode() meta.Mode { return meta.ModeSequential }

// Stats implements meta.Engine.
func (e *seqEngine) Stats() *meta.Stats { return e.cfg.Stats }

// NewTxn implements meta.Engine.
func (e *seqEngine) NewTxn(age uint64) meta.Txn {
	return &seqTxn{age: age, order: e.cfg.Order}
}

// NewPool implements meta.PoolEngine: the single sequential worker can
// reuse one descriptor forever (nothing is ever shared or retained).
func (e *seqEngine) NewPool() meta.TxnPool {
	return &seqPool{t: &seqTxn{order: e.cfg.Order}}
}

type seqPool struct{ t *seqTxn }

func (p *seqPool) NewTxn(age uint64) meta.Txn {
	p.t.age = age
	return p.t
}

func (p *seqPool) Retire(meta.Txn) {}

type seqTxn struct {
	age   uint64
	order *meta.Order
}

func (t *seqTxn) Read(v *meta.Var) uint64     { return v.Load() }
func (t *seqTxn) Write(v *meta.Var, x uint64) { v.Store(x) }
func (t *seqTxn) Age() uint64                 { return t.age }

// TryCommit advances the commit frontier. The single sequential worker
// claims and commits ages strictly in order, so Complete(age) always
// matches; keeping the Order current lets frontier observers
// (Pipeline.WaitFrontier, the shard fence protocol) work uniformly
// across every mode. Executor.Run's sequential fast path bypasses
// TryCommit entirely and is unaffected.
func (t *seqTxn) TryCommit() bool {
	t.order.Complete(t.age)
	return true
}
func (t *seqTxn) Commit() bool    { return true }
func (t *seqTxn) Cleanup()        {}
func (t *seqTxn) AbandonAttempt() {}
func (t *seqTxn) Doomed() bool    { return false }

// directTxn is the descriptor of an age a cooperative engine's stream
// runs directly (runloop.go, runDirect): reads and writes go straight
// to memory, as seqTxn's do, and nothing touches the engine's lock
// table, version words or reader slots. It keeps an undo log so an
// abandoned attempt leaves memory as it found it, as a speculative one
// would: a cross-shard round restart re-runs the body over the state
// the round started from, and a faulting body's partial writes never
// land. The order is completed by the run-loop, not by TryCommit.
type directTxn struct {
	age  uint64
	undo []undoRec
}

type undoRec struct {
	v   *meta.Var
	old uint64
}

// maxKeptUndo bounds the undo log a worker keeps between ages, so one
// huge transaction does not pin its log for the stream's lifetime.
const maxKeptUndo = 4096

func (t *directTxn) begin(age uint64) {
	t.age = age
	t.undo = t.undo[:0]
}

func (t *directTxn) end() {
	if cap(t.undo) > maxKeptUndo {
		t.undo = nil
	}
}

func (t *directTxn) Read(v *meta.Var) uint64 { return v.Load() }

func (t *directTxn) Write(v *meta.Var, x uint64) {
	t.undo = append(t.undo, undoRec{v: v, old: v.Load()})
	v.Store(x)
}

func (t *directTxn) Age() uint64     { return t.age }
func (t *directTxn) TryCommit() bool { return true }
func (t *directTxn) Commit() bool    { return true }
func (t *directTxn) Cleanup()        {}
func (t *directTxn) Doomed() bool    { return false }

// AbandonAttempt restores every pre-image, newest first.
func (t *directTxn) AbandonAttempt() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i].v.Store(t.undo[i].old)
	}
	t.undo = t.undo[:0]
}
