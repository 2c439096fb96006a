// Package stm is the public API of the OSTM library: ordered software
// transactional memory, reproducing "Processing Transactions in a
// Predefined Order" (Saad et al., PPoPP 2019).
//
// The library executes a set of transactions whose commit order is
// fixed *before* execution (the Age-based Commit Order, ACO): the
// transaction given age i must appear to execute exactly i-th, as in a
// sequential run, no matter how the speculative parallel execution
// interleaves. This is the execution model needed by speculative loop
// parallelization (each iteration is a transaction, ages are iteration
// indices) and by state-machine replication (ages are consensus slot
// numbers).
//
// # Quick start
//
// The typed API (v2) is the recommended surface: typed variables
// (TVar), value-returning transactions (Func, SubmitFunc, TicketOf)
// and context-aware waits, all compiled down to the word-level core.
//
//	balance := stm.NewTVar[uint64](100)
//	p, _ := stm.NewPipeline(stm.Config{Algorithm: stm.OUL, Workers: 8})
//	t, _ := stm.SubmitFunc(ctx, p, func(tx stm.Tx, age int) uint64 {
//	    b := stm.ReadT(tx, balance) + 1
//	    stm.WriteT(tx, balance, b)
//	    return b // latched at commit; speculative attempts are discarded
//	})
//	newBalance, err := t.Value() // resolves in commit order
//	...
//	err = p.Close()
//
// Batch (one-shot, one shared body — the paper's model):
//
//	counter := stm.NewVar(0)
//	ex, _ := stm.NewExecutor(stm.Config{Algorithm: stm.OUL, Workers: 8})
//	res, err := ex.Run(1000, func(tx stm.Tx, age int) {
//	    tx.Write(counter, tx.Read(counter)+1)
//	})
//
// Both front-ends drive the same execution core; see DESIGN.md. The
// word-level API (Var, Tx.Read/Tx.Write, Pipeline.Submit) remains the
// substrate and stays fully supported; the typed layer compiles down
// to it rather than replacing it (the former float64 bit-casting
// helpers are the one retirement — TVar[float64] and AddT subsume
// them). To scale past a single commit frontier, stm/shard
// runs one pipeline per data partition behind the same ordered-Submit
// surface (transactions then declare their variables via Access). To
// survive a crash, attach a write-ahead log (stm/wal) with Config.WAL
// and a Codec: the pipeline logs each committed age's input payload
// in order, and recovery deterministically replays the surviving
// prefix (SubmitEncoded, wal.Recover; typed requests and results go
// through CodecOf and SubmitEncodedT).
//
// Transaction bodies must access shared state only through the
// transaction handle (tx.Read/tx.Write, or ReadT/WriteT over typed
// variables), and must be deterministic functions of (age, memory):
// the executor re-executes bodies after aborts, possibly many times.
// Speculative faults (panics caused by reading an inconsistent
// snapshot) are sandboxed and retried; genuine faults are returned as
// a *Fault error.
//
// # Submitting
//
// A submission is a Request: a Body, or Encoded bytes the Codec
// decodes into one. Pipeline and stm/shard's ShardedPipeline expose
// the same four methods over it:
//
//	SubmitCtx(ctx, Request)            one transaction
//	SubmitBatch(ctx, []Request, out)   consecutive ages under one lock hold
//	Submit(body)                       SubmitCtx shortcut: no context, a body
//	SubmitEncoded(data)                SubmitCtx shortcut: no context, bytes
//
// Each shape has one submission core. The Pipeline's is its batch:
// every other entry point, SubmitFunc and SubmitEncodedT included,
// submits a batch of one. The router's is its single request: its
// SubmitBatch runs that core per request under one sequencer hold.
//
// A context is consulted only before an age is assigned (refusal
// wraps ErrCanceled); an accepted age is never withdrawn — cancel a
// wait, not a commitment. SubmitBatch appends one ticket per request
// to out and returns the extended slice; on an early stop the
// unsharded form appends the accepted prefix, the sharded form one
// entry per request with nil at refused positions (its tickets are
// index-addressed).
//
// The unsharded Request may carry its own Ticket: caller-owned
// storage the pipeline resolves and returns instead of allocating one.
// The caller owns it across submissions and may pass it again once it
// has resolved and every goroutine waiting on its previous outcome has
// returned; a Ticket still in flight is refused with an error, never
// silently reused. A batch whose requests all carry tickets, appended
// into an out with room, allocates nothing in the pipeline — stm/serve
// recycles a ring of them per connection. Durable pipelines (Config.WAL
// set) refuse Body requests with ErrPayloadRequired — the log must
// receive replayable inputs, so callers encode with their own Codec
// and submit the bytes. The typed layer (SubmitFunc, SubmitEncodedT)
// compiles onto the same cores. Package stm/serve carries encoded
// requests over the network, preserving the same ordering and error
// contracts.
//
// # Algorithms
//
// The paper's OWB (write-back with data forwarding) and OUL
// (write-through undo-log with visible readers), plus the ordered and
// unordered baselines it evaluates: TL2, NOrec, UndoLog with visible
// and invisible readers, STMLite, and non-instrumented sequential
// execution.
package stm

import (
	"fmt"
	"strings"

	"github.com/orderedstm/ostm/internal/core"
	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/internal/norec"
	"github.com/orderedstm/ostm/internal/stmlite"
	"github.com/orderedstm/ostm/internal/tl2"
	"github.com/orderedstm/ostm/internal/undolog"
)

// Var is a transactional variable holding one 64-bit word. Create with
// NewVar/NewVars; access inside transactions with Tx.Read/Tx.Write and
// outside (quiescent state only) with Load/Store.
type Var = meta.Var

// NewVar returns a fresh transactional variable initialized to x.
func NewVar(x uint64) *Var { return meta.NewVar(x) }

// NewVars returns n zero-initialized transactional variables allocated
// contiguously; use &vs[i] as the handle.
func NewVars(n int) []Var { return meta.NewVars(n) }

// Tx is the transaction handle passed to a Body. Implementations
// panic internally to signal aborts; bodies must not recover.
type Tx interface {
	// Read returns v's value in this transaction's view.
	Read(v *Var) uint64
	// Write updates v in this transaction's view.
	Write(v *Var, x uint64)
	// Age returns the transaction's position in the predefined order.
	Age() uint64
}

// Body is a transaction body: the code run (speculatively, possibly
// repeatedly) for the transaction at the given age.
type Body func(tx Tx, age int)

// Algorithm selects a concurrency-control engine.
type Algorithm int

// The available engines. The Ordered* and cooperative algorithms
// enforce the predefined commit order; TL2, NOrec, UndoLogVis and
// UndoLogInvis are their unordered counterparts (ages are ignored),
// used by the paper's Figure 2 comparison.
const (
	Sequential Algorithm = iota
	OWB
	OUL
	TL2
	OrderedTL2
	NOrec
	OrderedNOrec
	UndoLogVis
	OrderedUndoLogVis
	UndoLogInvis
	OrderedUndoLogInvis
	STMLite
	numAlgorithms
)

// Algorithms lists every available algorithm.
func Algorithms() []Algorithm {
	out := make([]Algorithm, 0, int(numAlgorithms))
	for a := Sequential; a < numAlgorithms; a++ {
		out = append(out, a)
	}
	return out
}

// OrderedAlgorithms lists the algorithms that enforce the predefined
// commit order (every competitor of the paper's ordered comparison).
func OrderedAlgorithms() []Algorithm {
	return []Algorithm{OWB, OUL, OrderedTL2, OrderedNOrec,
		OrderedUndoLogVis, OrderedUndoLogInvis, STMLite}
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Sequential:
		return "Sequential"
	case OWB:
		return "OWB"
	case OUL:
		return "OUL"
	case TL2:
		return "TL2"
	case OrderedTL2:
		return "Ordered-TL2"
	case NOrec:
		return "NOrec"
	case OrderedNOrec:
		return "Ordered-NOrec"
	case UndoLogVis:
		return "UndoLog-vis"
	case OrderedUndoLogVis:
		return "Ordered-UndoLog-vis"
	case UndoLogInvis:
		return "UndoLog-invis"
	case OrderedUndoLogInvis:
		return "Ordered-UndoLog-invis"
	case STMLite:
		return "STMLite"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Ordered reports whether the algorithm enforces the predefined commit
// order (Sequential trivially does).
func (a Algorithm) Ordered() bool {
	switch a {
	case TL2, NOrec, UndoLogVis, UndoLogInvis:
		return false
	default:
		return true
	}
}

// ParseAlgorithm resolves a paper-style name (as produced by String;
// ASCII case differences are tolerated) to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a := Sequential; a < numAlgorithms; a++ {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("stm: unknown algorithm %q", name)
}

// MarshalText implements encoding.TextMarshaler with the paper's name
// for the algorithm, so configurations and benchmark flags serialize
// algorithms without hand-rolled switches.
func (a Algorithm) MarshalText() ([]byte, error) {
	if a < Sequential || a >= numAlgorithms {
		return nil, fmt.Errorf("stm: unknown algorithm %d", int(a))
	}
	return []byte(a.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via
// ParseAlgorithm; with MarshalText it makes Algorithm usable directly
// in flag.TextVar, JSON configs and similar text-keyed settings.
func (a *Algorithm) UnmarshalText(text []byte) error {
	v, err := ParseAlgorithm(string(text))
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// newEngine builds a fresh engine instance for one run.
func newEngine(a Algorithm, cfg meta.EngineConfig) (meta.Engine, error) {
	switch a {
	case Sequential:
		return newSeqEngine(cfg), nil
	case OWB:
		return core.NewOWB(cfg), nil
	case OUL:
		return core.NewOUL(cfg), nil
	case TL2:
		return tl2.New(cfg), nil
	case OrderedTL2:
		return tl2.NewOrdered(cfg), nil
	case NOrec:
		return norec.New(cfg), nil
	case OrderedNOrec:
		return norec.NewOrdered(cfg), nil
	case UndoLogVis:
		return undolog.New(cfg, true, false), nil
	case OrderedUndoLogVis:
		return undolog.New(cfg, true, true), nil
	case UndoLogInvis:
		return undolog.New(cfg, false, false), nil
	case OrderedUndoLogInvis:
		return undolog.New(cfg, false, true), nil
	case STMLite:
		return stmlite.New(cfg), nil
	default:
		return nil, fmt.Errorf("stm: unknown algorithm %d", int(a))
	}
}
