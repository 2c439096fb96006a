// Package simcpu is a deterministic discrete-event simulator of a
// P-core machine executing ordered-STM workloads. It exists because
// this reproduction's evaluation host has a single hardware thread:
// real wall-clock runs cannot exhibit parallel speedup, so the
// thread-scaling *shape* of the paper's figures (who wins, by how
// much, where curves peak) is regenerated in virtual time instead
// (see DESIGN.md §1).
//
// The simulator executes the same micro-benchmark transaction traces
// as the real engines (generated from internal/micro's parameters)
// under per-algorithm protocol models:
//
//   - cooperative engines (OWB, OUL) expose transactions and move on;
//     commits drain through a serialized validator service in age
//     order, and conflicts are resolved by age with forwarding,
//     visible-reader kills and cascading aborts;
//   - blocked engines (Ordered TL2/NOrec/UndoLog) stall their worker
//     core from transaction completion until the commit turn — the
//     utilization loss the paper's cooperative model removes;
//   - STMLite routes commit requests through a TCM server with
//     Bloom-signature false conflicts that grow with signature fill;
//   - unordered baselines commit without turn stalls;
//   - Sequential runs the bare trace on one core with no overheads.
//
// Conflicts are tracked exactly (per-address versions, live writers,
// visible readers); only costs are abstract. Default cost parameters
// reflect the overhead ratios of the paper's C implementation
// (instrumented accesses a small factor over raw ones). The Go
// engines in this repository pay relatively more for visible-reader
// registration (see EXPERIMENTS.md's calibration table); Params lets
// callers re-run the simulation under those ratios instead.
package simcpu

import "fmt"

// Algo names a simulated algorithm.
type Algo int

// The simulated competitors (the paper's Figure 2–4 set).
const (
	Sequential Algo = iota
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
	numAlgos
)

// Algos lists every simulated algorithm.
func Algos() []Algo {
	out := make([]Algo, 0, numAlgos)
	for a := Sequential; a < numAlgos; a++ {
		out = append(out, a)
	}
	return out
}

// String names the algorithm as in the paper.
func (a Algo) String() string {
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
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Ordered reports whether the algorithm enforces the commit order.
func (a Algo) Ordered() bool {
	switch a {
	case TL2, NOrec, UndoLogVis, UndoLogInvis:
		return false
	default:
		return true
	}
}

func (a Algo) cooperative() bool { return a == OWB || a == OUL }

func (a Algo) writeThrough() bool {
	switch a {
	case OUL, UndoLogVis, OrderedUndoLogVis, UndoLogInvis, OrderedUndoLogInvis:
		return true
	default:
		return false
	}
}

func (a Algo) visibleReaders() bool {
	switch a {
	case OUL, UndoLogVis, OrderedUndoLogVis:
		return true
	default:
		return false
	}
}

// blocked reports whether the worker stalls until its commit turn.
func (a Algo) blocked() bool {
	switch a {
	case OrderedTL2, OrderedNOrec, OrderedUndoLogVis, OrderedUndoLogInvis:
		return true
	default:
		return false
	}
}

// OpKind is a trace operation kind.
type OpKind uint8

// Trace operations.
const (
	OpRead OpKind = iota
	OpWrite
)

// Op is one transactional access plus the local computation that
// precedes it.
type Op struct {
	Kind  OpKind
	Addr  uint32
	Local int64 // local computation cycles before the access
}

// Trace is one transaction's operation list.
type Trace struct {
	Ops []Op
}

// Params is the virtual cost model, in abstract cycles. Defaults
// (DefaultParams) reflect the relative single-thread overheads
// measured on the real engines.
type Params struct {
	ReadBase     int64 // instrumented read
	WriteBase    int64 // instrumented write (buffer or write-through)
	VisibleReg   int64 // visible-reader slot registration
	PerEntryVal  int64 // validation cost per read-set entry
	LockEntry    int64 // lock acquire/release per write-set entry
	CommitBase   int64 // fixed commit latency
	AbortBase    int64 // fixed abort/rollback latency
	TCMService   int64 // STMLite TCM service time per transaction
	SigBits      int   // STMLite signature size in bits
	Window       int   // cooperative run-ahead window (ages)
	RetryBackoff int64 // restart delay after an abort
}

// DefaultParams returns the paper-ratio cost model (see the package
// comment).
func DefaultParams() Params {
	return Params{
		ReadBase:     6,
		WriteBase:    6,
		VisibleReg:   5,
		PerEntryVal:  1,
		LockEntry:    2,
		CommitBase:   15,
		AbortBase:    40,
		TCMService:   25,
		SigBits:      64,
		Window:       256,
		RetryBackoff: 30,
	}
}

// Result summarizes one simulation.
type Result struct {
	Algo        Algo
	Cores       int
	Commits     int64
	Aborts      int64
	VirtualTime int64
}

// ThroughputPerKCycle returns commits per thousand virtual cycles —
// the simulator's throughput unit (higher is better).
func (r Result) ThroughputPerKCycle() float64 {
	if r.VirtualTime == 0 {
		return 0
	}
	return float64(r.Commits) * 1000 / float64(r.VirtualTime)
}

// AbortRatio returns aborts per commit.
func (r Result) AbortRatio() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(r.Commits)
}
