package stm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
)

// Executor runs batches of ordered transactions under a configured
// algorithm: n transactions, ages 0..n-1, one shared Body. It is the
// batch front-end over the shared run-loop (runloop.go); Pipeline is
// the streaming front-end over the same core.
//
// An Executor is immutable and safe for concurrent use; every Run gets
// fresh engine state.
type Executor struct {
	cfg Config
}

// NewExecutor validates the configuration and returns an executor.
func NewExecutor(cfg Config) (*Executor, error) {
	if cfg.Algorithm < Sequential || cfg.Algorithm >= numAlgorithms {
		return nil, fmt.Errorf("stm: unknown algorithm %d", int(cfg.Algorithm))
	}
	return &Executor{cfg: cfg.withDefaults()}, nil
}

// Config returns the executor's effective configuration.
func (e *Executor) Config() Config { return e.cfg }

// Run executes n transactions with ages 0..n-1. For order-enforcing
// algorithms the run is externally indistinguishable from running the
// bodies sequentially in age order; unordered algorithms provide plain
// serializability. Run returns a *Fault error if a body faulted
// non-speculatively; the returned Result is still meaningful then —
// compare Result.N against Result.Requested to see how far the run
// got before it stopped.
func (e *Executor) Run(n int, body Body) (Result, error) {
	if n < 0 {
		return Result{}, fmt.Errorf("stm: negative transaction count %d", n)
	}
	if body == nil {
		return Result{}, fmt.Errorf("stm: nil body")
	}
	cfg := e.cfg
	cfg.FirstAge = 0 // batch ages are always 0..n-1
	stats := &meta.Stats{}
	order := meta.NewOrder()
	eng, err := newEngine(cfg.Algorithm, meta.EngineConfig{
		TableBits:  cfg.TableBits,
		MaxReaders: cfg.MaxReaders,
		SpinBudget: cfg.SpinBudget,
		SigBits:    cfg.SigBits,
		Order:      order,
		Stats:      stats,
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	var ferr error
	if eng.Mode() == meta.ModeSequential || n == 0 {
		ferr = runSequential(n, body, eng, stats)
	} else {
		ferr = runBatch(cfg, eng, order, stats, body, uint64(n))
	}
	view := stats.View()
	res := Result{
		Algorithm: cfg.Algorithm,
		Workers:   cfg.Workers,
		N:         int(view.Commits),
		Requested: n,
		Elapsed:   time.Since(start),
		Stats:     view,
	}
	return res, ferr
}

// runSequential executes bodies one at a time in age order.
func runSequential(n int, body Body, eng meta.Engine, stats *meta.Stats) error {
	for i := 0; i < n; i++ {
		txn := eng.NewTxn(uint64(i))
		stats.Start()
		if err := callBody(body, txn); err != nil {
			return err
		}
		stats.Commit()
	}
	return nil
}

func callBody(body Body, txn meta.Txn) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &Fault{Age: txn.Age(), Value: rec}
		}
	}()
	body(txn, int(txn.Age()))
	return nil
}

// batchFeed adapts the fixed-size, shared-body batch to the run-loop's
// feed contract: claiming is a lock-free counter bump, and nothing
// blocks because the whole work list exists up front.
type batchFeed struct {
	n    uint64
	body Body
	next atomic.Uint64
}

func (b *batchFeed) claim(*wctx, func() bool) (uint64, Body, bool, bool) {
	age := b.next.Add(1) - 1
	if age >= b.n {
		return 0, nil, false, false
	}
	return age, b.body, false, true
}

func (b *batchFeed) committed(uint64)      {}
func (b *batchFeed) halted(*Fault, uint64) {}

// runBatch drives one parallel batch over the shared run-loop.
func runBatch(cfg Config, eng meta.Engine, order *meta.Order, stats *meta.Stats, body Body, n uint64) error {
	f := &batchFeed{n: n, body: body}
	// The commit ring must cover every in-flight age: the window bounds
	// run-ahead, plus one in-progress age per worker — but never more
	// slots than the batch has transactions.
	span := uint64(cfg.Window + cfg.Workers + 8)
	l := newLoop(cfg, eng, order, stats, f, span, n)
	if svc, ok := eng.(meta.Service); ok {
		svc.Start()
		defer svc.Stop()
	}
	var wg sync.WaitGroup
	l.spawnWorkers(&wg)
	if l.mode == meta.ModeCooperative {
		l.validatorLoop(func() bool { return order.Committed() >= n })
	}
	wg.Wait()
	if f := l.fault.Load(); f != nil {
		return f
	}
	return nil
}
