// Package chaos is the fault-injection harness: it drives a durable
// ordered engine (unsharded or sharded) over a seeded faultfs
// schedule and checks the two safety properties the failure model
// promises, whatever the disk does:
//
//   - no phantom durables: every transaction whose WaitDurable ticket
//     resolved nil is inside the recovered log;
//   - state match: replaying the recovered log through a fresh engine
//     produces exactly the sequential fold of its records — recovery
//     ≡ replay ≡ sequential execution of the acknowledged prefix.
//
// Both the workload and the fault schedule are deterministic in the
// seed, so a failing (seed, config) pair replays exactly.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/orderedstm/ostm/internal/faultfs"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed derives both the fault schedule (faultfs.FromSeed) and the
	// deterministic transfer stream. Seed 0 means a clean disk: the
	// injector is installed but given no schedule, so the run doubles
	// as the harness's own baseline.
	Seed uint64
	// Alg is the engine; it must enforce the predefined commit order.
	Alg stm.Algorithm
	// Shards: 0 runs the unsharded Pipeline; >= 2 runs a sharded
	// router with a cross-heavy stream (every second transaction spans
	// two shards).
	Shards int
	// Txns is the stream length (default 2000).
	Txns int
	// Accounts is the Var pool size (default 64).
	Accounts int
	// Workers per engine (default 4).
	Workers int
	// OnFail is the WAL's terminal-failure policy under test.
	OnFail wal.FailPolicy
	// Dir is the WAL directory (required, must exist and be empty).
	Dir string
}

// Result is one run's outcome, shaped for JSON emission (streambench
// -faults) and jq gating in CI.
type Result struct {
	Seed     uint64 `json:"seed"`
	Alg      string `json:"alg"`
	Shards   int    `json:"shards"`
	OnFail   string `json:"onfail"`
	Txns     int    `json:"txns"`
	Injected uint64 `json:"injected"` // faults the schedule actually fired
	Degraded bool   `json:"degraded"` // writer detached (Degrade policy)

	AckedDurable  int `json:"acked_durable"`  // tickets resolved nil
	FailedTickets int `json:"failed_tickets"` // tickets resolved with an error
	RecoveredTxns int `json:"recovered_txns"` // records in the recovered log

	NoPhantomDurable bool `json:"no_phantom_durable"`
	StateMatch       bool `json:"state_match"`

	CloseErr string   `json:"close_error,omitempty"`
	FaultLog []string `json:"fault_log,omitempty"`
}

// Ok reports whether both safety properties held.
func (r Result) Ok() bool { return r.NoPhantomDurable && r.StateMatch }

const (
	defaultTxns     = 2000
	defaultAccounts = 64
	defaultWorkers  = 4
	initialBalance  = 1000
	// waitBudget bounds every ticket wait: after Close all tickets are
	// resolved, so a hit means a lost resolution — report it instead
	// of hanging the harness.
	waitBudget = 60 * time.Second
)

// The wire format: u32 from | u32 to. The body moves age%5+1 from
// `from` to `to` when the balance covers it — the same conditional
// transfer the stm durability tests fold.
func encodeTransfer(from, to uint32) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], from)
	binary.LittleEndian.PutUint32(b[4:8], to)
	return b[:]
}

func decodeTransfer(data []byte) (from, to uint32, err error) {
	if len(data) != 8 {
		return 0, 0, fmt.Errorf("chaos: bad transfer payload length %d", len(data))
	}
	return binary.LittleEndian.Uint32(data[0:4]), binary.LittleEndian.Uint32(data[4:8]), nil
}

func transferBody(accounts []stm.Var, from, to uint32) stm.Body {
	return func(tx stm.Tx, age int) {
		amt := uint64(age%5) + 1
		bf := tx.Read(&accounts[from])
		if bf >= amt && from != to {
			tx.Write(&accounts[from], bf-amt)
			tx.Write(&accounts[to], tx.Read(&accounts[to])+amt)
		}
	}
}

// codec is the unsharded stm.Codec over the pool.
type codec struct{ accounts []stm.Var }

func (c codec) Encode(payload any) ([]byte, error) {
	p, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("chaos: unexpected payload %T", payload)
	}
	return p, nil
}

func (c codec) Decode(data []byte) (stm.Body, error) {
	from, to, err := decodeTransfer(data)
	if err != nil {
		return nil, err
	}
	if int(from) >= len(c.accounts) || int(to) >= len(c.accounts) {
		return nil, fmt.Errorf("chaos: transfer %d→%d outside pool %d", from, to, len(c.accounts))
	}
	return transferBody(c.accounts, from, to), nil
}

// shardCodec adds the access declaration for the sharded router.
type shardCodec struct{ accounts []stm.Var }

func (c shardCodec) Encode(payload any) ([]byte, error) {
	return codec{c.accounts}.Encode(payload)
}

func (c shardCodec) Decode(data []byte) (stm.Access, stm.Body, error) {
	from, to, err := decodeTransfer(data)
	if err != nil {
		return stm.Access{}, nil, err
	}
	if int(from) >= len(c.accounts) || int(to) >= len(c.accounts) {
		return stm.Access{}, nil, fmt.Errorf("chaos: transfer %d→%d outside pool %d", from, to, len(c.accounts))
	}
	return stm.Touches(&c.accounts[from], &c.accounts[to]),
		transferBody(c.accounts, from, to), nil
}

// stream derives the deterministic transfer for global age g. In
// sharded mode every second transaction pairs accounts from two
// different partitions (cross-heavy); the rest stay partition-local.
type stream struct {
	accounts []stm.Var
	shards   int
	buckets  [][]int // pool indices per owning shard (sharded only)
}

func newStream(accounts []stm.Var, shards int) *stream {
	st := &stream{accounts: accounts, shards: shards}
	if shards > 1 {
		st.buckets = make([][]int, shards)
		for i := range accounts {
			s := shard.Of(&accounts[i], shards)
			st.buckets[s] = append(st.buckets[s], i)
		}
	}
	return st
}

func (st *stream) transferFor(g uint64) (from, to uint32) {
	if st.shards > 1 {
		a := int(g) % st.shards
		b := a // same shard: single-partition
		if g%2 == 0 {
			b = (a + 1) % st.shards // cross-shard
		}
		bka, bkb := st.buckets[a], st.buckets[b]
		from = uint32(bka[int(g*7)%len(bka)])
		to = uint32(bkb[int(g*13+1)%len(bkb)])
		return from, to
	}
	n := uint64(len(st.accounts))
	return uint32((g * 7) % n), uint32((g*13 + 1) % n)
}

// ticket is the subset of stm/shard ticket behavior the harness needs.
type ticket interface {
	Done() <-chan struct{}
	Err() (error, bool)
}

// Run executes one chaos run and evaluates the safety properties.
// The returned error reports harness-level breakage (bad config, an
// unresolved ticket); injected faults land in the Result.
func Run(cfg Config) (Result, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = defaultTxns
	}
	if cfg.Accounts <= 0 {
		cfg.Accounts = defaultAccounts
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers
	}
	if cfg.Dir == "" {
		return Result{}, errors.New("chaos: Config.Dir required")
	}
	if !cfg.Alg.Ordered() {
		return Result{}, fmt.Errorf("chaos: %v does not enforce the predefined commit order", cfg.Alg)
	}
	res := Result{
		Seed:   cfg.Seed,
		Alg:    cfg.Alg.String(),
		Shards: cfg.Shards,
		OnFail: cfg.OnFail.String(),
		Txns:   cfg.Txns,
	}

	fs := faultfs.New(nil) // seed 0: clean disk
	if cfg.Seed != 0 {
		fs = faultfs.FromSeed(nil, cfg.Seed)
	}
	w, err := wal.Create(cfg.Dir, 0, wal.Options{
		FS:           fs,
		SyncEveryN:   8,
		SegmentBytes: 4 << 10, // frequent rolls so open/rename faults get a target
		Retry:        wal.RetryPolicy{Max: 2},
		OnFail:       cfg.OnFail,
	})
	if err != nil {
		// The schedule can kill the log before it exists (open #1..#4
		// ENOSPC). Nothing was acknowledged, so the properties hold
		// vacuously.
		res.Injected = fs.Injected()
		res.FaultLog = fs.Log()
		res.NoPhantomDurable = true
		res.StateMatch = true
		res.CloseErr = err.Error()
		return res, nil
	}

	accounts := stm.NewVars(cfg.Accounts)
	for i := range accounts {
		accounts[i].Store(initialBalance)
	}
	st := newStream(accounts, cfg.Shards)

	// Submit the stream and collect WaitDurable tickets. Submission
	// errors (a fault stopping the engine) end the stream early — the
	// accepted prefix is still checked. Every paceEvery submissions the
	// driver blocks on the latest ticket: an unpaced submitter lets the
	// group-commit machinery coalesce the whole run into a handful of
	// flushes and fsyncs, which would leave most fault schedules
	// without a target op to land on.
	const paceEvery = 64
	type sub struct {
		g  uint64
		tk ticket
	}
	var subs []sub
	var closeErr error
	pace := func(g uint64, tk ticket) bool {
		if (g+1)%paceEvery != 0 {
			return true
		}
		select {
		case <-tk.Done():
			return true
		case <-time.After(waitBudget):
			return false
		}
	}
	if cfg.Shards > 1 {
		sp, err := shard.New(shard.Config{
			Shards:       cfg.Shards,
			Pipeline:     stm.Config{Algorithm: cfg.Alg, Workers: cfg.Workers},
			WAL:          w,
			Codec:        shardCodec{accounts},
			WaitDurable:  true,
			FenceTimeout: 30 * time.Second, // backstop: a wedged rendezvous fails, not hangs
		})
		if err != nil {
			w.Close()
			return res, err
		}
		for g := uint64(0); g < uint64(cfg.Txns); g++ {
			from, to := st.transferFor(g)
			tk, err := sp.SubmitEncoded(encodeTransfer(from, to))
			if err != nil {
				break
			}
			subs = append(subs, sub{g: g, tk: tk})
			if !pace(g, tk) {
				break
			}
		}
		closeErr = sp.Close()
	} else {
		p, err := stm.NewPipeline(stm.Config{
			Algorithm:   cfg.Alg,
			Workers:     cfg.Workers,
			WAL:         w,
			Codec:       codec{accounts},
			WaitDurable: true,
		})
		if err != nil {
			w.Close()
			return res, err
		}
		for g := uint64(0); g < uint64(cfg.Txns); g++ {
			from, to := st.transferFor(g)
			tk, err := p.SubmitEncoded(encodeTransfer(from, to))
			if err != nil {
				break
			}
			subs = append(subs, sub{g: g, tk: tk})
			if !pace(g, tk) {
				break
			}
		}
		closeErr = p.Close()
	}
	if closeErr != nil {
		res.CloseErr = closeErr.Error()
	}
	res.Degraded = w.Degraded()
	w.Close()
	res.Injected = fs.Injected()
	res.FaultLog = fs.Log()

	// Classify every ticket. After Close all of them are resolved;
	// an unresolved one is a harness-level bug.
	deadline := time.After(waitBudget)
	var acked []uint64
	for _, s := range subs {
		select {
		case <-s.tk.Done():
		case <-deadline:
			return res, fmt.Errorf("chaos: ticket for age %d never resolved", s.g)
		}
		if err, _ := s.tk.Err(); err == nil {
			acked = append(acked, s.g)
		} else {
			res.FailedTickets++
		}
	}
	res.AckedDurable = len(acked)

	// Recovery reads the surviving log with the real filesystem — the
	// injector only ever targeted the live writer.
	rec, err := wal.Recover(cfg.Dir)
	if err != nil {
		// An unrecoverable log with acknowledged transactions is a
		// phantom-durable failure; without acks it is merely a dead
		// disk that never promised anything.
		res.NoPhantomDurable = len(acked) == 0
		res.StateMatch = len(acked) == 0
		res.CloseErr = joinErr(res.CloseErr, err)
		return res, nil
	}
	res.RecoveredTxns = rec.Count()

	// No phantom durables: every acknowledged age is in the log.
	res.NoPhantomDurable = true
	for _, g := range acked {
		if g < rec.First() || g >= rec.Next() {
			res.NoPhantomDurable = false
			break
		}
	}

	// State match: a fresh engine replaying the recovered records in
	// age order reaches exactly the integer-model fold of the same
	// records.
	match, err := replayMatches(cfg, rec)
	if err != nil {
		return res, err
	}
	res.StateMatch = match
	return res, nil
}

// replayMatches rebuilds state from the recovered records through a
// fresh (volatile) engine and compares it to the sequential fold.
func replayMatches(cfg Config, rec *wal.Recovery) (bool, error) {
	accounts := stm.NewVars(cfg.Accounts)
	model := make([]uint64, cfg.Accounts)
	for i := range accounts {
		accounts[i].Store(initialBalance)
		model[i] = initialBalance
	}
	var recs []wal.Record
	if err := rec.Replay(func(age uint64, payload []byte) error {
		recs = append(recs, wal.Record{Age: age, Payload: payload})
		return nil
	}); err != nil {
		return false, err
	}
	for _, r := range recs {
		from, to, err := decodeTransfer(r.Payload)
		if err != nil {
			return false, err
		}
		amt := r.Age%5 + 1
		if model[from] >= amt && from != to {
			model[from] -= amt
			model[to] += amt
		}
	}
	var replayErr error
	if cfg.Shards > 1 {
		sp, err := shard.New(shard.Config{
			Shards:   cfg.Shards,
			Pipeline: stm.Config{Algorithm: cfg.Alg, Workers: cfg.Workers},
		})
		if err != nil {
			return false, err
		}
		sc := shardCodec{accounts}
		replayErr = rec.Replay(func(age uint64, payload []byte) error {
			access, body, err := sc.Decode(payload)
			if err != nil {
				return err
			}
			_, err = sp.Submit(access, body)
			return err
		})
		if err := sp.Close(); err != nil && replayErr == nil {
			replayErr = err
		}
	} else {
		p, err := stm.NewPipeline(stm.Config{
			Algorithm: cfg.Alg,
			Workers:   cfg.Workers,
			FirstAge:  rec.First(),
		})
		if err != nil {
			return false, err
		}
		c := codec{accounts}
		replayErr = rec.Replay(func(age uint64, payload []byte) error {
			body, err := c.Decode(payload)
			if err != nil {
				return err
			}
			_, err = p.Submit(body)
			return err
		})
		if err := p.Close(); err != nil && replayErr == nil {
			replayErr = err
		}
	}
	if replayErr != nil {
		return false, replayErr
	}
	for i := range accounts {
		if accounts[i].Load() != model[i] {
			return false, nil
		}
	}
	return true, nil
}

func joinErr(prev string, err error) string {
	if prev == "" {
		return err.Error()
	}
	return prev + "; " + err.Error()
}
