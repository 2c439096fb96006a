package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/stm/serve"
)

// wireReport is the -loadgen JSON document CI jq-verifies — the
// over-the-wire counterpart of streambench's report: same tx_per_s /
// latency_us / state_match vocabulary, plus the wire-only knobs
// (conns × inflight × batch) and the commit-order violation count.
type wireReport struct {
	Bench           string    `json:"bench"`
	Conns           int       `json:"conns"`
	Inflight        int       `json:"inflight"`
	Batch           int       `json:"batch"`
	Pool            int       `json:"pool"`
	Txns            int       `json:"txns"`
	ElapsedS        float64   `json:"elapsed_s"`
	TxPerS          float64   `json:"tx_per_s"`
	LatencyUS       latencyUS `json:"latency_us"`
	StateMatch      bool      `json:"state_match"`
	OrderViolations int       `json:"order_violations"`
	Errors          int       `json:"errors"`

	// Follower verification (-follower): the replication lag observed
	// the moment the load stopped, how long the follower took to catch
	// up to the last acknowledged age, and whether its state then
	// matched the same fold the leader was verified against.
	Follower           string   `json:"follower,omitempty"`
	ReplicationLagAges *uint64  `json:"replication_lag_ages,omitempty"`
	CatchupMS          *float64 `json:"catchup_ms,omitempty"`
	FollowerStateMatch *bool    `json:"follower_state_match,omitempty"`
}

type latencyUS struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// record is one acknowledged transaction: the age the server assigned
// and the payload we sent. The fold of all records in age order onto
// the pre-run state snapshot is the state_match oracle — valid
// because the transaction semantics are a pure function of
// (age, payload, memory) and this loadgen is the only writer.
type record struct {
	age     uint64
	payload []byte
}

func fetchState(addr string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + "/state")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /state: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func decodeBalances(state []byte) []uint64 {
	out := make([]uint64, len(state)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(state[i*8:])
	}
	return out
}

func balancesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fetchReplStatus polls GET /repl/status on a replication-enabled
// server.
func fetchReplStatus(addr string) (replStatus, error) {
	resp, err := http.Get("http://" + addr + "/repl/status")
	if err != nil {
		return replStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return replStatus{}, fmt.Errorf("GET /repl/status: %s", resp.Status)
	}
	var st replStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return replStatus{}, err
	}
	return st, nil
}

// verifyFollower measures and verifies a hot standby right after the
// load stopped: the lag at that instant, the time to catch up to the
// last acknowledged age, and a state comparison against the leader's
// fold. The follower may keep applying while we compare (its /state
// races its apply loop under shards), so the comparison polls until
// match or deadline.
func verifyFollower(addr string, nextAge uint64, want []uint64) (lag uint64, catchup float64, match bool, err error) {
	st, err := fetchReplStatus(addr)
	if err != nil {
		return 0, 0, false, err
	}
	if st.Frontier < nextAge {
		lag = nextAge - st.Frontier
	}
	t0 := time.Now()
	deadline := t0.Add(60 * time.Second)
	for st.Frontier < nextAge {
		if time.Now().After(deadline) {
			return lag, 0, false, fmt.Errorf("follower stuck at frontier %d, want %d", st.Frontier, nextAge)
		}
		time.Sleep(5 * time.Millisecond)
		if st, err = fetchReplStatus(addr); err != nil {
			return lag, 0, false, err
		}
	}
	catchup = float64(time.Since(t0).Microseconds()) / 1e3
	for {
		s1, err := fetchState(addr)
		if err != nil {
			return lag, catchup, false, err
		}
		if balancesEqual(want, decodeBalances(s1)) {
			return lag, catchup, true, nil
		}
		if time.Now().After(deadline) {
			return lag, catchup, false, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runLoadgen(addr string, conns, inflight, batch, txns, pool int, emitJSON bool, follower string) {
	if conns <= 0 || inflight <= 0 || batch <= 0 || txns <= 0 {
		fatal(fmt.Errorf("-conns, -inflight, -batch and -txns must be positive"))
	}
	if batch > inflight {
		inflight = batch
	}

	// Pre-run snapshot: the fold base. Starting from the server's own
	// state (not an assumed fresh 1000-per-account image) keeps the
	// verdict valid against a server that recovered history from its
	// WAL before we arrived.
	s0, err := fetchState(addr)
	if err != nil {
		fatal(fmt.Errorf("loadgen: pre-run state: %w", err))
	}
	if len(s0) != 8*pool {
		fatal(fmt.Errorf("loadgen: server state is %d accounts, -pool says %d (restart loadgen with the server's pool)", len(s0)/8, pool))
	}
	balances := decodeBalances(s0)

	perConn := txns / conns
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		records    []record
		durs       []time.Duration
		violations int
		errCount   atomic.Int64
	)
	start := time.Now()
	for cn := 0; cn < conns; cn++ {
		n := perConn
		if cn == conns-1 {
			n = txns - perConn*(conns-1) // remainder rides the last connection
		}
		wg.Add(1)
		go func(seed int64, n int) {
			defer wg.Done()
			c, err := serve.Dial(context.Background(), addr)
			if err != nil {
				errCount.Add(int64(n))
				fmt.Fprintln(os.Stderr, "ordersvc: loadgen dial:", err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			recs := make([]record, 0, n)
			ds := make([]time.Duration, 0, n)
			// Closed loop: at most `inflight` unacknowledged calls per
			// connection; submissions go out in bursts of `batch`
			// frames so the server's ingress batcher sees them
			// together.
			type pend struct {
				call *serve.Call
				pl   []byte
				t0   time.Time
			}
			window := make([]pend, 0, inflight)
			reap := func(min int) {
				for len(window) > min {
					p := window[0]
					window = window[1:]
					age, err := p.call.Wait()
					if err != nil {
						errCount.Add(1)
						continue
					}
					recs = append(recs, record{age, p.pl})
					ds = append(ds, time.Since(p.t0))
				}
			}
			payloads := make([][]byte, 0, batch)
			for sent := 0; sent < n; {
				payloads = payloads[:0]
				for b := 0; b < batch && sent+len(payloads) < n; b++ {
					from := uint32(rng.Intn(pool))
					to := uint32(rng.Intn(pool))
					payloads = append(payloads, appendTransfer(make([]byte, 0, 8), from, to))
				}
				t0 := time.Now()
				calls, err := c.SubmitMany(payloads)
				if err != nil {
					errCount.Add(int64(n - sent))
					break
				}
				for i, call := range calls {
					window = append(window, pend{call, payloads[i], t0})
				}
				sent += len(payloads)
				reap(inflight - batch)
			}
			reap(0)
			v := c.OrderViolations()
			c.Close()
			mu.Lock()
			records = append(records, recs...)
			durs = append(durs, ds...)
			violations += v
			mu.Unlock()
		}(int64(cn)*7919+1, n)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// state_match: fold every acknowledged (age, payload) onto the
	// pre-run snapshot in age order, then compare against the server's
	// post-run state.
	sort.Slice(records, func(i, j int) bool { return records[i].age < records[j].age })
	for i := 1; i < len(records); i++ {
		if records[i].age == records[i-1].age {
			fatal(fmt.Errorf("loadgen: duplicate age %d across connections", records[i].age))
		}
	}
	for _, r := range records {
		applyTransfer(balances, r.age, r.payload)
	}
	s1, err := fetchState(addr)
	if err != nil {
		fatal(fmt.Errorf("loadgen: post-run state: %w", err))
	}
	match := balancesEqual(balances, decodeBalances(s1))

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) float64 {
		if len(durs) == 0 {
			return 0
		}
		i := int(p * float64(len(durs)-1))
		return float64(durs[i].Microseconds())
	}
	rep := wireReport{
		Bench:    "ordersvc-wire",
		Conns:    conns,
		Inflight: inflight,
		Batch:    batch,
		Pool:     pool,
		Txns:     len(records),
		ElapsedS: elapsed.Seconds(),
		TxPerS:   float64(len(records)) / elapsed.Seconds(),
		LatencyUS: latencyUS{
			P50: pct(0.50), P95: pct(0.95), P99: pct(0.99), Max: pct(1.0),
		},
		StateMatch:      match,
		OrderViolations: violations,
		Errors:          int(errCount.Load()),
	}
	fmatch := true
	if follower != "" && len(records) > 0 {
		nextAge := records[len(records)-1].age + 1
		lag, catchup, fm, err := verifyFollower(follower, nextAge, balances)
		if err != nil {
			fatal(fmt.Errorf("loadgen: follower %s: %w", follower, err))
		}
		fmatch = fm
		rep.Follower = follower
		rep.ReplicationLagAges = &lag
		rep.CatchupMS = &catchup
		rep.FollowerStateMatch = &fm
	}
	if emitJSON {
		b, _ := json.Marshal(rep)
		fmt.Println(string(b))
	} else {
		fmt.Printf("ordersvc-wire: conns=%d inflight=%d batch=%d txns=%d %.0f tx/s p50=%.0fµs p99=%.0fµs state_match=%v order_violations=%d errors=%d\n",
			conns, inflight, batch, rep.Txns, rep.TxPerS, rep.LatencyUS.P50, rep.LatencyUS.P99, match, violations, rep.Errors)
	}
	if !match || !fmatch || violations > 0 {
		os.Exit(1)
	}
}
