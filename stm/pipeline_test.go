package stm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
)

// streamCmd is one heterogeneous transaction of a randomized
// bank-transfer stream: unlike the batch tests' single shared body,
// every age gets its own closure with its own captured parameters,
// exercising the pipeline's per-transaction bodies.
type streamCmd struct {
	kind byte // 't' transfer, 'd' deposit, 'a' audit
	from int
	to   int
	amt  uint64
}

func genStreamCmds(seed uint64, n, accounts int) []streamCmd {
	r := rng.New(seed)
	cmds := make([]streamCmd, n)
	for i := range cmds {
		switch r.Intn(10) {
		case 0:
			cmds[i] = streamCmd{kind: 'a'}
		case 1, 2:
			cmds[i] = streamCmd{kind: 'd', to: r.Intn(accounts), amt: uint64(r.Intn(100))}
		default:
			cmds[i] = streamCmd{kind: 't', from: r.Intn(accounts), to: r.Intn(accounts),
				amt: uint64(r.Intn(50))}
		}
	}
	return cmds
}

// streamBody builds the age's closure. Each body records its result
// (the value the committed execution observed) into its own slot of
// results, so per-ticket outputs can be compared across algorithms.
func streamBody(cmd streamCmd, accounts []stm.Var, results []uint64, age int) stm.Body {
	return func(tx stm.Tx, _ int) {
		switch cmd.kind {
		case 'd':
			nv := tx.Read(&accounts[cmd.to]) + cmd.amt
			tx.Write(&accounts[cmd.to], nv)
			results[age] = nv
		case 'a':
			var total uint64
			for i := range accounts {
				total += tx.Read(&accounts[i])
			}
			results[age] = total
		default:
			b := tx.Read(&accounts[cmd.from])
			if b >= cmd.amt {
				tx.Write(&accounts[cmd.from], b-cmd.amt)
				tx.Write(&accounts[cmd.to], tx.Read(&accounts[cmd.to])+cmd.amt)
				results[age] = b - cmd.amt
			} else {
				results[age] = b
			}
		}
	}
}

const (
	streamAccounts = 32
	streamInitial  = 500
)

func initAccounts(vars []stm.Var) {
	for i := range vars {
		vars[i].Store(streamInitial)
	}
}

// runStreamSequential produces the oracle: the same bodies executed
// strictly in age order.
func runStreamSequential(t *testing.T, cmds []streamCmd) ([]uint64, []uint64) {
	t.Helper()
	accounts := stm.NewVars(streamAccounts)
	initAccounts(accounts)
	results := make([]uint64, len(cmds))
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([]stm.Body, len(cmds))
	for i, c := range cmds {
		bodies[i] = streamBody(c, accounts, results, i)
	}
	if _, err := ex.Run(len(cmds), func(tx stm.Tx, age int) { bodies[age](tx, age) }); err != nil {
		t.Fatal(err)
	}
	return snapshot(accounts), results
}

// TestPipelineStreamingEquivalence is the streaming oracle required by
// the roadmap: for every ordered algorithm, submitting a randomized
// heterogeneous bank-transfer stream through a Pipeline with 8 workers
// yields final memory and per-ticket results byte-identical to the
// sequential in-age-order execution of the same bodies.
func TestPipelineStreamingEquivalence(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1500
	}
	cmds := genStreamCmds(0xC0FFEE, n, streamAccounts)
	wantState, wantResults := runStreamSequential(t, cmds)

	algos := append(stm.OrderedAlgorithms(), stm.Sequential)
	for _, alg := range algos {
		t.Run(alg.String(), func(t *testing.T) {
			accounts := stm.NewVars(streamAccounts)
			initAccounts(accounts)
			results := make([]uint64, n)
			p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			tickets := make([]*stm.Ticket, n)
			for i, c := range cmds {
				tk, err := p.Submit(streamBody(c, accounts, results, i))
				if err != nil {
					t.Fatalf("Submit age %d: %v", i, err)
				}
				if tk.Age() != uint64(i) {
					t.Fatalf("ticket age %d, want %d", tk.Age(), i)
				}
				tickets[i] = tk
			}
			if err := p.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for i, tk := range tickets {
				if err := tk.Wait(); err != nil {
					t.Fatalf("ticket %d: %v", i, err)
				}
			}
			if got := p.Committed(); got != uint64(n) {
				t.Fatalf("committed %d of %d", got, n)
			}
			gotState := snapshot(accounts)
			for i := range wantState {
				if gotState[i] != wantState[i] {
					t.Fatalf("account %d diverged: got %d want %d (stats %v)",
						i, gotState[i], wantState[i], p.Stats())
				}
			}
			for i := range wantResults {
				if results[i] != wantResults[i] {
					t.Fatalf("per-ticket result %d diverged: got %d want %d",
						i, results[i], wantResults[i])
				}
			}
		})
	}
}

// TestPipelineFaultSemantics: a deterministic panic stops the stream;
// the faulting ticket resolves with the *Fault, later tickets with
// *Stopped, and Submit/Close report the fault.
func TestPipelineFaultSemantics(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.Sequential, stm.OUL, stm.OWB, stm.OrderedTL2} {
		t.Run(alg.String(), func(t *testing.T) {
			p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			v := stm.NewVar(0)
			var tickets []*stm.Ticket
			for i := 0; i < 100; i++ {
				i := i
				tk, err := p.Submit(func(tx stm.Tx, age int) {
					if i == 37 {
						panic("boom")
					}
					tx.Write(v, tx.Read(v)+1)
				})
				if err != nil {
					break // pipeline may stop while we are still submitting
				}
				tickets = append(tickets, tk)
			}
			err = p.Close()
			var f *stm.Fault
			if !errors.As(err, &f) || f.Age != 37 || f.Value != "boom" {
				t.Fatalf("Close error = %v, want fault at 37", err)
			}
			werr := tickets[37].Wait()
			if !errors.As(werr, &f) || f.Age != 37 {
				t.Fatalf("ticket 37 resolved with %v", werr)
			}
			sawStopped := false
			for i, tk := range tickets {
				if i == 37 {
					continue
				}
				werr := tk.Wait() // must not hang
				var st *stm.Stopped
				if errors.As(werr, &st) {
					sawStopped = true
					if st.Fault.Age != 37 {
						t.Fatalf("stopped ticket %d carries fault age %d", i, st.Fault.Age)
					}
				}
			}
			if len(tickets) > 38 && !sawStopped {
				t.Fatal("no ticket resolved with *Stopped despite submissions past the fault")
			}
			if _, err := p.Submit(func(tx stm.Tx, age int) {}); err == nil {
				t.Fatal("Submit after fault succeeded")
			}
		})
	}
}

// TestPipelineCloseAndDrain covers the lifecycle: Drain keeps the
// pipeline open, Close drains and rejects further submissions, and
// both are safe to repeat.
func TestPipelineCloseAndDrain(t *testing.T) {
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	v := stm.NewVar(0)
	add := func(tx stm.Tx, age int) { tx.Write(v, tx.Read(v)+1) }
	for i := 0; i < 200; i++ {
		if _, err := p.Submit(add); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := v.Load(); got != 200 {
		t.Fatalf("after drain v=%d, want 200", got)
	}
	// The pipeline must remain open for more work after a drain.
	for i := 0; i < 100; i++ {
		if _, err := p.Submit(add); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := v.Load(); got != 300 {
		t.Fatalf("after close v=%d, want 300", got)
	}
	if _, err := p.Submit(add); !errors.Is(err, stm.ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
}

// TestPipelineBackpressure: in-flight submissions never exceed the
// configured capacity, and a capacity-throttled stream still commits
// everything.
func TestPipelineBackpressure(t *testing.T) {
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2, Window: 4, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Config().Capacity
	v := stm.NewVar(0)
	for i := 0; i < 2000; i++ {
		if _, err := p.Submit(func(tx stm.Tx, age int) { tx.Write(v, tx.Read(v)+1) }); err != nil {
			t.Fatal(err)
		}
		if in := p.InFlight(); in > capacity {
			t.Fatalf("in-flight %d exceeds capacity %d", in, capacity)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != 2000 {
		t.Fatalf("v=%d, want 2000", got)
	}
}

// TestPipelineEpochRecycling: a stream long enough to cross several
// epoch boundaries still reports exact whole-stream stats, and the
// janitor actually rotated.
func TestPipelineEpochRecycling(t *testing.T) {
	const n = 6000
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OULSteal, Workers: 4, EpochAges: 512})
	if err != nil {
		t.Fatal(err)
	}
	v := stm.NewVar(0)
	for i := 0; i < n; i++ {
		if _, err := p.Submit(func(tx stm.Tx, age int) { tx.Write(v, tx.Read(v)+1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != n {
		t.Fatalf("v=%d, want %d", got, n)
	}
	if sv := p.Stats(); sv.Commits != n {
		t.Fatalf("whole-stream commits %d, want %d (epochs=%d)", sv.Commits, n, p.Epochs())
	}
	if p.Epochs() == 0 {
		t.Fatal("no epoch rotated despite EpochAges=512 and 6000 commits")
	}
}

// TestPipelineFirstAge: ages are assigned from FirstAge upward (a
// replica resuming at a known consensus slot) for both cooperative
// and blocked engines.
func TestPipelineFirstAge(t *testing.T) {
	const base = uint64(1_000_000)
	for _, alg := range []stm.Algorithm{stm.OUL, stm.OrderedNOrec, stm.STMLite} {
		t.Run(alg.String(), func(t *testing.T) {
			p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: 4, FirstAge: base})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			seen := make(map[uint64]bool)
			for i := 0; i < 300; i++ {
				tk, err := p.Submit(func(tx stm.Tx, age int) {
					mu.Lock()
					seen[tx.Age()] = true
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := base + uint64(i); tk.Age() != want {
					t.Fatalf("ticket age %d, want %d", tk.Age(), want)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 300; i++ {
				if !seen[base+i] {
					t.Fatalf("age %d never executed", base+i)
				}
			}
		})
	}
}

// TestPipelineEveryAlgorithm smoke-tests the full algorithm matrix
// through the streaming front-end, including the unordered engines
// (which provide plain serializability: per-age slots and a conserved
// total are still exact).
func TestPipelineEveryAlgorithm(t *testing.T) {
	const n = 400
	for _, alg := range stm.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			vars := stm.NewVars(16)
			p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				i := i
				_, err := p.Submit(func(tx stm.Tx, age int) {
					r := rng.New(uint64(i) * 17)
					v := &vars[r.Intn(16)]
					tx.Write(v, tx.Read(v)+1)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			var total uint64
			for i := range vars {
				total += vars[i].Load()
			}
			if total != n {
				t.Fatalf("total %d, want %d (lost or duplicated increments)", total, n)
			}
		})
	}
}

// TestPipelineVsExecutorResult: the two front-ends over the shared
// core must produce identical memory for the same workload.
func TestPipelineVsExecutorResult(t *testing.T) {
	const n = 500
	vars := stm.NewVars(24)
	body := randomBody(123, vars, 8)

	resetVars(vars)
	mustRun(t, stm.Config{Algorithm: stm.OUL, Workers: 4}, n, body)
	want := snapshot(vars)

	resetVars(vars)
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OUL, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := p.Submit(body); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := snapshot(vars)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("var %d: pipeline %#x, executor %#x", i, got[i], want[i])
		}
	}
}

// TestResultRequested: a faulted batch reports the partial commit
// count in N and the asked-for count in Requested.
func TestResultRequested(t *testing.T) {
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.OUL, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(100, func(tx stm.Tx, age int) {
		if age == 50 {
			panic("halt")
		}
	})
	if err == nil {
		t.Fatal("expected fault")
	}
	if res.Requested != 100 {
		t.Fatalf("Requested=%d, want 100", res.Requested)
	}
	if res.N >= res.Requested {
		t.Fatalf("faulted run reports full N=%d of %d", res.N, res.Requested)
	}
	res, err = ex.Run(80, func(tx stm.Tx, age int) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 80 || res.Requested != 80 {
		t.Fatalf("clean run N=%d Requested=%d, want 80/80", res.N, res.Requested)
	}
}

// TestPipelineTicketDone: Done() supports select-based consumption.
func TestPipelineTicketDone(t *testing.T) {
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := p.Submit(func(tx stm.Tx, age int) {})
	if err != nil {
		t.Fatal(err)
	}
	<-tk.Done()
	if err := tk.Wait(); err != nil {
		t.Fatalf("resolved ticket Wait: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineValidation covers constructor errors.
func TestPipelineValidation(t *testing.T) {
	if _, err := stm.NewPipeline(stm.Config{Algorithm: stm.Algorithm(99)}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OUL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(nil); err == nil {
		t.Fatal("expected error for nil body")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// benchmark-style sanity: a pipeline sustains a longer continuous run
// with bounded in-flight work (the closed-loop shape cmd/streambench
// measures at scale).
func TestPipelineSustainedStream(t *testing.T) {
	n := 30000
	if testing.Short() {
		n = 5000
	}
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OUL, Workers: 8, EpochAges: 2048})
	if err != nil {
		t.Fatal(err)
	}
	vars := stm.NewVars(64)
	for i := 0; i < n; i++ {
		i := i
		if _, err := p.Submit(func(tx stm.Tx, age int) {
			v := &vars[i%64]
			tx.Write(v, tx.Read(v)+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i := range vars {
		total += vars[i].Load()
	}
	if total != uint64(n) {
		t.Fatalf("total %d, want %d", total, n)
	}
	if fmt.Sprint(p.Stats().Commits) != fmt.Sprint(n) {
		t.Fatalf("stats commits %d, want %d", p.Stats().Commits, n)
	}
}
