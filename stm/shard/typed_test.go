package shard_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
)

// typedPool is the typed workload state: a TVar[uint64] pool plus the
// cached per-TVar word handles (the declaration path must not
// re-allocate them per submission).
type typedPool struct {
	vars  []stm.TVar[uint64]
	words [][]*stm.Var
}

func newTypedPool(n int) *typedPool {
	p := &typedPool{vars: stm.NewTVars[uint64](n), words: make([][]*stm.Var, n)}
	for i := range p.vars {
		p.words[i] = p.vars[i].Vars()
	}
	return p
}

func (p *typedPool) init() {
	for i := range p.vars {
		p.vars[i].Store(uint64(100 + i))
	}
}

func (p *typedPool) state() []uint64 {
	out := make([]uint64, len(p.vars))
	for i := range p.vars {
		out[i] = p.vars[i].Load()
	}
	return out
}

func (p *typedPool) access(idx []int) stm.Access {
	var vs []*stm.Var
	for _, i := range idx {
		vs = append(vs, p.words[i]...)
	}
	return stm.Touches(vs...)
}

func (p *typedPool) buckets(shards int) [][]int {
	out := make([][]int, shards)
	for i := range p.vars {
		s := shard.Of(p.words[i][0], shards)
		out[s] = append(out[s], i)
	}
	return out
}

// typedFn builds the deterministic value-returning transaction for
// one command: fold the declared variables, rotate writes through
// them, return the fold.
func typedFn(p *typedPool, idx []int, g int) stm.Func[uint64] {
	return func(tx stm.Tx, _ int) uint64 {
		var sum uint64
		for _, i := range idx {
			sum += stm.ReadT(tx, &p.vars[i])
		}
		for k, i := range idx {
			stm.WriteT(tx, &p.vars[i], sum+uint64(g)+uint64(k))
		}
		return sum
	}
}

// genTypedCmds mirrors genCmds over the typed pool's index space.
func genTypedCmds(seed uint64, n, shards int, bk [][]int) [][]int {
	r := rng.New(seed)
	pick := func(s int) int { return bk[s][r.Intn(len(bk[s]))] }
	cmds := make([][]int, n)
	for i := range cmds {
		switch r.Intn(6) {
		case 0, 1:
			a := r.Intn(shards)
			b := (a + 1 + r.Intn(shards-1)) % shards
			cmds[i] = []int{pick(a), pick(b)}
		default:
			s := r.Intn(shards)
			for k := 0; k <= r.Intn(3); k++ {
				cmds[i] = append(cmds[i], pick(s))
			}
		}
	}
	return cmds
}

// TestShardedTypedDeterminism: for every ordered algorithm and S in
// {2,4}, value-returning typed transactions routed through
// shard.SubmitFunc yield per-ticket values and final typed state
// identical to the sequential execution in global-age order.
func TestShardedTypedDeterminism(t *testing.T) {
	n := 1200
	if testing.Short() {
		n = 300
	}
	for _, shards := range []int{2, 4} {
		pool := newTypedPool(poolSize)
		bk := pool.buckets(shards)
		cmds := genTypedCmds(uint64(0xABCD+shards), n, shards, bk)

		// Sequential oracle in global-age order.
		pool.init()
		wantVals := make([]uint64, n)
		seq, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seq.Run(n, func(tx stm.Tx, age int) {
			wantVals[age] = typedFn(pool, cmds[age], age)(tx, age)
		}); err != nil {
			t.Fatal(err)
		}
		wantState := pool.state()

		for _, alg := range stm.OrderedAlgorithms() {
			alg := alg
			t.Run(alg.String(), func(t *testing.T) {
				pool.init()
				sp, err := shard.New(shard.Config{
					Shards:   shards,
					Pipeline: stm.Config{Algorithm: alg, Workers: 2},
				})
				if err != nil {
					t.Fatal(err)
				}
				tks := make([]*shard.TicketOf[uint64], n)
				for g := 0; g < n; g++ {
					tk, err := shard.SubmitFunc(context.Background(), sp, pool.access(cmds[g]), typedFn(pool, cmds[g], g))
					if err != nil {
						t.Fatal(err)
					}
					tks[g] = tk
				}
				for g, tk := range tks {
					got, err := tk.Value()
					if err != nil {
						t.Fatalf("S=%d %v age %d: %v", shards, alg, g, err)
					}
					if got != wantVals[g] {
						t.Fatalf("S=%d %v age %d value %d, want %d", shards, alg, g, got, wantVals[g])
					}
				}
				if err := sp.Close(); err != nil {
					t.Fatal(err)
				}
				got := pool.state()
				for i := range got {
					if got[i] != wantState[i] {
						t.Fatalf("S=%d %v var %d state %d, want %d", shards, alg, i, got[i], wantState[i])
					}
				}
			})
		}
	}
}

// TestShardedSubmitCtxCancel covers the cancellation races the
// redesign calls out: cancels during single- and cross-shard submits
// (including mid-backpressure) must either withdraw the submission
// completely or let it commit normally — never a half-routed state —
// and the surviving stream must stay deterministic. Run with -race.
func TestShardedSubmitCtxCancel(t *testing.T) {
	const shards = 2
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	pool := newTypedPool(poolSize)
	pool.init()
	bk := pool.buckets(shards)
	sp, err := shard.New(shard.Config{
		Shards:   shards,
		Pipeline: stm.Config{Algorithm: stm.OWB, Workers: 2, Capacity: 16},
	})
	if err != nil {
		t.Fatal(err)
	}

	type rec struct {
		idx []int
		tk  *shard.TicketOf[uint64]
	}
	var mu sync.Mutex
	byAge := map[uint64]rec{}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w)*77 + 3)
			for i := 0; i < rounds; i++ {
				var idx []int
				if r.Intn(3) == 0 { // cross-shard
					a := r.Intn(shards)
					b := (a + 1) % shards
					idx = []int{bk[a][r.Intn(len(bk[a]))], bk[b][r.Intn(len(bk[b]))]}
				} else {
					s := r.Intn(shards)
					idx = []int{bk[s][r.Intn(len(bk[s]))], bk[s][r.Intn(len(bk[s]))]}
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(r.Intn(120))*time.Microsecond)
				// The submitted fn re-reads its age from the router (the
				// value fold depends on the assigned global age), so the
				// body is built only when the age is known: SubmitFunc
				// passes it through tx/age.
				tk, err := shard.SubmitFunc(ctx, sp, pool.access(idx), func(tx stm.Tx, age int) uint64 {
					var sum uint64
					for _, i := range idx {
						sum += stm.ReadT(tx, &pool.vars[i])
					}
					for k, i := range idx {
						stm.WriteT(tx, &pool.vars[i], sum+uint64(age)+uint64(k))
					}
					return sum
				})
				cancel()
				if err != nil {
					if !errors.Is(err, stm.ErrCanceled) {
						t.Errorf("producer %d: %v", w, err)
						return
					}
					continue
				}
				mu.Lock()
				byAge[tk.Age()] = rec{idx: idx, tk: tk}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := sp.Drain(); err != nil {
		t.Fatal(err)
	}
	// Every accepted age must be present exactly once and resolve nil:
	// a withdrawn submission may not leave a gap.
	if uint64(len(byAge)) != sp.Submitted() {
		t.Fatalf("accepted %d tickets but router sequenced %d ages", len(byAge), sp.Submitted())
	}
	vals := make(map[uint64]uint64, len(byAge))
	for g, r := range byAge {
		v, err := r.tk.Value()
		if err != nil {
			t.Fatalf("age %d: %v", g, err)
		}
		vals[g] = v
	}
	gotState := pool.state()
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Deterministic replay: the same bodies in global-age order must
	// reproduce both the per-ticket values and the final state.
	pool.init()
	seq, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	nAges := len(byAge)
	if _, err := seq.Run(nAges, func(tx stm.Tx, age int) {
		r, ok := byAge[uint64(age)]
		if !ok {
			t.Errorf("age %d missing from accepted set", age)
			return
		}
		var sum uint64
		for _, i := range r.idx {
			sum += stm.ReadT(tx, &pool.vars[i])
		}
		for k, i := range r.idx {
			stm.WriteT(tx, &pool.vars[i], sum+uint64(age)+uint64(k))
		}
		if sum != vals[uint64(age)] {
			t.Errorf("age %d: sharded value %d, sequential %d", age, vals[uint64(age)], sum)
		}
	}); err != nil {
		t.Fatal(err)
	}
	wantState := pool.state()
	for i := range wantState {
		if gotState[i] != wantState[i] {
			t.Fatalf("var %d: sharded %d, sequential %d", i, gotState[i], wantState[i])
		}
	}
}

// TestShardedWaitCtx: an abandoned sharded wait keeps the ticket and
// its typed value intact, on both the single-shard (delegated) and
// cross-shard (aggregated) resolution paths.
func TestShardedWaitCtx(t *testing.T) {
	const shards = 2
	pool := newTypedPool(poolSize)
	pool.init()
	bk := pool.buckets(shards)
	sp, err := shard.New(shard.Config{
		Shards:   shards,
		Pipeline: stm.Config{Algorithm: stm.OWB, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()

	single := []int{bk[0][0]}
	cross := []int{bk[0][1], bk[1][0]}
	for name, idx := range map[string][]int{"single": single, "cross": cross} {
		tk, err := shard.SubmitFunc(context.Background(), sp, pool.access(idx), func(tx stm.Tx, age int) uint64 {
			var sum uint64
			for _, i := range idx {
				sum += stm.ReadT(tx, &pool.vars[i])
			}
			return sum
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tk.WaitCtx(expired); err != nil && !errors.Is(err, stm.ErrCanceled) {
			t.Fatalf("%s: WaitCtx returned %v", name, err)
		}
		if v, err := tk.Value(); err != nil || v == 0 {
			t.Fatalf("%s: Value after abandoned wait = %d, %v", name, v, err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}
