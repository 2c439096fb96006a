// Benchmarks regenerating the paper's evaluation (one benchmark per
// table/figure, scaled-down defaults; the cmd/ tools run the full
// sweeps). Shapes — who wins, by roughly what factor — are the
// reproduction target; see EXPERIMENTS.md.
//
// Note: wall-clock benches on a single-hardware-thread host cannot
// show parallel speedup; BenchmarkSimFigure* regenerate the scaling
// shape in virtual time (internal/simcpu).
package ostm

import (
	"context"
	"fmt"
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/internal/harness"
	"github.com/orderedstm/ostm/internal/micro"
	"github.com/orderedstm/ostm/internal/parsec/blackscholes"
	"github.com/orderedstm/ostm/internal/parsec/fluidanimate"
	"github.com/orderedstm/ostm/internal/parsec/swaptions"
	"github.com/orderedstm/ostm/internal/simcpu"
	"github.com/orderedstm/ostm/internal/spec/equake"
	"github.com/orderedstm/ostm/internal/stamp/genome"
	"github.com/orderedstm/ostm/internal/stamp/intruder"
	"github.com/orderedstm/ostm/internal/stamp/kmeans"
	"github.com/orderedstm/ostm/internal/stamp/labyrinth"
	"github.com/orderedstm/ostm/internal/stamp/ssca2"
	"github.com/orderedstm/ostm/internal/stamp/vacation"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
)

const (
	benchTxns = 2000
	benchPool = 1 << 14
)

// runMicro executes one micro-benchmark configuration b.N times and
// reports throughput and abort metrics.
func runMicro(b *testing.B, alg stm.Algorithm, workers int, cfg micro.Config) {
	b.Helper()
	w := micro.New(cfg)
	var commits, aborts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		res, err := harness.Exec(alg, workers, w.Txns(), w.Body(), nil)
		if err != nil {
			b.Fatal(err)
		}
		commits += uint64(res.N)
		aborts += res.Stats.TotalAborts()
	}
	b.StopTimer()
	b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "tx/s")
	if commits > 0 {
		b.ReportMetric(100*float64(aborts)/float64(commits), "aborts%")
	}
}

// BenchmarkFigure2 — peak-throughput comparison of every competitor
// (ordered, unordered, sequential) on the four micro-benchmarks
// (short transactions; cmd/microbench sweeps lengths and threads).
func BenchmarkFigure2(b *testing.B) {
	algos := []stm.Algorithm{
		stm.TL2, stm.OrderedTL2, stm.NOrec, stm.OrderedNOrec,
		stm.UndoLogVis, stm.OrderedUndoLogVis, stm.UndoLogInvis, stm.OrderedUndoLogInvis,
		stm.OUL, stm.OWB, stm.STMLite, stm.Sequential,
	}
	for _, bench := range micro.Benches() {
		for _, alg := range algos {
			workers := 4
			if alg == stm.Sequential {
				workers = 1
			}
			b.Run(fmt.Sprintf("%v/%v", bench, alg), func(b *testing.B) {
				runMicro(b, alg, workers, micro.Config{
					Bench: bench, Length: micro.Short, Txns: benchTxns, PoolSize: benchPool,
				})
			})
		}
	}
}

// figure34Algos is the ordered-competitor set of Figures 3 and 4.
func figure34Algos() []stm.Algorithm {
	return []stm.Algorithm{stm.OUL, stm.OWB, stm.OrderedTL2, stm.STMLite}
}

// BenchmarkFigure3 — Disjoint and RNW1 throughput/abort series across
// thread counts.
func BenchmarkFigure3(b *testing.B) {
	for _, bench := range []micro.Bench{micro.Disjoint, micro.RNW1} {
		for _, workers := range []int{1, 8} {
			for _, alg := range figure34Algos() {
				b.Run(fmt.Sprintf("%v/w%d/%v", bench, workers, alg), func(b *testing.B) {
					runMicro(b, alg, workers, micro.Config{
						Bench: bench, Length: micro.Short, Txns: benchTxns, PoolSize: benchPool, YieldEvery: 8,
					})
				})
			}
		}
	}
}

// BenchmarkFigure4 — RWN and MCAS throughput/abort series.
func BenchmarkFigure4(b *testing.B) {
	for _, bench := range []micro.Bench{micro.RWN, micro.MCAS} {
		for _, workers := range []int{1, 8} {
			for _, alg := range figure34Algos() {
				b.Run(fmt.Sprintf("%v/w%d/%v", bench, workers, alg), func(b *testing.B) {
					runMicro(b, alg, workers, micro.Config{
						Bench: bench, Length: micro.Short, Txns: benchTxns, PoolSize: benchPool, YieldEvery: 8,
					})
				})
			}
		}
	}
}

// BenchmarkFigure5 — abort-cause breakdown for the contributed
// algorithms on a contended RWN workload (fractions reported as
// metrics).
func BenchmarkFigure5(b *testing.B) {
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		b.Run(alg.String(), func(b *testing.B) {
			w := micro.New(micro.Config{
				Bench: micro.RWN, Length: micro.Short, Txns: benchTxns, PoolSize: 1 << 8, YieldEvery: 2,
			})
			var last stm.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				res, err := harness.Exec(alg, 8, w.Txns(), w.Body(), nil)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			for cat, frac := range last.Stats.Breakdown() {
				b.ReportMetric(frac, cat)
			}
			b.ReportMetric(100*last.Stats.AbortRatio(), "aborts%")
		})
	}
}

// stampApp abstracts the Figure 6/7 application drivers.
type stampApp interface {
	Run(r apps.Runner) (stm.Result, error)
	Verify() error
}

func runApp(b *testing.B, build func() stampApp, alg stm.Algorithm, workers int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := build() // fresh shared state per iteration
		b.StartTimer()
		if _, err := a.Run(apps.Runner{Alg: alg, Workers: workers}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := a.Verify(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func figure67Algos() []stm.Algorithm {
	return []stm.Algorithm{stm.Sequential, stm.OUL, stm.OWB}
}

// BenchmarkFigure6 — STAMP execution times (kmeans low/high, genome,
// ssca2, vacation low/high, labyrinth, intruder).
func BenchmarkFigure6(b *testing.B) {
	appsList := []struct {
		name  string
		build func() stampApp
	}{
		{"KmeansLow", func() stampApp {
			cfg := kmeans.LowContention()
			cfg.Points, cfg.Iterations = 512, 2
			return kmeans.New(cfg)
		}},
		{"KmeansHigh", func() stampApp {
			cfg := kmeans.HighContention()
			cfg.Points, cfg.Iterations = 512, 2
			return kmeans.New(cfg)
		}},
		{"Genome", func() stampApp { return genome.New(genome.Config{GeneLength: 1024}) }},
		{"SSCA2", func() stampApp { return ssca2.New(ssca2.Config{Vertices: 256, Edges: 2048}) }},
		{"VacationLow", func() stampApp {
			cfg := vacation.LowContention()
			cfg.Sessions = 1024
			return vacation.New(cfg)
		}},
		{"VacationHigh", func() stampApp {
			cfg := vacation.HighContention()
			cfg.Sessions = 1024
			return vacation.New(cfg)
		}},
		{"Labyrinth", func() stampApp { return labyrinth.New(labyrinth.Config{X: 16, Y: 16, Z: 2, Pairs: 24}) }},
		{"Intruder", func() stampApp { return intruder.New(intruder.Config{Flows: 128}) }},
	}
	for _, app := range appsList {
		for _, alg := range figure67Algos() {
			workers := 4
			if alg == stm.Sequential {
				workers = 1
			}
			b.Run(fmt.Sprintf("%s/%v", app.name, alg), func(b *testing.B) {
				runApp(b, app.build, alg, workers)
			})
		}
	}
}

// BenchmarkFigure7 — PARSEC (blackscholes, swaptions, fluidanimate)
// and SPEC2000 equake execution times.
func BenchmarkFigure7(b *testing.B) {
	appsList := []struct {
		name  string
		build func() stampApp
	}{
		{"Blackscholes", func() stampApp { return blackscholes.New(blackscholes.Config{Options: 1024}) }},
		{"Swaptions", func() stampApp { return swaptions.New(swaptions.Config{Swaptions: 32, Trials: 32}) }},
		{"Fluidanimate", func() stampApp { return fluidanimate.New(fluidanimate.Config{CellsX: 6, CellsY: 6, Steps: 2}) }},
		{"Equake", func() stampApp { return equake.New(equake.Config{Nodes: 300, Steps: 4}) }},
	}
	for _, app := range appsList {
		for _, alg := range figure67Algos() {
			workers := 4
			if alg == stm.Sequential {
				workers = 1
			}
			b.Run(fmt.Sprintf("%s/%v", app.name, alg), func(b *testing.B) {
				runApp(b, app.build, alg, workers)
			})
		}
	}
}

// runSubmitCommit drives one long-lived pipeline with a closed-loop
// single client for b.N transactions, reporting allocations so
// regressions on the Submit→commit path show up in `go test -bench`.
// The body is reused across submissions (closure allocation is the
// caller's business, not the pipeline's); with descriptor recycling
// the amortized cost is the Ticket and its channel — 2 allocs/op.
func runSubmitCommit(b *testing.B, cfg stm.Config) {
	b.Helper()
	p, err := stm.NewPipeline(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	vs := stm.NewVars(benchPool)
	body := func(tx stm.Tx, age int) {
		i := uint64(age) % benchPool
		j := (i + 7) % benchPool
		tx.Write(&vs[j], tx.Read(&vs[i])+1)
	}
	// Warm the lazily-allocated engine metadata (reader-slot arrays)
	// and the descriptor pools so the measured window is steady state.
	warm, err := p.Submit(func(tx stm.Tx, age int) {
		for i := range vs {
			tx.Read(&vs[i])
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := warm.Wait(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := p.Submit(body)
		if err != nil {
			b.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkSubmitCommit — allocation and latency of the streaming
// Submit→commit path for every ordered engine (the zero-alloc hot-path
// target; see DESIGN.md §8). FreshDescriptors variants quantify what
// recycling saves.
func BenchmarkSubmitCommit(b *testing.B) {
	for _, alg := range stm.OrderedAlgorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			runSubmitCommit(b, stm.Config{Algorithm: alg, Workers: 2})
		})
	}
	b.Run("OUL/fresh", func(b *testing.B) {
		runSubmitCommit(b, stm.Config{Algorithm: stm.OUL, Workers: 2, FreshDescriptors: true})
	})
	b.Run("OUL/batch32", func(b *testing.B) {
		p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OUL, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		vs := stm.NewVars(benchPool)
		body := func(tx stm.Tx, age int) {
			i := uint64(age) % benchPool
			tx.Write(&vs[i], tx.Read(&vs[i])+1)
		}
		// Caller-owned tickets, reused batch after batch once resolved.
		tickets := make([]stm.Ticket, 32)
		reqs := make([]stm.Request, len(tickets))
		for i := range reqs {
			reqs[i] = stm.Request{Body: body, Ticket: &tickets[i]}
		}
		var tks []*stm.Ticket
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; {
			k := len(reqs)
			if rem := b.N - n; k > rem {
				k = rem
			}
			var err error
			tks, err = p.SubmitBatch(context.Background(), reqs[:k], tks[:0])
			if err != nil {
				b.Fatal(err)
			}
			for _, tk := range tks {
				if err := tk.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			n += k
		}
	})
}

// BenchmarkSubmitCommitSharded — the same closed-loop path through the
// sharded router (partition-local workload, declared access sets).
func BenchmarkSubmitCommitSharded(b *testing.B) {
	sp, err := shard.New(shard.Config{Shards: 2, Pipeline: stm.Config{Algorithm: stm.OUL, Workers: 2}})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	vs := stm.NewVars(benchPool)
	var byShard [2][]*stm.Var
	for i := range vs {
		s := sp.ShardOf(&vs[i])
		byShard[s] = append(byShard[s], &vs[i])
	}
	// One reusable parameter block: the body reads its target through
	// it, and it is only rewritten after the previous ticket resolved,
	// so the loop allocates nothing beyond the router's own work.
	var target *stm.Var
	body := func(tx stm.Tx, age int) {
		tx.Write(target, tx.Read(target)+1)
	}
	declared := make([]*stm.Var, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i & 1
		target = byShard[s][i%len(byShard[s])]
		declared[0] = target
		tk, err := sp.Submit(stm.Touches(declared...), body)
		if err != nil {
			b.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFigure234 — the thread-scaling shape of Figures 2–4 in
// virtual time on the simulated multicore (commits per k virtual
// cycles reported as a metric; wall time here is simulator speed, not
// the result).
func BenchmarkSimFigure234(b *testing.B) {
	algos := []simcpu.Algo{simcpu.OUL, simcpu.OWB,
		simcpu.OrderedTL2, simcpu.OrderedUndoLogVis, simcpu.STMLite}
	for _, bench := range micro.Benches() {
		traces := simcpu.GenTraces(bench, micro.Short, 4000, benchPool, 7)
		for _, cores := range []int{1, 8} {
			for _, alg := range algos {
				b.Run(fmt.Sprintf("%v/c%d/%v", bench, cores, alg), func(b *testing.B) {
					var res simcpu.Result
					for i := 0; i < b.N; i++ {
						res = simcpu.Simulate(alg, traces, cores, simcpu.DefaultParams())
					}
					b.ReportMetric(res.ThroughputPerKCycle(), "tx/kcycle")
					b.ReportMetric(100*res.AbortRatio(), "aborts%")
				})
			}
		}
	}
}

// BenchmarkAblationReaderSlots — bounded visible-reader array size
// (the paper fixes 40; §8 notes the bound matters).
func BenchmarkAblationReaderSlots(b *testing.B) {
	for _, slots := range []int{2, 8, 40} {
		b.Run(fmt.Sprintf("slots%d", slots), func(b *testing.B) {
			w := micro.New(micro.Config{
				Bench: micro.RNW1, Length: micro.Short, Txns: benchTxns, PoolSize: 1 << 8, YieldEvery: 4,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if _, err := harness.Exec(stm.OUL, 8, w.Txns(), w.Body(), func(c *stm.Config) {
					c.MaxReaders = slots
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLockTable — lock-table size vs aliasing false
// conflicts (the paper maps locks from address LSBs).
func BenchmarkAblationLockTable(b *testing.B) {
	for _, bits := range []uint{6, 10, 16} {
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			w := micro.New(micro.Config{
				Bench: micro.RNW1, Length: micro.Short, Txns: benchTxns, PoolSize: benchPool, YieldEvery: 8,
			})
			var aborts, commits uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				res, err := harness.Exec(stm.OUL, 8, w.Txns(), w.Body(), func(c *stm.Config) {
					c.TableBits = bits
				})
				if err != nil {
					b.Fatal(err)
				}
				aborts += res.Stats.TotalAborts()
				commits += uint64(res.N)
			}
			b.StopTimer()
			if commits > 0 {
				b.ReportMetric(100*float64(aborts)/float64(commits), "aborts%")
			}
		})
	}
}

// BenchmarkAblationWindow — Algorithm 5's run-ahead window (MAX).
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			w := micro.New(micro.Config{
				Bench: micro.RNW1, Length: micro.Short, Txns: benchTxns, PoolSize: benchPool,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if _, err := harness.Exec(stm.OWB, 8, w.Txns(), w.Body(), func(c *stm.Config) {
					c.Window = window
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSigBits — STMLite signature size (the paper
// recommends 32–1024 and uses 64).
func BenchmarkAblationSigBits(b *testing.B) {
	for _, bits := range []uint{64, 256, 1024} {
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			w := micro.New(micro.Config{
				Bench: micro.RWN, Length: micro.Short, Txns: benchTxns, PoolSize: benchPool, YieldEvery: 8,
			})
			var aborts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				res, err := harness.Exec(stm.STMLite, 8, w.Txns(), w.Body(), func(c *stm.Config) {
					c.SigBits = bits
				})
				if err != nil {
					b.Fatal(err)
				}
				aborts += res.Stats.TotalAborts()
			}
			b.StopTimer()
			b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
		})
	}
}
