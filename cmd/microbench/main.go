// Command microbench regenerates the paper's micro-benchmark figures
// (Figures 2–5) on the real engines: throughput and abort series for
// DisjointBench, ReadNWrite1, ReadWriteN and MCASBench across
// algorithms and thread counts, plus the abort-cause breakdown.
//
// Examples:
//
//	microbench -figure 2 -txns 100000
//	microbench -figure 3 -bench Disjoint -threads 1,2,4,8
//	microbench -figure 5
//
// Note: on a single-hardware-thread host the wall-clock series cannot
// show parallel speedup; use simbench for the thread-scaling shape in
// virtual time (see DESIGN.md §1).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/orderedstm/ostm/internal/harness"
	"github.com/orderedstm/ostm/internal/micro"
	"github.com/orderedstm/ostm/stm"
)

func main() {
	var (
		figure  = flag.Int("figure", 2, "paper figure to regenerate (2, 3, 4 or 5)")
		benchF  = flag.String("bench", "", "restrict to one bench (Disjoint, RNW1, RWN, MCAS)")
		lengthF = flag.String("length", "", "restrict to one length class (Short, Long, Heavy)")
		threads = flag.String("threads", "1,2,4,8", "comma-separated worker counts")
		txns    = flag.Int("txns", 50000, "transactions per run (the paper uses 500000)")
		pool    = flag.Int("pool", 1<<18, "shared word-pool size")
		algosF  = flag.String("algos", "", "comma-separated algorithms (default: figure's set)")
		yield   = flag.Int("yield", 0, "insert a scheduler yield every N accesses (single-core hosts)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonF   = flag.Bool("json", false, "emit machine-readable JSON (one object per table; overrides -csv)")
	)
	flag.Parse()
	format := formatTable
	if *csv {
		format = formatCSV
	}
	if *jsonF {
		format = formatJSON
	}
	workerList, err := parseInts(*threads)
	if err != nil {
		fatal(err)
	}
	benches, lengths, err := selection(*benchF, *lengthF)
	if err != nil {
		fatal(err)
	}
	switch *figure {
	case 2:
		figure2(benches, lengths, workerList, *txns, *pool, *algosF, *yield, format)
	case 3, 4:
		if *benchF == "" {
			if *figure == 3 {
				benches = []micro.Bench{micro.Disjoint, micro.RNW1}
			} else {
				benches = []micro.Bench{micro.RWN, micro.MCAS}
			}
		}
		figure34(benches, lengths, workerList, *txns, *pool, *algosF, *yield, format)
	case 5:
		figure5(workerList, *txns, *pool, *yield, format)
	default:
		fatal(fmt.Errorf("unknown figure %d", *figure))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "microbench:", err)
	os.Exit(1)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func selection(benchF, lengthF string) ([]micro.Bench, []micro.Length, error) {
	benches := micro.Benches()
	if benchF != "" {
		b, err := micro.ParseBench(benchF)
		if err != nil {
			return nil, nil, err
		}
		benches = []micro.Bench{b}
	}
	lengths := micro.Lengths()
	if lengthF != "" {
		l, err := micro.ParseLength(lengthF)
		if err != nil {
			return nil, nil, err
		}
		lengths = []micro.Length{l}
	}
	return benches, lengths, nil
}

func parseAlgos(s string, def []stm.Algorithm) ([]stm.Algorithm, error) {
	if s == "" {
		return def, nil
	}
	var out []stm.Algorithm
	for _, part := range strings.Split(s, ",") {
		a, err := stm.ParseAlgorithm(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// figure2Algos is the full competitor set of Figure 2 (ordered,
// unordered and sequential).
func figure2Algos() []stm.Algorithm {
	return []stm.Algorithm{
		stm.TL2, stm.OrderedTL2, stm.NOrec, stm.OrderedNOrec,
		stm.UndoLogVis, stm.OrderedUndoLogVis, stm.UndoLogInvis, stm.OrderedUndoLogInvis,
		stm.OUL, stm.OWB, stm.STMLite, stm.Sequential,
	}
}

func runOne(alg stm.Algorithm, workers int, w *micro.Workload) (stm.Result, error) {
	w.Reset()
	return harness.Exec(alg, workers, w.Txns(), w.Body(), nil)
}

// format selects the output encoding shared by every figure.
type format int

const (
	formatTable format = iota
	formatCSV
	formatJSON
)

func emit(t *harness.Table, f format) {
	switch f {
	case formatCSV:
		t.WriteCSV(os.Stdout)
		fmt.Println()
	case formatJSON:
		if err := t.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		t.Render(os.Stdout)
		fmt.Println()
	}
}

// figure2 prints peak throughput (over the thread sweep) for every
// competitor, one table per length class (Figure 2a–c).
func figure2(benches []micro.Bench, lengths []micro.Length, workers []int, txns, pool int, algosF string, yield int, f format) {
	algos, err := parseAlgos(algosF, figure2Algos())
	if err != nil {
		fatal(err)
	}
	for _, l := range lengths {
		tab := harness.NewTable(
			fmt.Sprintf("Figure 2 — peak throughput (Tx/ms), %v transactions", l),
			append([]string{"algorithm"}, benchNames(benches)...)...)
		for _, alg := range algos {
			row := []string{alg.String()}
			for _, b := range benches {
				w := micro.New(micro.Config{Bench: b, Length: l, Txns: txns, PoolSize: pool, YieldEvery: yield})
				best := 0.0
				for _, wk := range workers {
					if alg == stm.Sequential && wk > 1 {
						continue
					}
					res, err := runOne(alg, wk, w)
					if err != nil {
						fatal(err)
					}
					if th := res.Throughput() / 1000; th > best {
						best = th
					}
				}
				row = append(row, fmt.Sprintf("%.1f", best))
			}
			tab.Add(row...)
		}
		emit(tab, f)
	}
}

func benchNames(bs []micro.Bench) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.String()
	}
	return out
}

// figure34 prints throughput-vs-threads and abort%-vs-threads tables
// (Figures 3 and 4).
func figure34(benches []micro.Bench, lengths []micro.Length, workers []int, txns, pool int, algosF string, yield int, f format) {
	ordered := append(stm.OrderedAlgorithms(), stm.Sequential)
	algos, err := parseAlgos(algosF, ordered)
	if err != nil {
		fatal(err)
	}
	for _, b := range benches {
		for _, l := range lengths {
			thr := harness.NewTable(
				fmt.Sprintf("%v-%v — throughput (k Tx/sec) vs threads", b, l),
				append([]string{"threads"}, algoNames(algos)...)...)
			ab := harness.NewTable(
				fmt.Sprintf("%v-%v — aborts %% vs threads", b, l),
				append([]string{"threads"}, algoNames(algos)...)...)
			for _, wk := range workers {
				trow := []string{harness.I(wk)}
				arow := []string{harness.I(wk)}
				for _, alg := range algos {
					w := micro.New(micro.Config{Bench: b, Length: l, Txns: txns, PoolSize: pool, YieldEvery: yield})
					res, err := runOne(alg, wk, w)
					if err != nil {
						fatal(err)
					}
					trow = append(trow, harness.KTxPerSec(res))
					arow = append(arow, harness.AbortPct(res))
				}
				thr.Add(trow...)
				ab.Add(arow...)
			}
			emit(thr, f)
			if b != micro.Disjoint {
				emit(ab, f)
			}
		}
	}
}

func algoNames(as []stm.Algorithm) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

// figure5 prints the abort-cause breakdown for OWB and OUL
// (Figure 5a–c) and total abort percentages (Figure 5d).
func figure5(workers []int, txns, pool int, yield int, f format) {
	if yield == 0 {
		yield = 4 // single-core hosts need interleaving for any aborts
	}
	peak := workers[len(workers)-1]
	cats := []string{"read-after-write", "write-after-write", "cascade", "locked-write", "validation", "other"}
	combos := []struct {
		b micro.Bench
		l micro.Length
	}{
		{micro.RNW1, micro.Short}, {micro.RNW1, micro.Long},
		{micro.RWN, micro.Short}, {micro.RWN, micro.Long},
		{micro.MCAS, micro.Short}, {micro.MCAS, micro.Long},
	}
	totals := harness.NewTable("Figure 5d — aborts % at peak threads",
		"workload", "OWB", "OUL")
	totalRows := map[string][]string{}
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		tab := harness.NewTable(
			fmt.Sprintf("Figure 5 — abort breakdown, %v at %d threads", alg, peak),
			append([]string{"workload"}, cats...)...)
		for _, c := range combos {
			w := micro.New(micro.Config{Bench: c.b, Length: c.l, Txns: txns, PoolSize: pool, YieldEvery: yield})
			res, err := runOne(alg, peak, w)
			if err != nil {
				fatal(err)
			}
			bd := res.Stats.Breakdown()
			name := fmt.Sprintf("%v-%v", c.b, c.l)
			row := []string{name}
			for _, cat := range cats {
				row = append(row, fmt.Sprintf("%.2f", bd[cat]))
			}
			tab.Add(row...)
			totalRows[name] = append(totalRows[name], harness.AbortPct(res))
		}
		emit(tab, f)
	}
	for _, c := range combos {
		name := fmt.Sprintf("%v-%v", c.b, c.l)
		totals.Add(append([]string{name}, totalRows[name]...)...)
	}
	emit(totals, f)
}
