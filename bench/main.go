// Command bench is the repository's benchmark: one process that drives
// the same seeded transfer traffic through every layer boundary of the
// stack — engine, pipeline, shard router, WAL, wire, replication —
// using only the layers' public functions, checks every run against
// the sequential fold in age order, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	go run ./bench                         every workload, 3 reps of 5 s each
//	go run ./bench -trace 1                ... plus one traced rep per workload
//	go run ./bench -workload wire          one workload
//	go run ./bench -compare A.json B.json  two reports, metric by metric
//
// BENCHMARK.json runs it one workload at a time as
// `--workload W --seed N --seconds S --trace 0|1`; the last line of
// standard output is then the result object that contract asks for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/orderedstm/ostm/stm"
)

// provenance says where a report's numbers come from.
type provenance struct {
	Host       string `json:"host"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
	Seed       uint64 `json:"seed"`
	Alg        string `json:"alg"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
	Depth      int    `json:"depth"`
}

// commit is the revision the binary was built from when the build
// stamped one (go build does, go run does not), else what .git/HEAD in
// the current directory points at, else "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
			return strings.TrimSpace(string(b)) + "+worktree"
		}
		return name
	}
	return ref + "+worktree"
}

// metricOut is one metric of a report: the median of its reps, their
// quartiles and how many there were.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Values are the per-rep values the median was taken of.
	Values []float64 `json:"values,omitempty"`
}

type workloadOut struct {
	Name         string               `json:"name"`
	OpsAttempted uint64               `json:"ops_attempted"`
	OpsFailed    uint64               `json:"ops_failed"`
	Findings     []string             `json:"findings,omitempty"`
	Reps         int                  `json:"reps"`
	RepSeconds   float64              `json:"rep_seconds"`
	EndToEnd     map[string]metricOut `json:"end_to_end"`
	PerLayer     map[string]metricOut `json:"per_layer"`
	LayerSelfUS  map[string]float64   `json:"layer_self_us_p50,omitempty"`
}

type report struct {
	Provenance provenance         `json:"provenance"`
	Workloads  []workloadOut      `json:"workloads"`
	LayerCost  map[string]float64 `json:"layer_cost,omitempty"` // the ladder-only cost ratios
}

// summarize reports each of defs that res has values for; with zeros,
// also the ones it has none for (a per-layer metric reads zero on a
// workload that bypasses its layer, an end-to-end one is left out).
func summarize(res *result, defs []metricDef, zeros bool) map[string]metricOut {
	out := map[string]metricOut{}
	for _, d := range defs {
		vs := res.values[d.name]
		if len(vs) == 0 && !zeros {
			continue
		}
		q1, med, q3 := quartiles(vs)
		out[d.name] = metricOut{Value: med, Unit: d.unit, Q1: q1, Q3: q3, N: len(vs), Values: vs}
	}
	return out
}

func toOut(res *result) workloadOut {
	w := workloadOut{
		Name:         res.workload,
		OpsAttempted: res.attempted,
		OpsFailed:    res.failures(),
		Findings:     res.findings,
		Reps:         res.reps,
		RepSeconds:   res.repS,
		EndToEnd:     summarize(res, endToEnd, false),
		PerLayer:     summarize(res, perLayer, true),
	}
	if res.trace != nil {
		w.LayerSelfUS = res.trace.layerP50s
	}
	return w
}

func printMetrics(title string, defs []metricDef, ms map[string]metricOut) {
	fmt.Printf("  %s\n", title)
	for _, d := range defs {
		if m, ok := ms[d.name]; ok {
			fmt.Printf("    %-44s %16.4f %-6s q1 %.4f q3 %.4f n %d\n", d.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
}

func printWorkload(w workloadOut, res *result, perLayerToo bool) {
	fmt.Printf("%s: %d reps of %.2f s, ops_attempted %d, ops_failed %d\n", w.Name, w.Reps, w.RepSeconds, w.OpsAttempted, w.OpsFailed)
	for _, f := range w.Findings {
		fmt.Printf("  FINDING: %s\n", f)
	}
	printMetrics("end to end (Config.Obs == nil, no spans)", endToEnd, w.EndToEnd)
	if perLayerToo {
		printMetrics("per layer", perLayer, w.PerLayer)
	}
	if res.trace != nil {
		res.trace.print(w.Name)
	}
}

// contractLine is the object BENCHMARK.json's driver reads off the
// last line of standard output: the gated end-to-end metrics, or with
// the trace everything BENCHMARK.json lists under per_layer, which is
// the other end-to-end metrics (zero where the workload has none) and
// the per-layer ones.
func contractLine(w workloadOut, trace bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	if trace {
		for _, d := range ungatedEndToEnd {
			ms[d.name] = mv{w.EndToEnd[d.name].Value, d.unit}
		}
		for _, d := range perLayer {
			ms[d.name] = mv{w.PerLayer[d.name].Value, d.unit}
		}
	} else {
		for _, d := range gatedEndToEnd {
			ms[d.name] = mv{w.EndToEnd[d.name].Value, d.unit}
		}
	}
	// result.add keeps every value finite, so Marshal cannot fail.
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.OpsFailed == 0, w.OpsAttempted, w.OpsFailed, ms})
	return string(b)
}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred clean-up happens.
func run() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: all of them, the ladder)")
		seed     = flag.Uint64("seed", 1, "inputs are a pure function of (seed, client, index)")
		seconds  = flag.Float64("seconds", 15, "measured seconds per workload, split into reps")
		traceN   = flag.Int("trace", 0, "1: also run the traced pass and report the per-layer metrics")
		outPath  = flag.String("out", filepath.Join(".bench_build", "report.json"), "where the JSON report goes")
		spanPath = flag.String("spans", filepath.Join(".bench_build", "spans.jsonl"), "where the traced pass writes its spans")
		compare  = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
	)
	alg := stm.OWB
	flag.TextVar(&alg, "alg", stm.OWB, "engine; OWB is the one paper engine that passes the oracle at GOMAXPROCS>=2")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		regressed, err := compareReports(flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		if _, ok := specs[name]; !ok {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
	}
	single := len(names) == 1
	trace := *traceN == 1

	// Shrink R before T, never T below 3 s.
	reps := min(3, max(1, int(*seconds/3)))
	o := issueOpts(reps, time.Duration(*seconds/float64(reps)*float64(time.Second)))
	o.traced = trace
	if single && trace {
		// The contract's time is the same with and without the trace:
		// the traced rep takes the place of one untraced rep.
		o.reps = max(1, reps-1)
	}

	w := min(runtime.NumCPU(), 4)
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	total := o.warm + time.Duration(o.reps)*o.rep + o.probe
	e := env{
		alg: alg, seed: *seed, workers: w, clients: w, depth: 32, dir: dir,
		// Room for 4 M ages a second, several times what any rung does.
		maxAges: int(4e6 * (total.Seconds() + 2)),
	}
	host, _ := os.Hostname()
	rep := report{Provenance: provenance{
		Host: host, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Time: time.Now().UTC().Format(time.RFC3339), Seed: *seed, Alg: alg.String(),
		Workers: w, Clients: w, Depth: e.depth,
	}}
	p := rep.Provenance
	fmt.Printf("bench: host=%s cpus=%d gomaxprocs=%d go=%s commit=%s time=%s seed=%d alg=%s W=C=%d D=%d\n",
		p.Host, p.CPUs, p.GOMAXPROCS, p.Go, p.Commit, p.Time, p.Seed, p.Alg, w, e.depth)

	if trace {
		if err := os.MkdirAll(filepath.Dir(*spanPath), 0o755); err != nil {
			return fail(err)
		}
		if err := os.Remove(*spanPath); err != nil && !os.IsNotExist(err) {
			return fail(err)
		}
	}
	failed := false
	var last workloadOut
	for _, name := range names {
		var res *result
		var err error
		if sp := specs[name]; sp.batch {
			res, err = runBatch(e, o)
		} else {
			res, err = runStream(e, sp, o)
		}
		if err != nil {
			return fail(err)
		}
		if res.trace != nil {
			if err := writeSpans(*spanPath, res.trace.spans); err != nil {
				return fail(err)
			}
		}
		last = toOut(res)
		rep.Workloads = append(rep.Workloads, last)
		printWorkload(last, res, trace || !single)
		failed = failed || last.OpsFailed > 0
	}
	if !single {
		rep.LayerCost = costRatios(rep.Workloads)
	}
	if err := writeReport(*outPath, rep); err != nil {
		return fail(err)
	}
	if single {
		fmt.Println(contractLine(last, trace))
	}
	if failed {
		return 1
	}
	return 0
}

// costRatios prints and returns each layer's cost as a rung-to-rung
// ratio of tx_per_s; only a run of every workload has both rungs.
func costRatios(ws []workloadOut) map[string]float64 {
	rate := map[string]float64{}
	for _, w := range ws {
		rate[w.Name] = w.EndToEnd["tx_per_s"].Value
	}
	out := map[string]float64{}
	fmt.Println("layer cost (tx_per_s of one rung over the next)")
	for _, c := range ladderOnly {
		out[c.name] = ratio(rate[c.numerator], rate[c.denominator])
		fmt.Printf("  %-18s %8.3f ratio  = %s %.0f 1/s / %s %.0f 1/s\n", c.name,
			out[c.name], c.numerator, rate[c.numerator], c.denominator, rate[c.denominator])
	}
	return out
}

func writeReport(path string, rep report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
