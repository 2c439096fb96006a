package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

func testEnv(t *testing.T) env {
	t.Helper()
	return env{alg: stm.OWB, seed: 7, workers: 2, clients: 2, depth: 32, dir: t.TempDir(), maxAges: 1 << 22}
}

// testOpts is the issue's measurement at 0.2 s reps.
func testOpts() runOpts {
	return runOpts{
		reps: 1, rep: 200 * time.Millisecond, warm: 50 * time.Millisecond, probe: 20 * time.Millisecond,
		setups: 1, traced: true, probeTrips: 100, crashTxns: 10000, batchTxns: 2000,
	}
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// TestContractMatchesCatalogue holds BENCHMARK.json and metrics.go in
// step: same workloads, same metric names, units, directions, bounds.
func TestContractMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), catalogue %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if _, ok := specs[w.name]; !ok {
			t.Errorf("workload %q has no spec", w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s: bound differs from the catalogue's %v", d.name, d.bound)
			case bounded && (d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, gatedEndToEnd, true)
	check("per_layer", c.PerLayer, slices.Concat(ungatedEndToEnd, perLayer), false)
}

// TestEveryWorkloadReportsEveryMetric runs each workload end to end at
// 0.2 s reps, traced pass included: it must pass its own oracle, print
// every catalogue metric and nothing else, and never report a zero
// end-to-end metric.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	e := testEnv(t)
	for _, w := range workloads {
		var res *result
		var err error
		if sp := specs[w.name]; sp.batch {
			res, err = runBatch(e, testOpts())
		} else {
			res, err = runStream(e, sp, testOpts())
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.attempted == 0 || res.failures() != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.attempted, res.failures(), res.findings)
		}
		known := map[string]bool{}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				known[d.name] = true
			}
		}
		for name := range res.values {
			if !known[name] {
				t.Errorf("%s reports %q, which the catalogue does not name", w.name, name)
			}
		}
		out := toOut(res)
		has := map[string]bool{"setup_s": true, "tx_per_s": true, "alloc_bytes_per_tx": true}
		switch {
		case specs[w.name].batch:
			has["speedup_vs_seq"] = true
		default:
			has["commit_p50_us"], has["commit_p95_us"], has["rtt_p50_us"] = true, true, true
			has["recovery_ms"] = w.name == "durable"
		}
		for _, d := range endToEnd {
			m, ok := out.EndToEnd[d.name]
			if ok != has[d.name] || ok && (m.N == 0 || m.Value <= 0) {
				t.Errorf("%s: end-to-end metric %s: reported %v (want %v), %v from %d values; one a workload has is never zero", w.name, d.name, ok, has[d.name], m.Value, m.N)
			}
		}
		if !specs[w.name].batch {
			if res.trace == nil || res.trace.traces == 0 {
				t.Errorf("%s: the traced pass produced no spans", w.name)
			} else if math.Abs(res.trace.rootDur.quantile(0.5)) == 0 {
				t.Errorf("%s: zero-length root spans", w.name)
			}
		}
		for _, trace := range []bool{false, true} {
			var line struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			dec := json.NewDecoder(strings.NewReader(contractLine(out, trace)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: result line lacks one of correct, attempted, failed", w.name)
			}
			want := gatedEndToEnd
			if trace {
				want = slices.Concat(ungatedEndToEnd, perLayer)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s: result line (trace %v) has %d metrics, want %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := line.Metrics[d.name]; !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.unit {
					t.Errorf("%s: result line (trace %v) lacks %s in %s", w.name, trace, d.name, d.unit)
				}
			}
		}
	}
}

// TestVerifierFlagsCorruption: a checker that cannot fail is not a
// checker. Take a clean run, then lie to the verifier one way at a
// time.
func TestVerifierFlagsCorruption(t *testing.T) {
	e := testEnv(t)
	sp := specs["stream-contended"]
	st, err := buildStack(e, sp, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	drive(st, 0, 50*time.Millisecond, 1, nil)
	if err := st.drain(); err != nil {
		t.Fatal(err)
	}
	total := st.submitted()
	state := st.bank.balances()
	run := func() verdict {
		return verify(st.clients, st.inputs, sp.accounts, st.bank.results, total, []claim{{"final", total, state}})
	}
	if v := run(); v.failed() != 0 || v.acked != total || total < 1000 {
		t.Fatalf("clean run: %d of %d failed, %d acknowledged, %v", v.failed(), v.attempted, v.acked, v.fatal)
	}

	ages := st.clients[0].ages
	mid := st.clients[0].next / 2

	ages[mid], ages[mid+1] = ages[mid+1], ages[mid]
	if v := run(); v.disorder == 0 || v.failed() == 0 {
		t.Errorf("swapped ages on one client went unnoticed: %+v", v)
	}
	ages[mid], ages[mid+1] = ages[mid+1], ages[mid]

	st.bank.results[ages[mid]] ^= 1
	if v := run(); v.mismatched != 1 || v.failed() != 1 {
		t.Errorf("an altered per-ticket result: mismatched %d, failed %d, want 1 and 1", v.mismatched, v.failed())
	}
	st.bank.results[ages[mid]] ^= 1

	state[3] ^= 1 << 7
	if v := run(); len(v.fatal) == 0 || v.failed() != v.attempted {
		t.Errorf("a flipped state word must fail every operation: %+v", v)
	}
	state[3] ^= 1 << 7

	keep := ages[mid]
	ages[mid] = ages[mid-1]
	if v := run(); len(v.fatal) == 0 {
		t.Errorf("an age acknowledged twice went unnoticed: %+v", v)
	}
	ages[mid] = total + 5
	if v := run(); len(v.fatal) == 0 {
		t.Errorf("a gap in the acknowledged ages went unnoticed: %+v", v)
	}
	ages[mid] = keep

	if v := run(); v.failed() != 0 {
		t.Fatalf("restored run fails: %+v", v)
	}
}

// TestTruncateLogCutsAtDurable: the crash helper must leave exactly
// the ages below Durable(), whether the cut falls inside a segment or
// on a boundary between two.
func TestTruncateLogCutsAtDurable(t *testing.T) {
	payload := []byte("twenty bytes payload")
	for _, durable := range []uint64{0, 1, 37, 40, 80, 100, 150} {
		dir := filepath.Join(t.TempDir(), "log")
		// Sync policy none: Durable() only moves at Sync, so the tail
		// appended after it is in the files but not durable.
		w, err := wal.Create(dir, 0, wal.Options{SegmentBytes: 40 * wal.FrameSize(payload)})
		if err != nil {
			t.Fatal(err)
		}
		for age := uint64(0); age < 150; age++ {
			if err := w.Append(age, payload); err != nil {
				t.Fatal(err)
			}
			if age+1 == durable {
				if err := w.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := w.Durable(); got != durable {
			t.Fatalf("durable = %d, want %d", got, durable)
		}
		clone := dir + "-crash"
		if err := copyLog(dir, clone); err != nil {
			t.Fatal(err)
		}
		if err := truncateLog(clone, durable); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := wal.Recover(clone)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Next() != durable || rec.Truncated() {
			t.Errorf("durable %d: recovered next %d, torn tail %v; want a clean cut at %d", durable, rec.Next(), rec.Truncated(), durable)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, med, q3)
	}
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 10)
	}
	for _, q := range []float64{0.5, 0.95, 0.999} {
		if got, want := h.quantile(q), q*1e6; math.Abs(got-want) > 0.01*want {
			t.Errorf("hist quantile %v = %v, want %v within 1%%", q, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(rate, spread float64, n int) report {
		w := workloadOut{Name: "stream-uniform", EndToEnd: map[string]metricOut{}}
		for _, d := range endToEnd {
			w.EndToEnd[d.name] = metricOut{Value: 100, Unit: d.unit, Q1: 100, Q3: 100, N: 3}
		}
		w.EndToEnd["tx_per_s"] = metricOut{Value: rate, Unit: "1/s", Q1: rate - spread/2, Q3: rate + spread/2, N: n}
		return report{Workloads: []workloadOut{w}}
	}
	write := func(name string, r report) string {
		p := filepath.Join(t.TempDir(), name)
		if err := writeReport(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var bound float64
	for _, d := range endToEnd {
		if d.name == "tx_per_s" {
			bound = d.bound
		}
	}
	a := write("a.json", mk(1000, 10, 3))
	for _, c := range []struct {
		b         report
		regressed bool
	}{
		{mk(1000*(1-bound/2), 10, 3), false},  // worse, inside the bound
		{mk(1000*(1-bound*1.5), 10, 3), true}, // worse by more than the bound
		{mk(1000*(1-bound*1.5), 0, 1), false}, // the same from one sample: no spread to hold it against, unresolved
		{mk(1200, 10, 3), false},              // better
		{mk(990, 1000*bound*2, 3), false},     // spread wider than the bound: unresolved, not regressed
	} {
		got, err := compareReports(a, write("b.json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.regressed {
			t.Errorf("tx_per_s %v vs 1000: regressed = %v, want %v", c.b.Workloads[0].EndToEnd["tx_per_s"].Value, got, c.regressed)
		}
	}
}
