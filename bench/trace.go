package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/orderedstm/ostm/stm/obs"
)

// The traced pass looks at one transaction from the outside in. The
// program already stamps sampled ages into its obs.TraceRing at
// submit, execute, commit, durable and resolve; the harness stamps the
// same ages at the client (encode, the call into the layer, the
// acknowledgement) on the same clock. Joined by age they give one span
// tree per sampled transaction. No program change: spans inside the
// layers are a later issue's work.

// span is one line of the span file.
type span struct {
	TraceID  uint64 `json:"trace_id"` // the transaction's age
	Span     string `json:"span"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"` // UnixNano
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

const rootSpan = "client.tx"

// stages is the program's view of one sampled age.
type stages struct {
	submit, execute, commit, durable, resolve int64
}

// ringStages groups the ring's events by age, keeping the first
// execute (later ones are retries) and dropping ages whose events are
// incomplete or out of order — the ring wraps, and a reader racing a
// writer can see a torn event.
func ringStages(ring *obs.TraceRing) map[uint64]*stages {
	byAge := map[uint64]*stages{}
	for _, ev := range ring.Events() {
		s := byAge[ev.Age]
		if s == nil {
			s = &stages{}
			byAge[ev.Age] = s
		}
		switch ev.Stage {
		case obs.StageSubmit.String():
			s.submit = ev.TS
		case obs.StageExecute.String():
			if s.execute == 0 || ev.TS < s.execute {
				s.execute = ev.TS
			}
		case obs.StageCommit.String():
			s.commit = ev.TS
		case obs.StageDurable.String():
			s.durable = ev.TS
		case obs.StageResolve.String():
			s.resolve = ev.TS
		}
	}
	for age, s := range byAge {
		ok := s.submit != 0 && s.submit <= s.execute && s.execute <= s.commit && s.commit <= s.resolve
		if s.durable != 0 && (s.durable < s.commit || s.durable > s.resolve) {
			ok = false
		}
		if !ok {
			delete(byAge, age)
		}
	}
	return byAge
}

// traceReport is what the traced pass adds to a workload's result.
type traceReport struct {
	spans     []span
	traces    int
	self      map[string]*hist // span name -> self time per trace, ns
	rootDur   hist             // client.tx duration per trace, ns
	clipped   hist             // child time outside its root or under an earlier sibling, ns
	inverted  int              // spans that ended before they started
	ingress   hist             // client write -> StageSubmit
	egress    hist             // StageResolve -> client ack
	queue     hist             // StageSubmit -> first StageExecute
	execute   hist             // first StageExecute -> StageCommit
	durable   hist             // StageCommit -> StageDurable
	resolve   hist             // commit (or durable) -> StageResolve
	sumP50    float64          // sum of the layers' self-time p50s, us
	rootP50   float64          // client.tx p50, us
	residual  float64          // (sumP50 - rootP50) / rootP50
	layerP50s map[string]float64
}

// assemble joins the clients' records with the ring's stages and
// accounts for every nanosecond of each root span: a child's self time
// is the part of the root it covers that no earlier-starting sibling
// covers, what no child covers is the root's own, so children plus
// root self time equal the root's duration by construction — what the
// check reports is how much child time had to be clipped to make that
// so, and whether the layers' medians still add up to the root's.
func assemble(st *stack) *traceReport {
	tr := &traceReport{self: map[string]*hist{}, layerP50s: map[string]float64{}}
	var byAge map[uint64]*stages
	if st.sp == nil {
		byAge = ringStages(st.ring)
		for _, s := range byAge {
			tr.queue.add(s.execute - s.submit)
			tr.execute.add(s.commit - s.execute)
			end := s.commit
			if s.durable != 0 {
				tr.durable.add(s.durable - s.commit)
				end = s.durable
			}
			tr.resolve.add(s.resolve - end)
		}
	}
	layer := st.layer()
	wake := "client.wake"
	if st.srv != nil {
		wake = "serve.egress"
	}
	for _, c := range st.clients {
		n := c.nspans
		if n > len(c.spans) {
			n = len(c.spans)
		}
		for _, r := range c.spans[:n] {
			root := span{r.age, rootSpan, "", unixOf(r.tEnc), unixOf(r.tAck), st.spec.name}
			kids := []span{
				{r.age, "client.encode", rootSpan, unixOf(r.tEnc), unixOf(r.t0), st.spec.name},
				{r.age, layer + ".submit", rootSpan, unixOf(r.t0), unixOf(r.t1), st.spec.name},
			}
			if st.sp != nil {
				// The shards' rings speak local ages; between the call
				// returning and the ticket resolving the router is opaque
				// from outside.
				kids = append(kids, span{r.age, "shard.commit", rootSpan, unixOf(r.t1), unixOf(r.tAck), st.spec.name})
			} else {
				s := byAge[r.age]
				if s == nil {
					continue // its stages fell off the ring
				}
				if st.srv != nil {
					from := unixOf(r.t1)
					if s.submit < from {
						from = s.submit
					}
					kids = append(kids, span{r.age, "serve.ingress", rootSpan, from, s.submit, st.spec.name})
					tr.ingress.add(s.submit - unixOf(r.t0))
				}
				kids = append(kids,
					span{r.age, "pipeline.queue", rootSpan, s.submit, s.execute, st.spec.name},
					span{r.age, "engine.execute", rootSpan, s.execute, s.commit, st.spec.name})
				end := s.commit
				if s.durable != 0 {
					kids = append(kids, span{r.age, "wal.durable", rootSpan, s.commit, s.durable, st.spec.name})
					end = s.durable
				}
				kids = append(kids,
					span{r.age, "pipeline.resolve", rootSpan, end, s.resolve, st.spec.name},
					span{r.age, wake, rootSpan, s.resolve, unixOf(r.tAck), st.spec.name})
				tr.egress.add(unixOf(r.tAck) - s.resolve)
			}
			tr.account(root, kids)
		}
	}
	names := make([]string, 0, len(tr.self))
	for name := range tr.self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p50 := tr.self[name].quantile(0.5) / 1e3
		tr.layerP50s[name] = p50
		tr.sumP50 += p50
	}
	tr.rootP50 = tr.rootDur.quantile(0.5) / 1e3
	if tr.rootP50 > 0 {
		tr.residual = (tr.sumP50 - tr.rootP50) / tr.rootP50
	}
	return tr
}

// account attributes the root's duration to its children and itself.
func (tr *traceReport) account(root span, kids []span) {
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	cursor, covered, clipped := root.StartNS, int64(0), int64(0)
	selfOf := map[string]int64{}
	for _, k := range kids {
		if k.EndNS < k.StartNS {
			tr.inverted++
			continue
		}
		from, to := max(k.StartNS, cursor), min(k.EndNS, root.EndNS)
		self := max(to-from, 0)
		selfOf[k.Span] += self
		covered += self
		clipped += (k.EndNS - k.StartNS) - self
		cursor = max(cursor, to)
	}
	dur := root.EndNS - root.StartNS
	selfOf[rootSpan] = dur - covered
	for name, ns := range selfOf {
		h := tr.self[name]
		if h == nil {
			h = &hist{}
			tr.self[name] = h
		}
		h.add(ns)
	}
	tr.rootDur.add(dur)
	tr.clipped.add(clipped)
	tr.traces++
	tr.spans = append(tr.spans, root)
	tr.spans = append(tr.spans, kids...)
}

// print reports each layer's self-time p50 and the accounting check.
func (tr *traceReport) print(workload string) {
	fmt.Printf("  trace %-17s %d sampled transactions, client.tx p50 %.2f us\n", workload, tr.traces, tr.rootP50)
	names := make([]string, 0, len(tr.layerP50s))
	for name := range tr.layerP50s {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("    self %-18s p50 %10.2f us\n", name, tr.layerP50s[name])
	}
	verdict := "ok"
	if tr.residual > 0.10 || tr.residual < -0.10 {
		verdict = "outside 10%"
	}
	fmt.Printf("    accounting: self p50s sum to %.2f us vs client.tx p50 %.2f us, residual %+.1f%% (%s); clipped child time p50 %.0f ns, inverted spans %d\n",
		tr.sumP50, tr.rootP50, 100*tr.residual, verdict, tr.clipped.quantile(0.5), tr.inverted)
}

// writeSpans appends the spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
