package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports prints, for every workload and end-to-end metric the
// two reports share, both medians, B's ratio to A (A is the base), the
// metric's bound and a verdict: regressed when B is worse than A by
// more than the bound and both medians are of at least two values,
// unresolved when either report's own reps spread wider than the bound
// or there is one value and so no spread (the difference cannot be told
// from noise), ok otherwise. It reports whether anything regressed.
func compareReports(pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Printf("A = %s (commit %s, %s)\nB = %s (commit %s, %s)\n", pathA, a.Provenance.Commit, a.Provenance.Time, pathB, b.Provenance.Commit, b.Provenance.Time)
	fmt.Printf("%-17s %-20s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	byName := map[string]workloadOut{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	regressed := false
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		if wa.OpsFailed > 0 || wb.OpsFailed > 0 {
			fmt.Printf("%-17s ops_failed A %d, B %d: numbers from a run that failed its oracle carry no claim\n", wa.Name, wa.OpsFailed, wb.OpsFailed)
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.name]
			mb, okB := wb.EndToEnd[d.name]
			if !okA || !okB {
				continue // the workload has no such metric
			}
			r := ratio(mb.Value, ma.Value)
			worse := r - 1
			if d.better == "higher" {
				worse = 1 - r
			}
			spread := max(ratio(ma.Q3-ma.Q1, ma.Value), ratio(mb.Q3-mb.Q1, mb.Value))
			verdict := "ok"
			switch {
			case worse > d.bound && min(ma.N, mb.N) >= 2:
				verdict = "regressed"
				regressed = true
			case worse > d.bound:
				// recovery_ms: one crash a run, so no spread to hold
				// the difference against.
				verdict = "unresolved (one sample)"
			case spread > d.bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-17s %-20s %14.4f %14.4f %9.4f %5.0f%%  %s\n", wa.Name, d.name, ma.Value, mb.Value, r, 100*d.bound, verdict)
		}
	}
	return regressed, nil
}
