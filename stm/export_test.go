package stm

// Hooks into the run-loop's execution modes (mode.go) for the tests of
// package stm_test.

// PinSpeculative keeps p's run-loop in speculative mode for good, for
// tests that assert speculation: aborts, retries, window movement. Call
// it before the first submission.
func PinSpeculative(p *Pipeline) { p.l.pinSpeculative() }

// ForceModeBoundaries makes every pipeline built until the returned
// function is called switch its execution mode at seeded ages, every 1
// to 64 commits, instead of by its policy (cooperative engines only).
// Not for parallel tests: it sets a package-level hook.
func ForceModeBoundaries(seed uint64) (restore func()) {
	pipelineHook = func(l *loop) {
		if l.modal != nil {
			seed = seed*0x9E3779B97F4A7C15 + 1 // a different draw per pipeline
			l.modes.force = newForcing(seed, l.base)
		}
	}
	return func() { pipelineHook = nil }
}

// ModeCounts returns how many of p's commits ran directly and how
// many times its run-loop switched mode.
func ModeCounts(p *Pipeline) (direct, switches uint64) {
	return p.l.modes.directN.Load(), p.l.modes.flips.Load()
}
