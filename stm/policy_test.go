package stm

import "testing"

// runPolicy feeds the mode policy epochs whose wall time depends only
// on the mode (direct, speculative) and returns the mode of every
// epoch, starting from the policy's initial direct mode.
func runPolicy(epochs int, directNs, specNs int64, idle bool) []bool {
	p := newModePolicy()
	modes := make([]bool, epochs)
	direct := true
	for i := range modes {
		modes[i] = direct
		ns := specNs
		if direct {
			ns = directNs
		}
		direct = p.next(direct, ns, idle)
	}
	return modes
}

// TestModePolicy drives the policy with synthetic epoch times. It must
// settle in the faster mode within two epochs from its direct start,
// and within probeMax+1 after the rates swap; once settled it must keep
// probing the other mode at least once in every probeMax+1 epochs; and
// at equal rates it must never leave its settled mode for more than a
// probe, with probes that grow sparse; and idle epochs must not make a
// probe win.
func TestModePolicy(t *testing.T) {
	const epochs = 4000
	count := func(modes []bool, direct bool) (n int) {
		for _, m := range modes {
			if m == direct {
				n++
			}
		}
		return n
	}
	// probesSpaced checks that the other mode shows up at least once in
	// every window of probeMax+1 epochs after the first few.
	probesSpaced := func(t *testing.T, modes []bool, settled bool) {
		t.Helper()
		gap := 0
		for i, m := range modes {
			if m == settled {
				if gap++; gap > probeMax+1 {
					t.Fatalf("no probe of the other mode in the %d epochs before epoch %d", gap, i)
				}
				continue
			}
			gap = 0
		}
	}

	t.Run("speculation faster", func(t *testing.T) {
		modes := runPolicy(epochs, 1000, 500, false)
		for i := 1; i < epochs; i++ {
			if modes[i] && (i < 2 || modes[i-1]) {
				t.Fatalf("epoch %d runs directly after epoch %d did (or before the probe settled)", i, i-1)
			}
		}
		if n := count(modes[2:], true); n > epochs/probeMax+8 {
			t.Fatalf("%d direct epochs after settling, want at most %d", n, epochs/probeMax+8)
		}
		probesSpaced(t, modes[2:], false)
	})

	t.Run("direct faster", func(t *testing.T) {
		modes := runPolicy(epochs, 500, 1000, false)
		if n := count(modes, false); n > epochs/probeMax+8 {
			t.Fatalf("%d speculative epochs, want at most %d", n, epochs/probeMax+8)
		}
		for i := 1; i < epochs; i++ {
			if !modes[i] && !modes[i-1] {
				t.Fatalf("epochs %d and %d both speculative: a lost probe did not go back", i-1, i)
			}
		}
		probesSpaced(t, modes, true)
	})

	t.Run("rates swap", func(t *testing.T) {
		p := newModePolicy()
		direct := true
		for i := 0; i < 200; i++ { // settle direct, probes at their sparsest
			direct = p.next(direct, 500+500*b2i(!direct), false)
		}
		// Now speculation is twice as fast. The next probe comes within
		// probeMax settled epochs and wins; then the mode holds.
		swapped, after := -1, 0
		for i := 0; i < 2*probeMax; i++ {
			direct = p.next(direct, 500+500*b2i(direct), false)
			switch {
			case !direct && swapped < 0:
				swapped = i
			case direct && swapped >= 0:
				after++ // a probe back
			}
		}
		if swapped < 0 || swapped > probeMax+1 {
			t.Fatalf("speculation became faster but the policy switched after %d epochs, want at most %d", swapped, probeMax+1)
		}
		if after > 8 {
			t.Fatalf("%d direct epochs after settling speculation, want probes only", after)
		}
	})

	t.Run("equal rates", func(t *testing.T) {
		modes := runPolicy(epochs, 700, 700, false)
		switches := 0
		for i := 1; i < epochs; i++ {
			if modes[i] != modes[i-1] {
				switches++
				if !modes[i] && i+1 < epochs && !modes[i+1] {
					t.Fatalf("equal rates settled speculation at epoch %d", i)
				}
			}
		}
		// Two switches per probe; probes double their spacing up to
		// probeMax: log2(probeMax/probeMin) early ones, then one per
		// probeMax+1 epochs.
		if limit := 2 * (epochs/(probeMax+1) + 8); switches > limit {
			t.Fatalf("%d switches over %d epochs at equal rates, want at most %d", switches, epochs, limit)
		}
		probesSpaced(t, modes, true)
	})

	t.Run("idle epochs", func(t *testing.T) {
		// Every epoch idles. Idle time only stretches an epoch, so an
		// idle settled epoch is no bar: speculation's probes lose even
		// when faster, the policy stays direct and keeps probing.
		modes := runPolicy(epochs, 1000, 500, true)
		if n := count(modes, false); n == 0 || n > epochs/probeMax+8 {
			t.Fatalf("%d speculative epochs of %d idle ones, want between 1 and %d", n, epochs, epochs/probeMax+8)
		}
		// An idle probe that beats a clean settled epoch wins.
		p := newModePolicy()
		if p.next(true, 1000, false) || p.next(false, 500, true) {
			t.Fatal("an idle probe twice as fast as the clean settled epoch lost")
		}
	})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
