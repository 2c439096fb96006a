//go:build race

package ordertest

// RaceScale is what a caller may divide its run length by when the
// race detector slows each shared access tens of times: a race run
// looks for data races, and those need far fewer ages than a
// divergence does.
const RaceScale = 20
