package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative nanosecond values:
// exact below 128, then 128 sub-buckets per power of two (under 0.8 %
// wide). The harness keeps its own rather than use obs.Histogram for
// two reasons: obs is part of the stack under test, and a change to it
// must not change what the clients' clocks read; and -compare holds the
// percentiles to bounds of 10 and 15 %, which obs.Histogram's 12.5 %
// buckets would quantise away. One writer, no locks; merge after the
// writers stopped.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histOctaves = 36 // values up to 2^42 ns, over an hour
	histBuckets = histOctaves * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // >= histSubBits
	i := (e-histSubBits+1)*histSub + int(uint64(v)>>(e-histSubBits))&(histSub-1)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns the inclusive lower and exclusive upper value of
// bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i/histSub + histSubBits - 1
	sub := i % histSub
	width := math.Ldexp(1, e-histSubBits)
	lo = math.Ldexp(1, e) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > 0 {
		h.sum += uint64(v)
	}
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile interpolates inside the landing bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := histBounds(i)
			v := lo + (rank-cum)/float64(c)*(hi-lo)
			return math.Min(v, float64(h.max))
		}
		cum = next
	}
	return float64(h.max)
}

// quartiles returns the first quartile, the median and the third
// quartile of xs as Python's statistics.quantiles(xs, n=4) gives them
// (the exclusive method), which is what the driver applies to a set of
// runs. Fewer than two values have no spread: all three are the value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
