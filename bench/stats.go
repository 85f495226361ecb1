package main

import (
	"fmt"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 read off 300 samples is the third-worst
// request, not a percentile (choosing-metrics §1).
const minBeyond = 10

// percentile reads the p-quantile (nearest rank) of an ascending sample.
// It refuses a percentile with fewer than minBeyond samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.3g of an empty sample", p)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %.3g outside (0, 1)", p)
	}
	i := int(p * float64(n))
	if i >= n {
		i = n - 1
	}
	// The median is exempt: it has half the sample on either side by
	// construction and is reported with the sample count beside it.
	if beyond := n - 1 - i; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.3g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[i], nil
}

// tail reports the named percentile, or — when the sample is too small to
// support it — the highest of p90/p50 it does support. The returned p is
// the percentile actually read, so the output line can say so.
func tail(sorted []float64, want float64) (value, p float64) {
	for _, try := range []float64{want, 0.90, 0.50} {
		if try > want {
			continue
		}
		if v, err := percentile(sorted, try); err == nil {
			return v, try
		}
	}
	return 0, 0
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile with the method of
// Python's statistics.quantiles(values, n=4) (exclusive), so the A/A
// table reads the same numbers the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// latencies is one class of timed operations inside a window. Only
// validated responses enter the sample; a failed operation is counted and
// has no latency (choosing-metrics §1: a failure misses any latency limit,
// it must not improve one).
type latencies struct {
	us     []float64 // microseconds, in completion order per client
	at     []float64 // completion time, seconds since the window began
	failed int
}

// ok records a validated operation that took d and completed at the
// given offset into the window.
func (l *latencies) ok(d, at time.Duration) {
	l.us = append(l.us, float64(d.Nanoseconds())/1e3)
	l.at = append(l.at, at.Seconds())
}

func (l *latencies) fail() { l.failed++ }

func (l *latencies) merge(o *latencies) {
	l.us = append(l.us, o.us...)
	l.at = append(l.at, o.at...)
	l.failed += o.failed
}

// sorted returns the pooled sample in ascending order (a copy).
func (l *latencies) sorted() []float64 {
	s := slices.Clone(l.us)
	slices.Sort(s)
	return s
}

// maxSlices is how many equal time slices a window is cut into. A metric
// is the median over the slices of the slice's own statistic: one noisy
// second — a neighbour's burst, a long collection — then moves one slice,
// not the run's p99.
const maxSlices = 5

// sliceSamples is how many samples a slice must hold for percentile p:
// three times what merely supports it (minBeyond beyond), and never fewer
// than a thousand — below that a slice's own sampling error is larger
// than the disturbances slicing is there to shrug off.
func sliceSamples(p float64) int {
	return max(1000, int(3*(minBeyond+1)/(1-p)))
}

// overSlices reads percentile p in each of k equal time slices of the
// window and returns the median of the k readings. k is the largest
// number up to maxSlices for which every slice holds sliceSamples(p); a
// class too thin for two slices is read pooled (k = 1), and k is 0 when
// the whole window does not support the percentile either.
func (l *latencies) overSlices(window time.Duration, p float64) (v float64, k int) {
	for k = maxSlices; k > 1; k-- {
		buckets := make([][]float64, k)
		for i, x := range l.us {
			b := min(k-1, int(l.at[i]/window.Seconds()*float64(k)))
			buckets[b] = append(buckets[b], x)
		}
		readings := make([]float64, 0, k)
		for _, b := range buckets {
			if len(b) < sliceSamples(p) {
				break
			}
			slices.Sort(b)
			r, _ := percentile(b, p) // sliceSamples(p) supports p
			readings = append(readings, r)
		}
		if len(readings) == k {
			return median(readings), k
		}
	}
	if v, err := percentile(l.sorted(), p); err == nil {
		return v, 1
	}
	return 0, 0
}

// ratePerSlice counts completions per time slice and returns the median
// rate per second over maxSlices slices.
func ratePerSlice(window time.Duration, classes ...*latencies) float64 {
	counts := make([]float64, maxSlices)
	for _, l := range classes {
		for _, at := range l.at {
			counts[min(maxSlices-1, int(at/window.Seconds()*maxSlices))]++
		}
	}
	per := window.Seconds() / maxSlices
	for i := range counts {
		counts[i] /= per
	}
	return median(counts)
}
