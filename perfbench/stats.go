package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before
// the benchmark reports it: fewer and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q·n samples at or below it. It returns 0
// for no samples.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, q)-1]
}

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(n int, q float64) int {
	// The epsilon keeps q·n that is an integer in exact arithmetic
	// (0.95·400 = 380) from rounding up to the next rank in float.
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// latency summarizes one phase's per-request latencies.
type latency struct {
	N      int       // requests
	P50    float64   // median, ms
	TailQ  float64   // the tail quantile reported, e.g. 0.99
	Tail   float64   // that quantile, ms
	Beyond int       // samples above Tail
	Kept   int       // requests calm summarized; 0 from summarize
	sorted []float64 // every sample, sorted
}

// summarize sorts samples (ms) in place and reports their median and
// tailQ quantile by nearest rank.
func summarize(samples []float64, tailQ float64) latency {
	sort.Float64s(samples)
	return latency{
		N:      len(samples),
		P50:    percentile(samples, 0.5),
		TailQ:  tailQ,
		Tail:   percentile(samples, tailQ),
		Beyond: beyond(len(samples), tailQ),
		sorted: samples,
	}
}

// slice is how often a meter reads the host's stolen CPU time.
const slice = 100 * time.Millisecond

// sampled is one stretch of a phase: each request's latency and when,
// from the stretch's start, it fell due, and the host's stolen CPU share
// in each consecutive slice of the stretch.
type sampled struct {
	lat   []float64
	at    []time.Duration
	steal []float64
}

// calm summarizes a phase's latencies over the requests that fell due
// while the host's neighbours took least CPU: in the slices, of all the
// phase's stretches, that stole no more than the calmest tenth of them.
// On a host that is quiet at least a tenth of the time, those are the
// slices in which it stole nothing. The choice uses a measurement from
// outside the program and never latency, so a stall of the program's own
// (a GC pause, an eviction burst, a lock) counts among the kept requests
// at the rate it occurs in the whole phase. N counts every request and
// Kept those kept; the sorted samples are the whole phase's, for
// reference.
func calm(phase []sampled, tailQ float64) latency {
	var steal []float64
	for _, p := range phase {
		steal = append(steal, p.steal...)
	}
	limit := calmLimit(steal)
	var kept, all []float64
	for _, p := range phase {
		for i, x := range p.lat {
			if k := int(p.at[i] / slice); len(p.steal) == 0 || p.steal[min(k, len(p.steal)-1)] <= limit {
				kept = append(kept, x)
			}
		}
		all = append(all, p.lat...)
	}
	l := summarize(kept, tailQ)
	l.N, l.Kept = len(all), len(kept)
	sort.Float64s(all)
	l.sorted = all
	return l
}

// calmLimit is the most steal a calm slice may have: as little as the
// calmest tenth of the slices had.
func calmLimit(steal []float64) float64 {
	return percentile(sortedCopy(steal), 0.1)
}

// calmRate is the median of the rates measured in consecutive intervals,
// over the intervals with no more steal than calmLimit allows.
func calmRate(rates, steal []float64) (rate float64, kept int) {
	limit := calmLimit(steal)
	var calmRates []float64
	for k, r := range rates {
		if steal[k] <= limit {
			calmRates = append(calmRates, r)
		}
	}
	return median(calmRates), len(calmRates)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// meterSteal reads the host's stolen CPU share over consecutive slices
// from now until span has passed, for calm. The function it returns
// waits for the last slice to end.
func meterSteal(span time.Duration) func() []float64 {
	ch := make(chan []float64, 1)
	go func() {
		start := time.Now()
		var shares []float64
		t0, s0 := hostJiffies()
		for end := slice; end-slice < span; end += slice {
			time.Sleep(time.Until(start.Add(end)))
			t1, s1 := hostJiffies()
			shares = append(shares, ratio(s1-s0, t1-t0))
			t0, s0 = t1, s1
		}
		ch <- shares
	}()
	return func() []float64 { return <-ch }
}

// supported reports whether the tail has enough samples beyond it.
func (l latency) supported() bool { return l.Beyond >= minBeyond }

// median returns the middle of xs (the mean of the two middle values
// for even counts) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (the "exclusive" method,
// interpolating, and extrapolating for very few values), so the spreads
// this program prints match the ones computed from its results elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread returns the interquartile range of xs as a share of its median:
// the run-to-run noise figure a metric's bound is judged against.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
