package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestPercentileExactRankDoesNotRoundUp(t *testing.T) {
	s := make([]float64, 400)
	for i := range s {
		s[i] = float64(i + 1)
	}
	// 0.95·400 = 380 exactly; float arithmetic gives 380.00000000000006.
	if got := percentile(s, 0.95); got != 380 {
		t.Fatalf("p95 of 1..400 = %v, want 380", got)
	}
	if got := beyond(400, 0.95); got != 20 {
		t.Fatalf("beyond(400, 0.95) = %d, want 20", got)
	}
}

func TestSummarizeSortsAndCountsTail(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64((i*7919)%1000 + 1) // a permutation of 1..1000
	}
	l := summarize(samples, 0.99)
	if l.N != 1000 || l.P50 != 500 || l.Tail != 990 || l.Beyond != 10 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990 beyond=10", l)
	}
	if !l.supported() {
		t.Fatal("p99 of 1000 samples has 10 beyond and should be supported")
	}
	if summarize(samples[:999], 0.99).supported() {
		t.Fatal("p99 of 999 samples has 9 beyond and should not be supported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 10}, 4, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("spread of zeros = %v, want 0", got)
	}
}

func TestCalmKeepsTheRequestsDueWhileTheHostStoleLeast(t *testing.T) {
	// Ten slices of 100 requests, 1..100 ms; the host stole CPU in the
	// last four, where everything ran three times slower.
	var samples []float64
	var at []time.Duration
	steal := []float64{0, 0, 0, 0, 0, 0, 0.2, 0.3, 0.2, 0.4}
	for k := range steal {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if steal[k] > 0 {
				v *= 3
			}
			samples = append(samples, v)
			at = append(at, time.Duration(k)*slice+time.Duration(i)*slice/101)
		}
	}
	l := calm([]sampled{{samples, at, steal}}, 0.9)
	if l.N != 1000 || l.Kept != 600 || l.P50 != 50 || l.Tail != 90 || l.Beyond != 60 {
		t.Fatalf("calm = n %d kept %d p50 %v tail %v beyond %d; want 1000, 600, 50, 90, 60", l.N, l.Kept, l.P50, l.Tail, l.Beyond)
	}
	if whole := percentile(l.sorted, 0.9); whole != 225 {
		t.Fatalf("whole-phase p90 = %v, want 225", whole)
	}
	// The choice ignores latency: the program's own stalls in the kept
	// slices still show, at their rate.
	for i := 0; i < 400; i++ {
		samples[i] *= 2
	}
	if l := calm([]sampled{{samples, at, steal}}, 0.9); l.P50 != 76 || l.Tail != 170 {
		t.Fatalf("calm with stalls in 4 of 6 kept slices = p50 %v tail %v; want 76, 170", l.P50, l.Tail)
	}
	// With no steal measured, every request is kept.
	if l := calm([]sampled{{samples, at, nil}}, 0.9); l.Kept != 1000 {
		t.Fatalf("calm without a meter kept %d of 1000", l.Kept)
	}
}

func TestCalmPoolsAPhaseUnderOneLimit(t *testing.T) {
	// Two stretches of a phase, ten slices each with one request apiece:
	// the host stole in every slice of the second, so none of its requests
	// is kept, however fast.
	quietly := sampled{steal: make([]float64, 10)}
	stolen := sampled{steal: []float64{0.1, 0.2, 0.1, 0.1, 0.3, 0.1, 0.2, 0.1, 0.1, 0.1}}
	for k := 0; k < 10; k++ {
		at := time.Duration(k)*slice + slice/2
		quietly.lat, quietly.at = append(quietly.lat, float64(10+k)), append(quietly.at, at)
		stolen.lat, stolen.at = append(stolen.lat, 1), append(stolen.at, at)
	}
	if l := calm([]sampled{quietly, stolen}, 0.5); l.N != 20 || l.Kept != 10 || l.P50 != 14 {
		t.Fatalf("calm = n %d kept %d p50 %v; want 20, 10, 14", l.N, l.Kept, l.P50)
	}
	// On its own, the second stretch keeps its calmest tenth's level.
	if l := calm([]sampled{stolen}, 0.5); l.Kept != 7 {
		t.Fatalf("calm of a stretch that always stole kept %d, want the 7 at its least steal", l.Kept)
	}
}

func TestCalmRateIsTheMedianOfTheCalmIntervals(t *testing.T) {
	rates := []float64{600, 610, 400, 450, 590, 620, 300}
	steal := []float64{0, 0, 0.4, 0, 0, 0, 0.5}
	if r, kept := calmRate(rates, steal); r != 600 || kept != 5 {
		t.Fatalf("calmRate = %v over %d, want 600 over 5", r, kept)
	}
}
