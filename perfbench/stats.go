package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of tail percentiles a timing may report, highest
// first. The reported tail is the highest one that still has at least
// minBeyond samples above it, so a tail is never a single outlier.
var tailLadder = []float64{0.99, 0.90}

const minBeyond = 10

// dist is a timing distribution reduced to what the benchmark reports: a
// median and a tail percentile, each with the sample count behind it.
type dist struct {
	N    int
	P50  float64
	Tail float64
	// TailQ is the tail's quantile (0.99, 0.90), or 1 when there are too
	// few samples for any ladder entry and Tail is the maximum.
	TailQ float64
}

// reduce applies the tail rule to n samples, at(r) being the r-th
// smallest (1-based).
func reduce(n int, p50 float64, at func(r int) float64) dist {
	if n == 0 {
		return dist{}
	}
	d := dist{N: n, P50: p50, Tail: at(n), TailQ: 1}
	for _, q := range tailLadder {
		if r := rank(n, q); n-r >= minBeyond {
			d.Tail, d.TailQ = at(r), q
			break
		}
	}
	return d
}

// summarize reduces xs (left unmodified).
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return reduce(len(s), median(s), func(r int) float64 { return s[r-1] })
}

// rank is the 1-based nearest-rank position of quantile q among n sorted
// samples: the smallest sample with at least q·n samples at or below it.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// median of sorted samples, averaging the middle pair when n is even; 0
// for none.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailName labels a dist's tail for the human-readable report.
func (d dist) tailName() string {
	if d.TailQ == 1 {
		return "max"
	}
	return fmt.Sprintf("p%g", 100*d.TailQ)
}

func (d dist) String() string {
	return fmt.Sprintf("p50=%.4g %s=%.4g (n=%d)", d.P50, d.tailName(), d.Tail, d.N)
}

// Latency histograms: buckets 1% wide from histMin up to about 100 s, so
// a serve run keeps its distribution in constant memory however many
// lines it serves, and the benchmark's own bookkeeping does not grow the
// process's peak RSS.
const (
	histMin     = 1e-3 // ms
	histGrowth  = 1.01
	histBuckets = 1900
)

type hist struct {
	n      int
	counts [histBuckets]uint64
}

func (h *hist) add(ms float64) {
	i := 0
	if ms > histMin {
		i = min(histBuckets-1, 1+int(math.Log(ms/histMin)/math.Log(histGrowth)))
	}
	h.counts[i]++
	h.n++
}

// at returns the r-th smallest sample (1-based), interpolated within its
// bucket by rank, so within 1% of the true value.
func (h *hist) at(r int) float64 {
	seen := 0
	for i, c := range h.counts {
		if c == 0 || seen+int(c) < r {
			seen += int(c)
			continue
		}
		hi := histMin * math.Pow(histGrowth, float64(i))
		lo := hi / histGrowth
		if i == 0 {
			lo = 0
		}
		return lo + (hi-lo)*float64(r-seen)/float64(c)
	}
	return math.Inf(1)
}

func (h *hist) dist() dist {
	return reduce(h.n, h.at(rank(h.n, 0.5)), h.at)
}

// series is one class of response lines: a histogram of the whole run
// plus one per window of it, keyed by when each line arrived. A slow
// stretch of the run then moves one window's statistics, and the medians
// over windows that the serve workloads report, rather than the run's.
type series struct {
	width time.Duration
	all   hist
	win   []*hist
}

// newSeries cuts a run into windows equal windows.
func newSeries(run time.Duration, windows int) *series {
	return &series{width: run / time.Duration(windows)}
}

func (s *series) add(at time.Duration, ms float64) {
	k := max(0, int(at/s.width))
	for len(s.win) <= k {
		s.win = append(s.win, &hist{})
	}
	s.all.add(ms)
	s.win[k].add(ms)
}

// windows returns the windows holding at least a tenth of the fullest
// one's lines, which leaves out the stragglers a closed loop completes
// after its deadline.
func (s *series) windows() []*hist {
	fullest := 0
	for _, h := range s.win {
		fullest = max(fullest, h.n)
	}
	var out []*hist
	for _, h := range s.win {
		if h.n > 0 && 10*h.n >= fullest {
			out = append(out, h)
		}
	}
	return out
}

// windowMedian is the median over windows of f.
func (s *series) windowMedian(f func(*hist) float64) float64 {
	var xs []float64
	for _, h := range s.windows() {
		xs = append(xs, f(h))
	}
	sort.Float64s(xs)
	return median(xs)
}

// p50, tail and rate are the medians over windows of each window's
// median, tail and lines per second.
func (s *series) p50() float64 { return s.windowMedian(func(h *hist) float64 { return h.dist().P50 }) }
func (s *series) tail() float64 {
	return s.windowMedian(func(h *hist) float64 { return h.dist().Tail })
}
func (s *series) rate() float64 {
	return s.windowMedian(func(h *hist) float64 { return float64(h.n) / s.width.Seconds() })
}

// tailName labels the windows' tail percentile.
func (s *series) tailName() string {
	if w := s.windows(); len(w) > 0 {
		return w[0].dist().tailName()
	}
	return "tail"
}
