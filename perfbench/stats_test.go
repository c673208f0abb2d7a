package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

// The tail is the highest ladder percentile with at least ten samples
// above it; below 100 samples no ladder entry qualifies and it is the
// maximum. The sample count is always reported. Exact samples and the
// histogram must agree to within its 1% buckets.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		tail  float64
		tailQ float64
	}{
		{1000, 990, 0.99}, // 10 samples above p99
		{999, 900, 0.90},  // p99 would have 9 above
		{100, 90, 0.90},   // exactly 10 above p90
		{99, 99, 1},       // nothing qualifies: the maximum
		{3, 3, 1},
	}
	for _, c := range cases {
		var h hist
		for _, x := range seq(c.n) {
			h.add(x)
		}
		exact, binned := summarize(seq(c.n)), h.dist()
		if exact.N != c.n || exact.Tail != c.tail || exact.TailQ != c.tailQ {
			t.Errorf("n=%d: got tail %g at q=%g (n=%d), want %g at q=%g",
				c.n, exact.Tail, exact.TailQ, exact.N, c.tail, c.tailQ)
		}
		if binned.N != c.n || binned.TailQ != c.tailQ || math.Abs(binned.Tail/c.tail-1) > 0.01 {
			t.Errorf("n=%d: histogram tail %g at q=%g (n=%d), want %g at q=%g",
				c.n, binned.Tail, binned.TailQ, binned.N, c.tail, c.tailQ)
		}
		if math.Abs(binned.P50/exact.P50-1) > 0.01 {
			t.Errorf("n=%d: histogram median %g, exact %g", c.n, binned.P50, exact.P50)
		}
	}
}

func TestSummarizeMedian(t *testing.T) {
	if d := summarize([]float64{5, 1, 3}); d.P50 != 3 {
		t.Errorf("odd median = %g, want 3", d.P50)
	}
	if d := summarize([]float64{4, 1, 3, 2}); d.P50 != 2.5 {
		t.Errorf("even median = %g, want 2.5", d.P50)
	}
	if d := summarize(nil); d.N != 0 {
		t.Errorf("empty input reported %d samples", d.N)
	}
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 {
		t.Error("summarize reordered its input")
	}
}

// A stall confined to one window moves that window's tail but not the
// median over windows; the stragglers after the last full window do not
// count as a window.
func TestSeriesWindows(t *testing.T) {
	s := newSeries(4*time.Second, 4)
	for w := 0; w < 4; w++ {
		for i := 0; i < 1000; i++ {
			ms := 1.0
			if i%50 == 0 {
				ms = 2
			}
			if w == 2 && i%10 == 0 {
				ms = 100 // a slow second
			}
			s.add(time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond, ms)
		}
	}
	s.add(4*time.Second+time.Millisecond, 500) // a straggler
	if n := len(s.windows()); n != 4 {
		t.Fatalf("%d windows, want 4", n)
	}
	if tail := s.tail(); math.Abs(tail/2-1) > 0.01 {
		t.Errorf("median window tail %g, want 2", tail)
	}
	if all := s.all.dist(); all.Tail < 100 {
		t.Errorf("whole-run tail %g should show the slow second", all.Tail)
	}
	if p50 := s.p50(); math.Abs(p50-1) > 0.01 {
		t.Errorf("median window p50 %g, want 1", p50)
	}
	if r := s.rate(); r != 1000 {
		t.Errorf("median window rate %g lines/s, want 1000", r)
	}
}
