package stats

import (
	"testing"
	"time"
)

func TestLatencyWindowMedian(t *testing.T) {
	var w LatencyWindow
	if w.Median() != 0 {
		t.Fatal("median of no observations should be 0")
	}
	for _, d := range []time.Duration{10, 20, 30, 40, 1000} {
		w.Observe(d * time.Millisecond)
	}
	if got := w.Median(); got != 30*time.Millisecond {
		t.Fatalf("median = %v, want 30ms (outlier-resistant)", got)
	}
	// The window slides: flood with 5ms jobs and the median follows.
	for i := 0; i < LatencyWindowSize; i++ {
		w.Observe(5 * time.Millisecond)
	}
	if got := w.Median(); got != 5*time.Millisecond {
		t.Fatalf("median = %v after window turnover, want 5ms", got)
	}
	// A negative duration (a clock step) counts as zero.
	var neg LatencyWindow
	neg.Observe(-time.Second)
	if got := neg.Median(); got != 0 {
		t.Fatalf("median of one negative observation = %v, want 0", got)
	}
}

func TestLatencyWindowP95(t *testing.T) {
	var w LatencyWindow
	if w.P95() != 0 {
		t.Fatal("empty window must report 0")
	}
	w.Observe(100 * time.Millisecond)
	if w.P95() != 100*time.Millisecond {
		t.Fatalf("single-sample p95 = %v, want the sample", w.P95())
	}
	// 20 samples at 10..200ms: p95 lands on the 19th (190ms).
	var w2 LatencyWindow
	for i := 1; i <= 20; i++ {
		w2.Observe(time.Duration(i) * 10 * time.Millisecond)
	}
	if got := w2.P95(); got != 190*time.Millisecond {
		t.Fatalf("p95 of 10..200ms = %v, want 190ms", got)
	}
	// Overflow wraps: after 2×size observations of a new value, the old
	// samples are fully displaced.
	for i := 0; i < 2*LatencyWindowSize; i++ {
		w2.Observe(time.Millisecond)
	}
	if got := w2.P95(); got != time.Millisecond {
		t.Fatalf("p95 after displacement = %v, want 1ms", got)
	}
}
