package stats

import (
	"slices"
	"sync"
	"time"
)

// LatencyWindowSize is the number of recent durations a LatencyWindow
// holds: large enough to smooth one outlier, small enough to follow a
// workload shift within a few dozen observations.
const LatencyWindowSize = 64

// LatencyWindow is a sliding window over the LatencyWindowSize most
// recent durations, sorted on read. The zero value is an empty window
// ready for use, and it is safe for concurrent use. The job manager
// derives its Retry-After hints from the median; the fleet forwarder
// derives its adaptive hedge delay from the p95.
type LatencyWindow struct {
	mu      sync.Mutex
	samples [LatencyWindowSize]time.Duration // ring buffer
	next    int
	n       int // live samples
}

// Observe records one duration; a negative one counts as zero.
func (w *LatencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.samples[w.next] = max(d, 0)
	w.next = (w.next + 1) % LatencyWindowSize
	w.n = min(w.n+1, LatencyWindowSize)
}

// Median returns sorted[n/2] of the window's n samples (the upper
// median when n is even), or 0 while the window is empty.
func (w *LatencyWindow) Median() time.Duration {
	s := w.sorted()
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// P95 returns the nearest-rank 95th percentile, sorted[ceil(0.95n)-1],
// or 0 while the window is empty.
func (w *LatencyWindow) P95() time.Duration {
	s := w.sorted()
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)*95+99)/100-1]
}

// sorted returns an ascending copy of the live samples.
func (w *LatencyWindow) sorted() []time.Duration {
	w.mu.Lock()
	s := slices.Clone(w.samples[:w.n])
	w.mu.Unlock()
	slices.Sort(s)
	return s
}
