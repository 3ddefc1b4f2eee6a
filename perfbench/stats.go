package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"hbmvolt/internal/telemetry"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nearestRank returns the q-quantile of xs by nearest rank: the
// ⌈q·n⌉-th smallest sample; 0 for no samples. xs is not modified.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tailCapPct is the highest percentile the tail reports. Above it,
// serve-hit's latencies track how busy the shared host is rather than
// the program: over ten 15 s runs of about 45 000 ops on a contended
// host its p90 spread 0.042 IQR/median, its p95 0.14 and its p98 0.41;
// on a quieter host its p99 spread 0.17 and its p99.99 0.39.
const tailCapPct = 90

// Latency histogram geometry: buckets 1/1024 of a natural-log unit wide
// (0.1%), from 1 µs up to e^22 µs (about an hour).
const (
	histMinMS   = 1e-3
	histPerLn   = 1024
	histBuckets = 22 * histPerLn
)

// latencyHist accumulates op latencies (ms) in memory that does not grow
// with the op count, so a change that completes more ops per run does
// not raise peak_rss_mb: a log-linear histogram for the median, and the
// tailSamples+1 largest latencies exactly for the tail.
type latencyHist struct {
	counts []uint32
	n      int
	top    []float64 // the largest tailSamples+1 latencies, ascending
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]uint32, histBuckets)}
}

func (h *latencyHist) add(x float64) {
	i := 0
	if x > histMinMS {
		i = min(int(math.Log(x/histMinMS)*histPerLn), histBuckets-1)
	}
	h.counts[i]++
	h.n++
	if len(h.top) <= tailSamples {
		h.top = append(h.top, x)
	} else if x > h.top[0] {
		h.top[0] = x
	} else {
		return
	}
	sort.Float64s(h.top)
}

// merge adds o's samples to h.
func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.top = append(h.top, o.top...)
	sort.Float64s(h.top)
	h.top = h.top[max(len(h.top)-tailSamples-1, 0):]
}

// edge is the lower bound of bucket i in ms.
func edge(i int) float64 { return histMinMS * math.Exp(float64(i)/histPerLn) }

// rank estimates the k-th smallest sample (0-based), spreading a bucket's
// samples evenly across its width.
func (h *latencyHist) rank(k int) float64 {
	below := 0
	for i, c := range h.counts {
		if k < below+int(c) {
			return edge(i) + (float64(k-below)+0.5)/float64(c)*(edge(i+1)-edge(i))
		}
		below += int(c)
	}
	return 0
}

// quantile estimates the q-quantile the way quantile does on the raw
// samples, within a bucket's width; 0 for no samples.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	pos := q * float64(h.n-1)
	lo := int(math.Floor(pos))
	v := h.rank(lo)
	if lo+1 < h.n {
		v += (pos - float64(lo)) * (h.rank(lo+1) - v)
	}
	return v
}

// tail returns the highest percentile, at most tailCapPct, that still
// has at least ten samples beyond it, together with that percentile.
// Below 100 samples that is the eleventh-largest sample, which sits at
// percentile 100·(n−10)/n; from there on it is the p90 by nearest rank,
// the ⌈0.9·n⌉-th smallest, estimated within a bucket's width. ok is
// false below 11 samples, where no percentile has ten samples beyond it.
func (h *latencyHist) tail() (value, pct float64, ok bool) {
	if h.n <= tailSamples {
		return 0, 0, false
	}
	k := (tailCapPct*h.n+99)/100 - 1 // 0-based rank of the capped percentile
	if k < h.n-1-tailSamples {
		return h.rank(k), tailCapPct, true
	}
	return h.top[0], min(100*float64(h.n-tailSamples)/float64(h.n), tailCapPct), true
}

// snapshot holds the samples of one or more telemetry registries, keyed
// "<scope>/<series>", e.g. `a/hbmvolt_fleet_serves_total{mode="local"}`.
type snapshot map[string]float64

// scrape renders reg in exposition format and adds its samples to s
// under scope.
func (s snapshot) scrape(scope string, reg *telemetry.Registry) {
	var b strings.Builder
	reg.WriteTo(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[scope+"/"+line[:i]] = v
	}
}

// delta returns after − before for every key of after.
func delta(before, after snapshot) snapshot {
	d := make(snapshot, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum totals every series of family in scope, whatever its labels.
func (s snapshot) sum(scope, family string) float64 {
	prefix := scope + "/" + family
	t := 0.0
	for k, v := range s {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates the q-quantile of the unlabeled histogram
// family in scope the way Prometheus's histogram_quantile does: find the
// bucket holding the rank and interpolate linearly inside it. It returns
// 0 when the histogram saw no observations.
func (s snapshot) histQuantile(scope, family string, q float64) float64 {
	prefix := scope + "/" + family + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // "+Inf" parses, anything else is not a bucket
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.cum-below)
		}
		lo, below = b.le, b.cum
	}
	return lo
}
