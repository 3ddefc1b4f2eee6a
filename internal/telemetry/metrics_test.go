package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; run under -race -count=2 this pins the registry's
// thread-safety claim, and the totals pin that no increment is lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	g := r.Gauge("g", "gauge")
	h := r.Histogram("h_seconds", "histogram", []float64{1, 2, 4})
	cv := r.CounterVec("cv_total", "labeled counter", "k")
	hv := r.HistogramVec("hv_bytes", "labeled histogram", []float64{10, 100}, "k")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
				cv.With("a").Inc()
				cv.With("b").Add(2)
				hv.With("x").Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := cv.With("a").Value(); got != workers*per {
		t.Errorf("cv[a] = %d, want %d", got, workers*per)
	}
	if got := cv.With("b").Value(); got != 2*workers*per {
		t.Errorf("cv[b] = %d, want %d", got, 2*workers*per)
	}
	if got := hv.With("x").Count(); got != workers*per {
		t.Errorf("hv[x] count = %d, want %d", got, workers*per)
	}
}

// TestConcurrentRender interleaves writes with renders: the exposition
// must stay parseable and the registry race-free while mutating.
func TestConcurrentRender(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("spin_total", "spins", "who")
	r.GaugeSampler("sampled", "sampler output", []string{"k"}, func() []Sample {
		return []Sample{{Labels: []string{"v"}, Value: 1}}
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cv.With(string(rune('a' + w))).Inc()
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var sb strings.Builder
				if _, err := r.WriteTo(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHistogramBoundaries pins the le semantics at the bucket edges:
// an observation equal to a bound belongs to that bound's bucket,
// anything above the top bound only to +Inf.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "edges", []float64{1, 2.5, 10})
	for _, v := range []float64{0, 1, 1.0000001, 2.5, 10, 10.5, math.Inf(1)} {
		h.Observe(v)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := strings.Join([]string{
		`edge_seconds_bucket{le="1"} 2`,    // 0, 1
		`edge_seconds_bucket{le="2.5"} 4`,  // + 1.0000001, 2.5
		`edge_seconds_bucket{le="10"} 5`,   // + 10
		`edge_seconds_bucket{le="+Inf"} 7`, // + 10.5, +Inf
		`edge_seconds_count 7`,
	}, "\n")
	for _, line := range strings.Split(want, "\n") {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("rendering missing %q:\n%s", line, got)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
}

// TestExpositionGolden pins the full rendering byte for byte: family
// ordering, series ordering, HELP/TYPE lines, label and help escaping,
// histogram cumulative buckets, sampler-backed series.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	// Registered intentionally out of name order: rendering must sort.
	r.Gauge("zz_depth", "queue depth").Set(3)
	cv := r.CounterVec("aa_requests_total", "requests with \"quotes\", a \\ backslash\nand a newline", "tier", "outcome")
	cv.With("memory", "hit").Add(7)
	cv.With("disk", `hit "quoted" \ slashed`).Inc()
	h := r.Histogram("mm_latency_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	r.GaugeSampler("ss_peers", "per-peer state", []string{"peer"}, func() []Sample {
		return []Sample{
			{Labels: []string{"http://b:1"}, Value: 2},
			{Labels: []string{"http://a:1"}, Value: 0.5},
		}
	})

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_requests_total requests with "quotes", a \\ backslash\nand a newline
# TYPE aa_requests_total counter
aa_requests_total{tier="disk",outcome="hit \"quoted\" \\ slashed"} 1
aa_requests_total{tier="memory",outcome="hit"} 7
# HELP mm_latency_seconds latency
# TYPE mm_latency_seconds histogram
mm_latency_seconds_bucket{le="0.5"} 1
mm_latency_seconds_bucket{le="1"} 2
mm_latency_seconds_bucket{le="+Inf"} 3
mm_latency_seconds_sum 3
mm_latency_seconds_count 3
# HELP ss_peers per-peer state
# TYPE ss_peers gauge
ss_peers{peer="http://a:1"} 0.5
ss_peers{peer="http://b:1"} 2
# HELP zz_depth queue depth
# TYPE zz_depth gauge
zz_depth 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Idempotent: a second render must produce identical bytes.
	var sb2 strings.Builder
	r.WriteTo(&sb2)
	if sb2.String() != sb.String() {
		t.Error("second render differs from first")
	}
}

// TestReRegistration pins get-or-create semantics: the same name
// returns the same instrument, and a type clash panics loudly.
func TestReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second help ignored")
	if a != b {
		t.Fatal("re-registering a counter must return the existing instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x_total as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "clash")
}

// TestFormatValue pins the integral-without-exponent rendering that
// keeps counters readable in goldens.
func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		3:       "3",
		1000000: "1000000",
		0.5:     "0.5",
		0.0001:  "0.0001",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}
