package service

import (
	"strings"
	"testing"

	"hbmvolt/internal/telemetry/telemetrytest"
)

// wantSeries checks each expected series value in a scrape.
func wantSeries(t *testing.T, stage string, got telemetrytest.Series, want map[string]float64) {
	t.Helper()
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s: %s = %v, want %v", stage, series, got[series], v)
		}
	}
}

// TestPerTierCacheSeries pins the per-tier cache families across a
// restart: a node with a cache dir computes one key (a miss in both
// tiers), a fresh node over the same dir serves it from disk (promoting
// it), then from memory. A memory-only node emits no disk series at
// all.
func TestPerTierCacheSeries(t *testing.T) {
	dir := t.TempDir()
	req := SweepRequest{Kind: KindReliability, Scale: 1024, Ports: []int{0}, Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1}
	submit := func(srv *Server) (payload []byte, cacheHit bool) {
		t.Helper()
		j, _, hit, err := srv.Manager().SubmitOpts(req, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := j.Wait(t.Context()); st != StateDone {
			t.Fatalf("job state %s", st)
		}
		return j.Payload(), hit
	}

	srv1, err := Open(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload, hit := submit(srv1)
	if hit {
		t.Fatal("first submission reported a cache hit")
	}
	size := float64(len(payload))
	wantSeries(t, "compute", telemetrytest.Scrape(t, srv1), map[string]float64{
		`hbmvolt_cache_requests_total{tier="memory",outcome="hit"}`:  0,
		`hbmvolt_cache_requests_total{tier="memory",outcome="miss"}`: 1,
		`hbmvolt_cache_requests_total{tier="disk",outcome="hit"}`:    0,
		`hbmvolt_cache_requests_total{tier="disk",outcome="miss"}`:   1,
		`hbmvolt_cache_entries{tier="memory"}`:                       1,
		`hbmvolt_cache_entries{tier="disk"}`:                         1,
		`hbmvolt_cache_bytes{tier="memory"}`:                         size,
		`hbmvolt_cache_bytes{tier="disk"}`:                           size,
		`hbmvolt_cache_evictions_total{tier="memory"}`:               0,
		`hbmvolt_cache_evictions_total{tier="disk"}`:                 0,
	})
	srv1.Close()

	srv2, err := Open(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	wantSeries(t, "restart", telemetrytest.Scrape(t, srv2), map[string]float64{
		`hbmvolt_cache_entries{tier="memory"}`: 0,
		`hbmvolt_cache_entries{tier="disk"}`:   1,
		`hbmvolt_cache_bytes{tier="memory"}`:   0,
		`hbmvolt_cache_bytes{tier="disk"}`:     size,
	})

	if _, hit := submit(srv2); !hit {
		t.Fatal("restarted node did not serve the key from disk")
	}
	wantSeries(t, "disk hit", telemetrytest.Scrape(t, srv2), map[string]float64{
		`hbmvolt_cache_requests_total{tier="memory",outcome="hit"}`:  0,
		`hbmvolt_cache_requests_total{tier="memory",outcome="miss"}`: 1,
		`hbmvolt_cache_requests_total{tier="disk",outcome="hit"}`:    1,
		`hbmvolt_cache_requests_total{tier="disk",outcome="miss"}`:   0,
		`hbmvolt_cache_entries{tier="memory"}`:                       1,
		`hbmvolt_cache_entries{tier="disk"}`:                         1,
		`hbmvolt_cache_bytes{tier="memory"}`:                         size,
	})

	if _, hit := submit(srv2); !hit {
		t.Fatal("second resubmission missed the cache")
	}
	wantSeries(t, "memory hit", telemetrytest.Scrape(t, srv2), map[string]float64{
		`hbmvolt_cache_requests_total{tier="memory",outcome="hit"}`:  1,
		`hbmvolt_cache_requests_total{tier="memory",outcome="miss"}`: 1,
		`hbmvolt_cache_requests_total{tier="disk",outcome="hit"}`:    1,
		`hbmvolt_cache_requests_total{tier="disk",outcome="miss"}`:   0,
	})

	mem, err := Open(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	submit(mem)
	got := telemetrytest.Scrape(t, mem)
	for series := range got {
		if strings.Contains(series, `tier="disk"`) || strings.HasPrefix(series, "hbmvolt_disk_") {
			t.Errorf("memory-only node emits disk series %s", series)
		}
	}
	wantSeries(t, "memory-only", got, map[string]float64{
		`hbmvolt_cache_requests_total{tier="memory",outcome="miss"}`: 1,
	})
}
