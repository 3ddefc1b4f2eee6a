package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// scrape renders srv's /metrics and returns every sample line as
// series → value, e.g. `hbmvolt_cache_entries{tier="disk"}` → "1".
func scrape(t *testing.T, srv *Server) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	out := make(map[string]string)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		out[line[:i]] = line[i+1:]
	}
	return out
}

// healthz decodes srv's /healthz body.
func healthz(t *testing.T, srv *Server) Health {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	return h
}

// wantSeries checks each expected series value in a scrape.
func wantSeries(t *testing.T, stage string, got map[string]string, want map[string]string) {
	t.Helper()
	for series, v := range want {
		if got[series] != v {
			t.Errorf("%s: %s = %q, want %q", stage, series, got[series], v)
		}
	}
}

// TestPerTierCacheSeries pins the per-tier cache families and the /healthz
// cache counters across a restart: a node with a cache dir computes one
// key (a miss in both tiers), a fresh node over the same dir serves it
// from disk (promoting it), then from memory. A memory-only node emits
// no disk series at all.
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
	size := strconv.Itoa(len(payload))
	wantSeries(t, "compute", scrape(t, srv1), map[string]string{
		`hbmvolt_cache_requests_total{tier="memory",outcome="hit"}`:  "0",
		`hbmvolt_cache_requests_total{tier="memory",outcome="miss"}`: "1",
		`hbmvolt_cache_requests_total{tier="disk",outcome="hit"}`:    "0",
		`hbmvolt_cache_requests_total{tier="disk",outcome="miss"}`:   "1",
		`hbmvolt_cache_entries{tier="memory"}`:                       "1",
		`hbmvolt_cache_entries{tier="disk"}`:                         "1",
		`hbmvolt_cache_bytes{tier="memory"}`:                         size,
		`hbmvolt_cache_bytes{tier="disk"}`:                           size,
		`hbmvolt_cache_evictions_total{tier="memory"}`:               "0",
		`hbmvolt_cache_evictions_total{tier="disk"}`:                 "0",
	})
	srv1.Close()

	srv2, err := Open(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	wantSeries(t, "restart", scrape(t, srv2), map[string]string{
		`hbmvolt_cache_entries{tier="memory"}`: "0",
		`hbmvolt_cache_entries{tier="disk"}`:   "1",
		`hbmvolt_cache_bytes{tier="memory"}`:   "0",
		`hbmvolt_cache_bytes{tier="disk"}`:     size,
	})

	if _, hit := submit(srv2); !hit {
		t.Fatal("restarted node did not serve the key from disk")
	}
	wantSeries(t, "disk hit", scrape(t, srv2), map[string]string{
		`hbmvolt_cache_requests_total{tier="memory",outcome="hit"}`:  "0",
		`hbmvolt_cache_requests_total{tier="memory",outcome="miss"}`: "1",
		`hbmvolt_cache_requests_total{tier="disk",outcome="hit"}`:    "1",
		`hbmvolt_cache_requests_total{tier="disk",outcome="miss"}`:   "0",
		`hbmvolt_cache_entries{tier="memory"}`:                       "1",
		`hbmvolt_cache_entries{tier="disk"}`:                         "1",
		`hbmvolt_cache_bytes{tier="memory"}`:                         size,
	})
	h := healthz(t, srv2)
	if h.CacheHits != 1 || h.CacheMisses != 0 || h.DiskCache == nil || h.DiskCache.Hits != 1 {
		t.Fatalf("after disk hit: healthz cache_hits=%d cache_misses=%d disk_cache=%+v", h.CacheHits, h.CacheMisses, h.DiskCache)
	}

	if _, hit := submit(srv2); !hit {
		t.Fatal("second resubmission missed the cache")
	}
	wantSeries(t, "memory hit", scrape(t, srv2), map[string]string{
		`hbmvolt_cache_requests_total{tier="memory",outcome="hit"}`:  "1",
		`hbmvolt_cache_requests_total{tier="memory",outcome="miss"}`: "1",
		`hbmvolt_cache_requests_total{tier="disk",outcome="hit"}`:    "1",
		`hbmvolt_cache_requests_total{tier="disk",outcome="miss"}`:   "0",
	})
	h = healthz(t, srv2)
	if h.CacheHits != 2 || h.CacheMisses != 0 || h.DiskCache.Hits != 1 {
		t.Fatalf("after memory hit: healthz cache_hits=%d cache_misses=%d disk_cache.hits=%d", h.CacheHits, h.CacheMisses, h.DiskCache.Hits)
	}

	mem, err := Open(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	submit(mem)
	for series := range scrape(t, mem) {
		if strings.Contains(series, `tier="disk"`) || strings.HasPrefix(series, "hbmvolt_disk_") {
			t.Errorf("memory-only node emits disk series %s", series)
		}
	}
	if h := healthz(t, mem); h.DiskCache != nil || h.CacheMisses != 1 {
		t.Fatalf("memory-only healthz: cache_misses=%d disk_cache=%+v", h.CacheMisses, h.DiskCache)
	}
}
