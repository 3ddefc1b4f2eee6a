// Package telemetrytest reads a node's /metrics exposition back into
// values, so tests assert on exactly the series an operator scrapes.
package telemetrytest

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// Series maps each exposed sample line's series to its value, e.g.
// `hbmvolt_cache_entries{tier="disk"}` → 1.
type Series map[string]float64

// Scrape GETs /metrics from h — a service.Server, or a registry's
// Handler — and parses every sample line.
func Scrape(t testing.TB, h http.Handler) Series {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	out := make(Series)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// Family returns the values of every series of the named family, one
// per label set.
func (s Series) Family(name string) []float64 {
	var out []float64
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			out = append(out, v)
		}
	}
	return out
}

// Sum totals the family's series.
func (s Series) Sum(name string) float64 {
	var sum float64
	for _, v := range s.Family(name) {
		sum += v
	}
	return sum
}
