package main

import (
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseReport = `{"benchmarks":[
	{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":100,"ns/op":5}},
	{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":200}},
	{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":1000}},
	{"name":"BenchmarkCampaignRun/isolated","runs":2,"metrics":{"cells/sec":50}},
	{"name":"BenchmarkOld","runs":1,"metrics":{"points/sec":50}}
]}`

func TestDiffToleranceBand(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", baseReport)

	cases := []struct {
		name        string
		current     string
		normalize   bool
		regressions int
		wantErr     bool
	}{
		{
			// A uniformly 40% slower runner: every raw ratio is 0.6, far
			// outside the band, but the median normalization cancels the
			// machine-speed factor entirely.
			name: "uniformly slower machine passes normalized",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":60}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":120}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":600}},
				{"name":"BenchmarkCampaignRun/isolated","runs":2,"metrics":{"cells/sec":30}}
			]}`,
			normalize:   true,
			regressions: 0,
		},
		{
			// Same numbers without normalization regress everything —
			// the failure mode the fleet-relative gate exists to avoid.
			name: "uniformly slower machine fails raw",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":60}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":120}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":600}},
				{"name":"BenchmarkCampaignRun/isolated","runs":2,"metrics":{"cells/sec":30}}
			]}`,
			normalize:   false,
			regressions: 4,
		},
		{
			// One benchmark collapses relative to its peers on the same
			// (slightly slower) machine: exactly one regression; the
			// worsened ns/op on another benchmark is ignored.
			name: "relative collapse detected",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":90,"ns/op":50}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":180}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":250}},
				{"name":"BenchmarkCampaignRun/isolated","runs":2,"metrics":{"cells/sec":45}}
			]}`,
			normalize:   true,
			regressions: 1,
		},
		{
			// Inside the band, an improvement, and new/missing entries
			// tolerated.
			name: "within band with new entry",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":80}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":170}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":2000}},
				{"name":"BenchmarkCampaignRun/isolated","runs":2,"metrics":{"cells/sec":48}},
				{"name":"BenchmarkNew","runs":1,"metrics":{"points/sec":1}}
			]}`,
			normalize:   true,
			regressions: 0,
		},
		{
			name:      "nothing comparable",
			current:   `{"benchmarks":[{"name":"BenchmarkUnrelated","runs":1,"metrics":{"ns/op":1}}]}`,
			normalize: true,
			wantErr:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := write(t, dir, "cur.json", tc.current)
			got, err := run(base, cur, 0.25, tc.normalize)
			if tc.wantErr {
				if err == nil {
					t.Fatal("expected an error for an incomparable report")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.regressions {
				t.Fatalf("regressions = %d, want %d", got, tc.regressions)
			}
		})
	}
}

// TestFewMetricsSkipsNormalization: with fewer than three comparable
// metrics the median would be dominated by the regressing metric
// itself, so raw ratios gate instead.
func TestFewMetricsSkipsNormalization(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json",
		`{"benchmarks":[{"name":"BenchmarkOnly","runs":1,"metrics":{"points/sec":100}}]}`)
	cur := write(t, dir, "cur.json",
		`{"benchmarks":[{"name":"BenchmarkOnly","runs":1,"metrics":{"points/sec":10}}]}`)
	got, err := run(base, cur, 0.25, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("regressions = %d, want 1 (normalization must not mask a lone collapse)", got)
	}
}

// TestProcsSuffixNormalized: a baseline from a 1-core container (no
// -N suffix) must compare against a multi-core runner's report (with
// one) — the names are the same benchmarks.
func TestProcsSuffixNormalized(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", baseReport)
	cur := write(t, dir, "cur.json", `{"benchmarks":[
		{"name":"BenchmarkReliabilitySweep/j=1-4","runs":2,"metrics":{"points/sec":100}},
		{"name":"BenchmarkReliabilitySweep/j=2-4","runs":2,"metrics":{"points/sec":200}},
		{"name":"BenchmarkCampaignRun/shared-4","runs":2,"metrics":{"cells/sec":1000}},
		{"name":"BenchmarkCampaignRun/isolated-4","runs":2,"metrics":{"cells/sec":50}}
	]}`)
	got, err := run(base, cur, 0.25, true)
	if err != nil {
		t.Fatalf("suffixed names did not match the baseline: %v", err)
	}
	if got != 0 {
		t.Fatalf("regressions = %d, want 0 (identical numbers under suffixed names)", got)
	}
	// "/j=2" must survive normalization — only the trailing procs
	// suffix is stripped.
	if normalizeName("BenchmarkReliabilitySweep/j=2-8") != "BenchmarkReliabilitySweep/j=2" {
		t.Fatal("normalizeName mangled the sub-benchmark name")
	}
}

// TestEveryThroughputUnitGated: every metric whose unit ends in /sec is
// a throughput line, whatever the benchmark calls its operations, and
// a metric that is not a rate (here "workers") is never compared.
func TestEveryThroughputUnitGated(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", `{"benchmarks":[
		{"name":"BenchmarkReliabilitySweep/j=1","runs":5,"metrics":{"points/sec":100,"workers":1}},
		{"name":"BenchmarkServiceSubmit","runs":5,"metrics":{"sweeps/sec":300}},
		{"name":"BenchmarkServiceCacheHit","runs":5,"metrics":{"hits/sec":3000}},
		{"name":"BenchmarkSharedVsIsolatedEnumeration/shared/0.90V","runs":5,"metrics":{"patterns/sec":9000}}
	]}`)
	cases := []struct {
		name        string
		current     string
		regressions int
	}{
		{
			name: "hits/sec collapses",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":5,"metrics":{"points/sec":100,"workers":1}},
				{"name":"BenchmarkServiceSubmit","runs":5,"metrics":{"sweeps/sec":300}},
				{"name":"BenchmarkServiceCacheHit","runs":5,"metrics":{"hits/sec":1000}},
				{"name":"BenchmarkSharedVsIsolatedEnumeration/shared/0.90V","runs":5,"metrics":{"patterns/sec":9000}}
			]}`,
			regressions: 1,
		},
		{
			name: "sweeps/sec and patterns/sec collapse",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":5,"metrics":{"points/sec":100,"workers":1}},
				{"name":"BenchmarkServiceSubmit","runs":5,"metrics":{"sweeps/sec":100}},
				{"name":"BenchmarkServiceCacheHit","runs":5,"metrics":{"hits/sec":3000}},
				{"name":"BenchmarkSharedVsIsolatedEnumeration/shared/0.90V","runs":5,"metrics":{"patterns/sec":3000}}
			]}`,
			regressions: 2,
		},
		{
			name: "a non-rate metric is not compared",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":5,"metrics":{"points/sec":100,"workers":0.1}},
				{"name":"BenchmarkServiceSubmit","runs":5,"metrics":{"sweeps/sec":300}},
				{"name":"BenchmarkServiceCacheHit","runs":5,"metrics":{"hits/sec":3000}},
				{"name":"BenchmarkSharedVsIsolatedEnumeration/shared/0.90V","runs":5,"metrics":{"patterns/sec":9000}}
			]}`,
			regressions: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := write(t, dir, "cur.json", tc.current)
			got, err := run(base, cur, 0.25, true)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.regressions {
				t.Fatalf("regressions = %d, want %d", got, tc.regressions)
			}
		})
	}
}

// TestAllocsGate: allocs/op and B/op are lower-is-better and
// independent of the runner, so they gate on raw values, never on a
// ratio normalized by the throughput metrics' median, and a zero
// baseline gates too.
func TestAllocsGate(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", `{"benchmarks":[
		{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":100,"allocs/op":1000,"B/op":8000}},
		{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":200,"allocs/op":1000}},
		{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":1000,"allocs/op":0,"B/op":0}}
	]}`)
	cases := []struct {
		name        string
		current     string
		regressions int
	}{
		{
			// A uniformly 2x faster runner leaves every normalized
			// throughput ratio at 1; the doubled allocs/op still regress.
			name: "regressing allocs line on a faster machine",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":200,"allocs/op":2000}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":400,"allocs/op":1000}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":2000,"allocs/op":0}}
			]}`,
			regressions: 1,
		},
		{
			// Far fewer allocations on a slower runner: an improvement,
			// and the throughputs pass normalized. A zero baseline that
			// stays at zero passes.
			name: "improving allocs line on a slower machine",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":50,"allocs/op":10}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":100,"allocs/op":1100}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":500,"allocs/op":0}}
			]}`,
			regressions: 0,
		},
		{
			// An allocation-free benchmark that starts allocating has no
			// ratio to its zero baseline, and regresses all the same.
			name: "allocs rising from a zero baseline",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":100,"allocs/op":1000}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":200,"allocs/op":1000}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":1000,"allocs/op":3}}
			]}`,
			regressions: 1,
		},
		{
			// Bytes gate like counts: a 25%+ rise in B/op on an
			// otherwise unchanged run regresses, raw; so does any byte
			// above a zero baseline.
			name: "B/op rising, from a baseline and from zero",
			current: `{"benchmarks":[
				{"name":"BenchmarkReliabilitySweep/j=1","runs":2,"metrics":{"points/sec":100,"allocs/op":1000,"B/op":12000}},
				{"name":"BenchmarkReliabilitySweep/j=2","runs":2,"metrics":{"points/sec":200,"allocs/op":1000}},
				{"name":"BenchmarkCampaignRun/shared","runs":2,"metrics":{"cells/sec":1000,"allocs/op":0,"B/op":64}}
			]}`,
			regressions: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := write(t, dir, "cur.json", tc.current)
			got, err := run(base, cur, 0.25, true)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.regressions {
				t.Fatalf("regressions = %d, want %d", got, tc.regressions)
			}
		})
	}
}
