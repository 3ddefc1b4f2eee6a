package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hbmvolt
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkReliabilitySweep/j=1         	       1	1932172936 ns/op	        20.70 points/sec	         1.000 workers
BenchmarkReliabilitySweep/j=8-4       	       2	 486000000 ns/op	        82.30 points/sec	         8.000 workers
some unrelated chatter
PASS
ok  	hbmvolt	7.768s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkReliabilitySweep/j=8-4" || b.Pkg != "hbmvolt" || b.Runs != 2 {
		t.Fatalf("record: %+v", b)
	}
	if b.Metrics["points/sec"] != 82.30 || b.Metrics["workers"] != 8 {
		t.Fatalf("metrics: %+v", b.Metrics)
	}
	if !strings.HasPrefix(b.Raw, "BenchmarkReliabilitySweep/j=8-4") {
		t.Fatalf("raw line lost: %q", b.Raw)
	}
}

// twoPackages is what CI feeds benchjson: several packages' runs
// concatenated, each under its own "pkg:" header.
const twoPackages = sample + `goos: linux
goarch: amd64
pkg: hbmvolt/internal/faults
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSharedVsIsolatedEnumeration/isolated 	       5	  90000000 ns/op
PASS
ok  	hbmvolt/internal/faults	1.200s
`

// TestParseTwoPackages pins each record to the package header in force
// when its line was read, not to whichever header came last.
func TestParseTwoPackages(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(twoPackages)))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, pkg string }{
		{"BenchmarkReliabilitySweep/j=1", "hbmvolt"},
		{"BenchmarkReliabilitySweep/j=8-4", "hbmvolt"},
		{"BenchmarkSharedVsIsolatedEnumeration/isolated", "hbmvolt/internal/faults"},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %d, want %d", len(rep.Benchmarks), len(want))
	}
	for i, w := range want {
		if b := rep.Benchmarks[i]; b.Name != w.name || b.Pkg != w.pkg {
			t.Errorf("record %d = %s in %q, want %s in %q", i, b.Name, b.Pkg, w.name, w.pkg)
		}
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkOnly",
		"BenchmarkOdd 1 100",
		"BenchmarkBadRuns x 100 ns/op",
		"BenchmarkBadValue 1 abc ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("accepted malformed line %q", line)
		}
	}
}

// repeated is what go test -count N prints: three lines of one
// benchmark, with another benchmark between them, and two lines of the
// same name in a second package.
const repeated = `pkg: hbmvolt/internal/campaign
BenchmarkCampaignRun/shared-2 	     150	   9000000 ns/op	       700.0 cells/sec	  5000 B/op	      40 allocs/op
BenchmarkCampaignExpand-2     	       5	    100000 ns/op
BenchmarkCampaignRun/shared-2 	     150	  12000000 ns/op	       601.0 cells/sec	  5200 B/op	      41 allocs/op
BenchmarkCampaignRun/shared-2 	     150	   7000000 ns/op	       827.0 cells/sec	  4000 B/op	      42 allocs/op
pkg: hbmvolt/other
BenchmarkCampaignRun/shared-2 	      20	   2000000 ns/op
BenchmarkCampaignRun/shared-2 	      10	   1000000 ns/op
`

// TestParseFoldsRepeatedLines pins the fold of repeated (pkg, name)
// lines: one record in the place of the first, each metric the median
// of its lines, runs summed, and the raw line of the median-ns/op run.
func TestParseFoldsRepeatedLines(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(repeated)))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, pkg string
		runs      int64
	}{
		{"BenchmarkCampaignRun/shared-2", "hbmvolt/internal/campaign", 450},
		{"BenchmarkCampaignExpand-2", "hbmvolt/internal/campaign", 5},
		{"BenchmarkCampaignRun/shared-2", "hbmvolt/other", 30},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %d, want %d", len(rep.Benchmarks), len(want))
	}
	for i, w := range want {
		if b := rep.Benchmarks[i]; b.Name != w.name || b.Pkg != w.pkg || b.Runs != w.runs {
			t.Errorf("record %d = %s in %q, %d runs; want %s in %q, %d runs", i, b.Name, b.Pkg, b.Runs, w.name, w.pkg, w.runs)
		}
	}
	b := rep.Benchmarks[0]
	for metric, v := range map[string]float64{"ns/op": 9000000, "cells/sec": 700, "B/op": 5000, "allocs/op": 41} {
		if b.Metrics[metric] != v {
			t.Errorf("%s = %v, want the median %v", metric, b.Metrics[metric], v)
		}
	}
	if !strings.Contains(b.Raw, " 9000000 ns/op") {
		t.Errorf("raw = %q, want the median run's line", b.Raw)
	}
	// An even count takes the lower middle line.
	if b := rep.Benchmarks[2]; b.Metrics["ns/op"] != 1000000 || !strings.Contains(b.Raw, " 1000000 ns/op") {
		t.Errorf("even count: ns/op %v, raw %q; want the lower middle run", b.Metrics["ns/op"], b.Raw)
	}
}
