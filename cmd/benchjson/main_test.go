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
