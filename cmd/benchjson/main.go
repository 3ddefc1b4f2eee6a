// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document, so CI can archive benchmark results as a
// machine-readable artifact (BENCH_sweep.json) while keeping the raw
// benchstat-compatible line alongside each record.
//
// Usage:
//
//	go test -run=NONE -bench=BenchmarkReliabilitySweep -benchtime=1x . \
//	    | go run ./cmd/benchjson > BENCH_sweep.json
//
// Output shape:
//
//	{
//	  "goos": "linux", "goarch": "amd64", "cpu": "...",
//	  "benchmarks": [
//	    {"name": "BenchmarkReliabilitySweep/j=8", "pkg": "hbmvolt", "runs": 1,
//	     "metrics": {"ns/op": 1.9e9, "points/sec": 20.6, "workers": 8},
//	     "raw": "BenchmarkReliabilitySweep/j=8 ..."}
//	  ]
//	}
//
// Input may concatenate several packages' runs: each record carries the
// package of the "pkg:" header in force when its line was read.
// Feeding the "raw" lines back to benchstat under their goos/goarch/pkg
// headers reproduces its input format exactly. The lines of one
// benchmark repeated by go test -count N fold into one record (fold),
// so cmd/benchdiff, which keys records by name, gates their median.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
	Raw     string             `json:"raw"`
}

// Report is the whole document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, sc.Err()
}

// fold merges the records that share a (pkg, name) into the first: runs
// is their sum, each metric its median (the lower middle value for an
// even count), and raw the line of the median run by ns/op.
func fold(recs []Benchmark) []Benchmark {
	out := []Benchmark{}
	for i, b := range recs {
		same := func(c Benchmark) bool { return c.Pkg == b.Pkg && c.Name == b.Name }
		if slices.ContainsFunc(recs[:i], same) {
			continue
		}
		g := slices.DeleteFunc(slices.Clone(recs[i:]), func(c Benchmark) bool { return !same(c) })
		slices.SortStableFunc(g, func(x, y Benchmark) int { return cmp.Compare(x.Metrics["ns/op"], y.Metrics["ns/op"]) })
		m := g[(len(g)-1)/2]
		m.Runs = 0
		for _, c := range g {
			m.Runs += c.Runs
		}
		for metric := range m.Metrics {
			vs := make([]float64, len(g))
			for j, c := range g {
				vs[j] = c.Metrics[metric]
			}
			slices.Sort(vs)
			m.Metrics[metric] = vs[(len(vs)-1)/2]
		}
		out = append(out, m)
	}
	return out
}

// parseLine splits "BenchmarkName-8  N  v1 unit1  v2 unit2 ..." into a
// record; malformed lines are skipped rather than failing the run.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:    fields[0],
		Runs:    runs,
		Metrics: map[string]float64{},
		Raw:     line,
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
