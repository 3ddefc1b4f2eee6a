// Command benchdiff compares a freshly generated BENCH_sweep.json
// against the committed baseline and fails on throughput regressions
// beyond a tolerance band. It closes the loop cmd/benchjson opened: CI
// used to emit benchmark artifacts that nothing ever read; with a
// baseline committed in the repository, every run now diffs its
// throughput metrics, allocs/op and B/op against it.
//
// Usage:
//
//	go run ./cmd/benchdiff -baseline BENCH_sweep.json -current new.json [-tolerance 0.25]
//
// Rules:
//
//   - throughput metrics (every unit ending in "/sec") are compared;
//     wall-clock ns/op is not, since it varies with runner hardware;
//   - absolute throughput also varies with runner hardware, so the
//     gate is fleet-relative: a metric regresses only when BOTH its
//     raw current/baseline ratio AND its ratio normalized by the
//     median ratio across all compared metrics fall below the band. A
//     runner uniformly 40% slower than the baseline machine drops
//     every raw ratio but leaves the normalized ones at ~1 (no
//     failure); genuine improvements elsewhere raise the median but
//     leave unimproved benchmarks' raw ratios in band (no failure); a
//     single benchmark collapsing fails both tests. (-normalize=false
//     gates on raw ratios alone; with fewer than three comparable
//     metrics normalization is skipped, since a median of the
//     regressing metric would mask it.)
//   - allocation metrics ("allocs/op" and "B/op") are lower-is-better
//     and do not depend on runner hardware, so they gate on raw values
//     alone, never normalized: a value above 1+tolerance times its
//     baseline regresses, and so does any value above a zero baseline.
//   - regressions exit 1; improvements are reported and never fail;
//   - benchmarks present on only one side are reported but tolerated,
//     so adding or renaming a benchmark does not require a lockstep
//     baseline update (the baseline refresh catches up on commit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Benchmark mirrors cmd/benchjson's record shape.
type Benchmark struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
	Raw     string             `json:"raw"`
}

// Report mirrors cmd/benchjson's document shape.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var (
	flagBaseline  = flag.String("baseline", "BENCH_sweep.json", "committed baseline report")
	flagCurrent   = flag.String("current", "", "freshly generated report to check (required)")
	flagTolerance = flag.Float64("tolerance", 0.25, "allowed fractional regression of a (normalized) throughput metric")
	flagNormalize = flag.Bool("normalize", true, "divide each ratio by the median ratio, cancelling uniform machine-speed differences")
)

func main() {
	flag.Parse()
	if *flagCurrent == "" || *flagTolerance < 0 || *flagTolerance >= 1 {
		flag.Usage()
		os.Exit(2)
	}
	regressions, err := run(*flagBaseline, *flagCurrent, *flagTolerance, *flagNormalize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) beyond the %.0f%% band\n",
			regressions, *flagTolerance*100)
		os.Exit(1)
	}
}

// procsSuffix matches the "-N" GOMAXPROCS suffix go test appends to
// benchmark names on multi-core machines (and omits at GOMAXPROCS=1).
var procsSuffix = regexp.MustCompile(`-\d+$`)

// normalizeName strips the GOMAXPROCS suffix so a baseline generated
// on a 1-core container compares against reports from multi-core
// runners: "BenchmarkCampaignRun/shared-4" and
// "BenchmarkCampaignRun/shared" are the same benchmark.
func normalizeName(name string) string {
	return procsSuffix.ReplaceAllString(name, "")
}

func load(path string) (map[string]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[normalizeName(b.Name)] = b
	}
	return out, nil
}

// comparison is one (benchmark, metric) pair present on both sides.
type comparison struct {
	name, metric string
	base, cur    float64
	ratio        float64
}

// lowerIsBetter are the allocation metrics gated alongside the
// throughput metrics. They do not depend on the runner, so they
// compare raw values.
var lowerIsBetter = []string{"allocs/op", "B/op"}

// run compares the throughput metrics (higher is better, normalized)
// and the allocation metrics (raw) of two reports and returns how many
// regressed beyond tolerance.
func run(basePath, curPath string, tolerance float64, normalize bool) (regressions int, err error) {
	base, err := load(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := load(curPath)
	if err != nil {
		return 0, err
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	var comps, counts []comparison
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("MISSING  %-55s (in baseline only; tolerated)\n", name)
			continue
		}
		comps = appendComparisons(comps, name, b, c)
		for _, metric := range lowerIsBetter {
			bv, bok := b.Metrics[metric]
			cv, cok := c.Metrics[metric]
			if bok && cok {
				counts = append(counts, comparison{name: name, metric: metric, base: bv, cur: cv})
			}
		}
	}
	if len(comps) == 0 && len(counts) == 0 {
		return 0, fmt.Errorf("no comparable metrics (*/sec, %v) between %s and %s",
			lowerIsBetter, basePath, curPath)
	}

	scale := 1.0
	if normalize && len(comps) >= 3 {
		scale = medianRatio(comps)
		fmt.Printf("machine-speed scale (median ratio): %.3f — ratios below are relative to it\n", scale)
	}

	for _, c := range comps {
		rel := c.ratio / scale
		switch {
		case c.ratio < 1-tolerance && rel < 1-tolerance:
			regressions++
			fmt.Printf("REGRESS  %-55s %-12s %12.4g -> %-12.4g (raw %.0f%%, fleet-relative %.0f%%)\n",
				c.name, c.metric, c.base, c.cur, c.ratio*100, rel*100)
		case c.ratio > 1+tolerance && rel > 1+tolerance:
			fmt.Printf("IMPROVE  %-55s %-12s %12.4g -> %-12.4g (raw %.0f%%, fleet-relative %.0f%%)\n",
				c.name, c.metric, c.base, c.cur, c.ratio*100, rel*100)
		default:
			fmt.Printf("OK       %-55s %-12s %12.4g -> %-12.4g (raw %.0f%%, fleet-relative %.0f%%)\n",
				c.name, c.metric, c.base, c.cur, c.ratio*100, rel*100)
		}
	}
	for _, c := range counts {
		// Compared as products, not a ratio, so a zero baseline gates
		// too: any allocation above it regresses.
		verdict := "OK      "
		switch {
		case c.cur > c.base*(1+tolerance):
			regressions++
			verdict = "REGRESS "
		case c.cur < c.base*(1-tolerance):
			verdict = "IMPROVE "
		}
		fmt.Printf("%s %-55s %-12s %12.4g -> %-12.4g (raw)\n",
			verdict, c.name, c.metric, c.base, c.cur)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("NEW      %-55s (not in baseline; tolerated)\n", name)
		}
	}
	return regressions, nil
}

// appendComparisons appends one comparison per throughput metric
// present on both sides of benchmark name with a positive baseline, in
// metric-name order.
func appendComparisons(comps []comparison, name string, b, c Benchmark) []comparison {
	metrics := make([]string, 0, len(b.Metrics))
	for metric := range b.Metrics {
		if strings.HasSuffix(metric, "/sec") {
			metrics = append(metrics, metric)
		}
	}
	sort.Strings(metrics)
	for _, metric := range metrics {
		bv := b.Metrics[metric]
		cv, cok := c.Metrics[metric]
		if !cok || bv <= 0 {
			continue
		}
		comps = append(comps, comparison{name: name, metric: metric, base: bv, cur: cv, ratio: cv / bv})
	}
	return comps
}

// medianRatio returns the median current/baseline ratio — the uniform
// machine-speed factor the normalization divides out.
func medianRatio(comps []comparison) float64 {
	ratios := make([]float64, len(comps))
	for i, c := range comps {
		ratios[i] = c.ratio
	}
	sort.Float64s(ratios)
	if n := len(ratios); n%2 == 1 {
		return ratios[n/2]
	} else {
		return (ratios[n/2-1] + ratios[n/2]) / 2
	}
}
