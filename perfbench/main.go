// Command perfbench is hbmvolt's end-to-end benchmark: a single-process,
// closed-loop load generator (one op in flight) that drives one workload
// through the program's public entry points and checks every output.
//
// Run it from the repository root through its launcher, which builds
// it:
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
//
// Workloads: sweep (hbmvolt.New + System.RunReliability), campaign
// (hbmvolt.RunCampaign), serve-hit and serve-miss (service.Client
// against two in-process fleet nodes). With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it runs a quarter of the time
// untraced, half traced (CPU profile, timers around the public calls,
// public counters) and a quarter untraced again, and prints the
// per-layer ledger. Every op's record (device seed, latency, flips,
// SHA-256 of its result) goes to ops-<workload>.ndjson in the build
// directory. The last line of standard output is one JSON object:
// correct, attempted, failed and metrics. DESIGN.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupFunc builds a workload; rep numbers the set-ups of one run.
type setupFunc func(ctx context.Context, seed uint64, rep int) (workload, error)

// workloadSpec is a workload's set-up, how many times a run sets it up
// (setup_s is the median; short set-ups take more), headOps: for a
// workload that completes only a few ops per run, the latency tail is
// taken over its first headOps ops, which every run completes, and
// oneProc: whether the run executes Go code on one CPU (GOMAXPROCS 1).
//
// With one op in flight, a second CPU adds no work, only hand-offs
// between threads, and on a shared host each one waits whenever the
// other vCPU is descheduled. Over five interleaved 15 s serve-hit runs
// per setting, one CPU spread 0.08 IQR/median in tail latency and 0.15
// in ops/s, two CPUs 0.34 and 0.34; sweep ran 11% faster per op on one.
// serve-miss keeps both: its forward measures node B computing while B
// answers A's submit, as separate daemons do. On one CPU B finishes
// the job before it answers, and the forward skips the status poll
// whose 100 ms sleep dominates it.
type workloadSpec struct {
	setup   setupFunc
	setups  int
	headOps int
	oneProc bool
}

var workloads = map[string]workloadSpec{
	"sweep":      {setupSweep, 5, headOps, true},
	"campaign":   {setupCampaign, 3, headOps, true},
	"serve-hit":  {setupServeHit, 5, 0, true},
	"serve-miss": {setupServeMiss, 3, 0, false},
}

const (
	// headOps is the fixed op count of sweep's and campaign's tail.
	headOps = 10
	// headQuantile is the percentile of their tail: the p90 of those ops
	// by nearest rank, the second-slowest of ten.
	headQuantile = 0.9
	// runBudget bounds a whole run, set-up included.
	runBudget = 170 * time.Second
	// digestOps is how many leading ops the results digest covers.
	digestOps = 8
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: sweep, campaign, serve-hit or serve-miss")
	seed := flag.Uint64("seed", 1, "workload seed; every device seed derives from it")
	seconds := flag.Float64("seconds", 15, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer ledger")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload sweep|campaign|serve-hit|serve-miss, --trace 0|1, --seconds > 0\n")
		return 2
	}
	if spec.oneProc {
		runtime.GOMAXPROCS(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	w, setupS, err := setUp(ctx, spec, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
		return 1
	}
	defer w.close()

	log, err := createOpLog(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var ph phase
	if *trace == 0 {
		// Run on until the tail exists: headOps ops, or for the other
		// workloads enough ops to leave tailSamples beyond it.
		atLeast := spec.headOps
		if atLeast == 0 {
			atLeast = tailSamples + 1
		}
		ph = measure(ctx, w, 0, d, atLeast, spec.headOps, nil, log)
		res = endToEnd(ph, setupS)
	} else {
		var lm map[string]metric
		ph, lm, err = traced(ctx, w, d, log)
		if err != nil {
			log.close()
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		res = result{Metrics: lm}
	}
	if err := log.close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.Attempted, res.Failed, res.Correct = ph.attempted, ph.failed, ph.failed == 0
	if err := report(*name, *seed, ph, res, log.path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// setUp builds the workload spec.setups times, each from scratch, and
// keeps the last. It returns the median set-up time in seconds.
func setUp(ctx context.Context, spec workloadSpec, seed uint64) (workload, float64, error) {
	var durs []float64
	var w workload
	for rep := 0; rep < spec.setups; rep++ {
		if w != nil {
			w.close()
			// Start every set-up from a collected heap, so peak RSS
			// reflects one set-up's state rather than a pile of them.
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if w, err = spec.setup(ctx, seed, rep); err != nil {
			return nil, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	return w, median(durs), nil
}

// phase is one timed loop's outcome. Its size does not depend on the
// number of ops.
type phase struct {
	attempted, failed int
	lat               *latencyHist
	head              []float64 // latencies of the first headOps ops
	flips             float64   // batch-mean flips summed over every op
	digest            hash.Hash // SHA-256 over the first digestOps ops' result digests
	wall              time.Duration
	cpu               time.Duration
}

// measure runs ops back to back from index first until d has passed and
// at least atLeast ops were attempted, keeping the latencies of the
// first head ops apart. It logs every op to log.
func measure(ctx context.Context, w workload, first int, d time.Duration, atLeast, head int, sp spans, log *opLog) phase {
	ph := phase{lat: newLatencyHist(), digest: sha256.New()}
	cpu0 := cpuTime()
	start := time.Now()
	for i := first; ctx.Err() == nil && (time.Since(start) < d || ph.attempted < atLeast); i++ {
		rec, err := w.op(ctx, i, sp)
		if ph.attempted < digestOps {
			ph.digest.Write(rec.sha[:])
		}
		if ph.attempted < head {
			ph.head = append(ph.head, ms(rec.latency))
		}
		ph.attempted++
		ph.lat.add(ms(rec.latency))
		ph.flips += rec.flips
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d (device seed %d): %v\n", i, rec.seed, err)
		}
		log.write(i, rec)
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	return ph
}

// merge adds o's ops to ph. ph keeps its digest and head, which cover
// the earlier ops.
func (ph *phase) merge(o phase) {
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.lat.merge(o.lat)
	ph.flips += o.flips
	ph.wall += o.wall
	ph.cpu += o.cpu
}

// cpuPerOp is the phase's CPU time per op in ms.
func (ph phase) cpuPerOp() float64 { return ms(ph.cpu) / float64(max(ph.attempted, 1)) }

// tail is the run's latency tail and its percentile: the p90 of the
// head ops for a workload that keeps them, else the highest percentile,
// at most tailCapPct, with tailSamples beyond it.
func (ph phase) tail() (value, pct float64, ok bool) {
	if len(ph.head) > 0 {
		return nearestRank(ph.head, headQuantile), 100 * headQuantile, true
	}
	return ph.lat.tail()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(ph phase, setupS float64) result {
	tailMS, _, _ := ph.tail()
	return result{Metrics: map[string]metric{
		"latency_p50_ms":  {ph.lat.quantile(0.5), "ms"},
		"latency_tail_ms": {tailMS, "ms"},
		"ops_per_s":       {float64(ph.attempted) / ph.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":   {ph.cpuPerOp(), "ms"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"setup_s":         {setupS, "s"},
	}}
}

// report prints the human-readable summary, the results digest and the
// JSON result line.
func report(name string, seed uint64, ph phase, res result, opsPath string) error {
	fmt.Printf("workload %s seed %d: %d ops in %.2f s, %d failed (error_rate %.4g)\n",
		name, seed, ph.attempted, ph.wall.Seconds(), ph.failed, float64(ph.failed)/float64(max(ph.attempted, 1)))
	// The tail is an end-to-end metric: untraced runs only.
	if _, e2e := res.Metrics["latency_tail_ms"]; e2e {
		if v, pct, _ := ph.tail(); len(ph.head) > 0 {
			fmt.Printf("latency tail: %.4g ms at p%.4g of the first %d ops (nearest rank)\n", v, pct, len(ph.head))
		} else {
			fmt.Printf("latency tail: %.4g ms at p%.4g (n=%d, the highest percentile up to p%d with %d samples beyond it)\n",
				v, pct, ph.lat.n, tailCapPct, tailSamples)
		}
	}
	// The digest covers the first ops of the timed loop, whose inputs the
	// seed fixes: equal digests across builds mean equal simulated
	// statistics and result bytes. The op log has every op's record.
	fmt.Printf("results digest: first %d ops sha256 %s; every op in %s of the build directory\n",
		min(digestOps, ph.attempted), hex.EncodeToString(ph.digest.Sum(nil)), filepath.Base(opsPath))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// ---- traced run --------------------------------------------------------

// runtimeCPU reads the Go runtime's cumulative CPU accounting: GC time
// and total busy (non-idle) time, in seconds.
func runtimeCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return val(0), val(1) - val(2)
}

// traced runs a quarter of d untraced, half under the CPU profiler, the
// harness's timers and counter snapshots, and a quarter untraced again,
// and returns all three phases' ops and the per-layer ledger. The two
// untraced phases bracket the traced one, so drift over the run does not
// read as tracing overhead, and their difference is its noise floor.
func traced(ctx context.Context, w workload, d time.Duration, log *opLog) (phase, map[string]metric, error) {
	before := measure(ctx, w, 0, d/4, 1, 0, nil, log)

	sp := spans{}
	snap0 := w.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, busy0 := runtimeCPU()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return phase{}, nil, err
	}
	ph := measure(ctx, w, before.attempted, d/2, 2, 0, sp, log)
	pprof.StopCPUProfile()
	gc1, busy1 := runtimeCPU()
	runtime.ReadMemStats(&ms1)
	counts := delta(snap0, w.counters())
	after := measure(ctx, w, before.attempted+ph.attempted, d/4, 1, 0, nil, log)

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return phase{}, nil, err
	}
	in := ledgerInput{
		w:       w,
		before:  before,
		after:   after,
		traced:  ph,
		spans:   sp,
		counts:  counts,
		shares:  cpuShares(samples),
		gcShare: (gc1 - gc0) / max(busy1-busy0, 1e-9),
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		allocs:  float64(ms1.Mallocs - ms0.Mallocs),
	}
	lm := ledger(in)
	// The run's outcome counts all three phases' ops; the digest stays
	// the first untraced phase's, which starts at op 0.
	all := before
	all.merge(ph)
	all.merge(after)
	return all, lm, nil
}

// opLog writes one NDJSON line per op (index, device seed, latency,
// flips, SHA-256 of the result) through a fixed-size buffer, so memory
// does not grow with the op count.
type opLog struct {
	path string
	f    *os.File
	w    *bufio.Writer
	line []byte
}

// createOpLog truncates the workload's op log in the build directory.
func createOpLog(name string) (*opLog, error) {
	path := filepath.Join(buildDir(), "ops-"+name+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &opLog{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

func (l *opLog) write(i int, rec opRecord) {
	b := append(l.line[:0], `{"op":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"device_seed":`...)
	b = strconv.AppendUint(b, rec.seed, 10)
	b = append(b, `,"latency_ms":`...)
	b = strconv.AppendFloat(b, ms(rec.latency), 'g', -1, 64)
	b = append(b, `,"flips":`...)
	b = strconv.AppendFloat(b, rec.flips, 'g', -1, 64)
	b = append(b, `,"sha256":"`...)
	b = hex.AppendEncode(b, rec.sha[:])
	b = append(b, "\"}\n"...)
	l.w.Write(b)
	l.line = b
}

func (l *opLog) close() error {
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
