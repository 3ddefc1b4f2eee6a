package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hbmvolt/internal/fleet"
)

// TestDeviceSeeds pins the input contract: a seed always derives the
// same device seeds, and two seeds share no cache key.
func TestDeviceSeeds(t *testing.T) {
	keys := map[uint64]uint64{}
	for _, seed := range []uint64{1, 2} {
		for i := uint64(0); i < 512; i++ {
			s := deviceSeed(seed, "miss", i)
			if s == 0 || s != deviceSeed(seed, "miss", i) {
				t.Fatalf("seed %d op %d: device seed %d is zero or unstable", seed, i, s)
			}
			_, key, err := keyed(smallSweep(s))
			if err != nil {
				t.Fatal(err)
			}
			if other, dup := keys[key]; dup && other != seed {
				t.Fatalf("seeds %d and %d share cache key %016x", other, seed, key)
			}
			keys[key] = seed
		}
	}
	if deviceSeed(1, "sweep", 0) == deviceSeed(1, "campaign", 0) {
		t.Fatal("streams share a device seed")
	}
}

// TestOwnerSchedule pins serve-miss's 3:1 schedule: op i is owned by
// node B exactly when i%4 == 3, and one seed always picks the same
// requests.
func TestOwnerSchedule(t *testing.T) {
	fwd, err := fleet.New(fleet.Options{Self: nodeA, Peers: []string{nodeB}})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	for i := 0; i < 64; i++ {
		req, key, err := ownedSweep(7, "miss", i, missOwner(i), fwd.Owner)
		if err != nil {
			t.Fatal(err)
		}
		want := nodeA
		if i%4 == 3 {
			want = nodeB
		}
		if got := fwd.Owner(key); got != want {
			t.Fatalf("op %d: owner %s, want %s", i, got, want)
		}
		again, _, _ := ownedSweep(7, "miss", i, missOwner(i), fwd.Owner)
		if again.Seed != req.Seed {
			t.Fatalf("op %d: seed 7 picked device %d, then %d", i, req.Seed, again.Seed)
		}
	}
}

func TestTail(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		ok        bool
		value     float64
		pct, want float64
	}{
		{n: 0},
		{n: 10},
		{n: 11, ok: true, value: 1, pct: 100.0 / 11},
		{n: 20, ok: true, value: 10, pct: 50},
		{n: 100, ok: true, value: 90, pct: 90},
		{n: 101, ok: true, value: 91, pct: 90}, // the p90 is the 11th-largest
		// From 100 samples on, the p90 by nearest rank, from the histogram.
		{n: 1000, ok: true, value: 900, pct: 90},
		{n: 100000, ok: true, value: 90000, pct: 90},
	} {
		h := newLatencyHist()
		for _, x := range series(tc.n) {
			h.add(x)
		}
		v, pct, ok := h.tail()
		if ok != tc.ok || math.Abs(v-tc.value) > tc.value*2/histPerLn || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: got %v at p%v (ok %v), want %v at p%v (ok %v)", tc.n, v, pct, ok, tc.value, tc.pct, tc.ok)
		}
	}
	// sweep and campaign: the p90 of their first ten ops by nearest rank,
	// however many ops the run completes.
	ph := phase{lat: newLatencyHist()}
	for i, x := range series(13) {
		ph.lat.add(x)
		if i < headOps {
			ph.head = append(ph.head, x)
		}
	}
	if v, pct, ok := ph.tail(); !ok || v != 12 || pct != 90 {
		t.Errorf("head tail: got %v at p%v (ok %v), want 12 at p90", v, pct, ok)
	}
}

// TestOpLog checks that every op's record is one JSON line.
func TestOpLog(t *testing.T) {
	t.Setenv("PERFBENCH_BUILD", t.TempDir())
	log, err := createOpLog("sweep")
	if err != nil {
		t.Fatal(err)
	}
	rec := opRecord{seed: 1<<63 + 5, latency: 1500 * time.Microsecond, flips: 2.5e10, sha: sha256.Sum256([]byte("x"))}
	log.write(0, rec)
	log.write(1, opRecord{})
	if err := log.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(log.path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var got struct {
		Op        int     `json:"op"`
		Seed      uint64  `json:"device_seed"`
		LatencyMS float64 `json:"latency_ms"`
		Flips     float64 `json:"flips"`
		SHA256    string  `json:"sha256"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != 0 || got.Seed != rec.seed || got.LatencyMS != 1.5 || got.Flips != rec.flips || got.SHA256 != hex.EncodeToString(rec.sha[:]) {
		t.Errorf("line %s decoded to %+v", lines[0], got)
	}
}

// TestLatencyHist checks the histogram's median against the exact one
// within a bucket's width, and that merging two halves equals adding all.
func TestLatencyHist(t *testing.T) {
	for _, n := range []int{1, 2, 11, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 0.05 * math.Exp(float64(i*7919%n)/float64(n)*6) // 0.05 ms .. 20 ms, shuffled
		}
		whole, a, b := newLatencyHist(), newLatencyHist(), newLatencyHist()
		for i, x := range xs {
			whole.add(x)
			if i%2 == 0 {
				a.add(x)
			} else {
				b.add(x)
			}
		}
		a.merge(b)
		exact := median(xs)
		for name, h := range map[string]*latencyHist{"whole": whole, "merged": a} {
			if got := h.quantile(0.5); math.Abs(got/exact-1) > 1.0/histPerLn {
				t.Errorf("n=%d %s: median %v, exact %v", n, name, got, exact)
			}
		}
		wv, _, wok := whole.tail()
		mv, _, mok := a.tail()
		if wv != mv || wok != mok || a.n != n {
			t.Errorf("n=%d: merged tail %v (ok %v, n %d), whole %v (ok %v)", n, mv, mok, a.n, wv, wok)
		}
	}
	if got := newLatencyHist().quantile(0.5); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestHistQuantile(t *testing.T) {
	s := snapshot{
		`a/h_bucket{le="0.001"}`: 0,
		`a/h_bucket{le="0.01"}`:  50,
		`a/h_bucket{le="0.1"}`:   100,
		`a/h_bucket{le="+Inf"}`:  100,
	}
	if got := s.histQuantile("a", "h", 0.5); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("p50 = %v, want 0.01", got)
	}
	if got := s.histQuantile("a", "h", 0.25); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("p25 = %v, want 0.0055", got)
	}
	if got := (snapshot{}).histQuantile("a", "h", 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v", got)
	}
}

// TestAttribution maps known stacks (innermost frame first) to their
// modules and cumulative shares.
func TestAttribution(t *testing.T) {
	kernel := []string{
		"internal/reflectlite.Swapper.func9",
		"sort.insertionSort_func",
		"sort.Slice",
		fnKernel,
		"hbmvolt/internal/faults.(*Sampler).sparseRange",
		"hbmvolt/internal/axi.(*TrafficGen).Run",
		"hbmvolt/internal/core.runPorts",
		"hbmvolt.(*System).RunReliability",
		"main.main",
	}
	lruGet := []string{
		"runtime.mapaccess2",
		"hbmvolt/internal/lru.(*Cache[go.shape.struct { Fingerprint uint64; Sparse bool },go.shape.*uint8]).Get",
		"hbmvolt/internal/faults.(*enumStore).getOutcome",
	}
	network := []string{
		"internal/runtime/syscall.Syscall6",
		"syscall.RawSyscall6",
		"syscall.write",
		"internal/poll.(*FD).Write",
		"net.(*conn).Write",
		"net/http.(*persistConn).writeLoop",
	}
	fsync := []string{"syscall.Fsync", "os.(*File).Sync", fnDiskWrite, "hbmvolt/internal/service.(*Manager).runJob"}
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{kernel, "faults"},
		{lruGet, "lru"},
		{network, ""},
		{fsync, "service"},
		{[]string{"hbmvolt/internal/telemetry/log.(*Logger).Warn"}, "telemetry"},
		{[]string{"hbmvolt/perfbench.spin"}, "harness"},
	} {
		if got := selfModule(tc.stack); got != tc.want {
			t.Errorf("selfModule(%s) = %q, want %q", tc.stack[0], got, tc.want)
		}
	}
	shares := cpuShares([]sample{
		{stack: kernel, nanos: 6},
		{stack: network, nanos: 2},
		{stack: fsync, nanos: 2},
		{stack: []string{"main.check"}, nanos: 10, labels: map[string]string{checkLabel: "check"}},
	})
	for k, want := range map[string]float64{
		"faults.kernel_cpu_share":      0.6,
		"faults.sort_cpu_share":        0.6,
		"faults.cpu_share":             0.6,
		"transport.cpu_share":          0.2,
		"service.cpu_share":            0.2,
		"service.disk_write_cpu_share": 0.2,
		"harness.check_cpu_share":      0.5,
	} {
		if math.Abs(shares[k]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, shares[k], want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseProfile decodes a real CPU profile and finds the busy loop.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") && s.nanos > 0 {
				if m := module(pkgOf(fn)); m != "harness" {
					t.Fatalf("%s attributed to %q", fn, m)
				}
				return
			}
		}
	}
	t.Fatalf("no sample of spinForProfile among %d samples", len(samples))
}
