package hbmvolt

// Benchmark harness: one benchmark per paper table/figure. Each bench
// regenerates its figure end to end through the simulated platform and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduction numbers
// next to the timing. EXPERIMENTS.md records paper-vs-measured values.

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"hbmvolt/internal/core"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/service"
)

// BenchmarkFig2PowerSweep regenerates Fig. 2 (normalized power vs
// voltage per bandwidth) and reports the two headline savings factors.
func BenchmarkFig2PowerSweep(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	var res *PowerSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sys.RenderFig2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	s95, err := res.SavingsAt(0.95, 32)
	if err != nil {
		b.Fatal(err)
	}
	s85, err := res.SavingsAt(0.85, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s95, "savings@0.95V")
	b.ReportMetric(s85, "savings@0.85V(paper:2.3)")
}

// BenchmarkFig3AlphaCLF regenerates Fig. 3 and reports the active-
// capacitance drop at 0.85 V.
func BenchmarkFig3AlphaCLF(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	var res *PowerSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sys.RenderFig3(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	pt := res.At(0.85, 32)
	if pt == nil {
		b.Fatal("missing 0.85V point")
	}
	b.ReportMetric(pt.NormAlphaCLF, "alphaCLF@0.85V(paper:0.86)")
}

// BenchmarkFig4StackCurves regenerates Fig. 4 (faulty fraction per
// stack) over the full 8 GB device and reports the HBM1/HBM0 gap.
func BenchmarkFig4StackCurves(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	var curves []core.StackCurve
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = sys.RenderFig4(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Average HBM1/HBM0 ratio over the unsafe region (paper: ~1.13).
	var sum float64
	var n int
	for i, v := range curves[0].Grid {
		if v > 0.97 || v < 0.84 {
			continue
		}
		if f0 := curves[0].Fractions[i]; f0 > 0 {
			sum += curves[1].Fractions[i] / f0
			n++
		}
	}
	if n == 0 {
		// No unsafe-region grid point with a nonzero HBM0 fraction (e.g.
		// a custom grid or profile set): the ratio is undefined, not NaN.
		b.Skip("no nonzero HBM0 fractions in the unsafe region")
	}
	b.ReportMetric(sum/float64(n), "HBM1/HBM0(paper:1.13)")
}

// BenchmarkFig5FaultAtlas regenerates the per-PC fault atlas for both
// patterns and reports the polarity asymmetry.
func BenchmarkFig5FaultAtlas(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	for i := 0; i < b.N; i++ {
		if err := sys.RenderFig5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	fm := sys.Board.Faults
	var r01, r10 float64
	for _, v := range faults.VoltageGrid(0.94, 0.88) {
		for s := 0; s < faults.NumStacks; s++ {
			r01 += fm.StackFaultFraction(s, v, faults.ZeroToOne)
			r10 += fm.StackFaultFraction(s, v, faults.OneToZero)
		}
	}
	b.ReportMetric(r01/r10, "0to1/1to0(paper:1.21)")
}

// BenchmarkFig6UsablePCs regenerates the trade-off curves and reports
// the two anchors of §III-C.
func BenchmarkFig6UsablePCs(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	for i := 0; i < b.N; i++ {
		if err := sys.RenderFig6(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.UsablePCs(0.95, 0)), "faultfreePCs@0.95V(paper:7)")
	b.ReportMetric(float64(sys.UsablePCs(0.90, 1e-6)), "PCs@1e-6@0.90V(paper:16)")
}

// BenchmarkAlgorithm1 runs the paper's reliability tester (Monte-Carlo
// path) on one sensitive pseudo channel of a scaled board.
func BenchmarkAlgorithm1(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{Scale: 256})
	cfg := ReliabilityConfig{
		Ports:     []PortID{18},
		Patterns:  []Pattern{pattern.AllOnes()},
		Grid:      []float64{0.89},
		BatchSize: 3,
	}
	b.ResetTimer()
	var res *ReliabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sys.RunReliability(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].FaultRate(), "bitFaultRate@0.89V")
}

// BenchmarkReliabilitySweep measures the full-grid Algorithm 1 sweep
// (1.20V→0.81V, both patterns, every port, sparse sampler) under the
// sweep scheduler at increasing worker counts. Results are
// bit-identical at every worker count (pinned by the determinism test
// suite); only wall clock changes, so points/sec across the j=N
// sub-benchmarks is the scaling curve. CI emits these lines as
// BENCH_sweep.json so the perf trajectory is tracked per commit.
func BenchmarkReliabilitySweep(b *testing.B) {
	b.ReportAllocs()
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			b.ReportAllocs()
			sys := MustNew(Config{Scale: 8, SparseFaults: true})
			cfg := ReliabilityConfig{BatchSize: 2, Workers: j}
			b.ResetTimer()
			var res *ReliabilityResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sys.RunReliability(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Points))*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
			b.ReportMetric(float64(j), "workers")
		})
	}
}

// benchSweepRequest is the small reliability sweep the service
// benchmarks submit: one sensitive port, one pattern, two grid points.
func benchSweepRequest(seed uint64) service.SweepRequest {
	return service.SweepRequest{
		Kind:     service.KindReliability,
		Seed:     seed,
		Scale:    1024,
		Grid:     []float64{0.90, 0.89},
		Patterns: []string{"all1"},
		Ports:    []int{18},
		Batch:    2,
	}
}

// BenchmarkServiceSubmit measures the sweep service end to end over
// real HTTP: submit a small uncached reliability sweep, follow its
// event stream to completion, fetch the result. Every iteration uses a
// fresh device seed, so this is the cache-miss path — board build,
// scheduler run, payload marshal and transport included.
func BenchmarkServiceSubmit(b *testing.B) {
	b.ReportAllocs()
	srv, err := service.Open(service.Config{Workers: 1, CacheEntries: 4, MaxJobs: 64})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := service.NewClient(ts.URL)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.Submit(ctx, benchSweepRequest(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if state, err := c.Wait(ctx, sub.ID); err != nil || state != service.StateDone {
			b.Fatalf("state=%v err=%v", state, err)
		}
		if _, err := c.Result(ctx, sub.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sweeps/sec")
}

// BenchmarkServiceCacheHit measures the coalesced repeat path: the
// sweep ran once at setup, so every iteration is submit + result over
// HTTP served entirely from the fingerprint-keyed cache — the number
// that bounds how fast the daemon answers the many-identical-consumers
// workload.
func BenchmarkServiceCacheHit(b *testing.B) {
	b.ReportAllocs()
	srv, err := service.Open(service.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	c := service.NewClient(ts.URL)
	ctx := context.Background()
	warm, err := c.Submit(ctx, benchSweepRequest(1))
	if err != nil {
		b.Fatal(err)
	}
	if state, err := c.Wait(ctx, warm.ID); err != nil || state != service.StateDone {
		b.Fatalf("state=%v err=%v", state, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := c.Submit(ctx, benchSweepRequest(1))
		if err != nil {
			b.Fatal(err)
		}
		if !sub.CacheHit {
			b.Fatalf("iteration %d missed the cache: %+v", i, sub)
		}
		if _, err := c.Result(ctx, sub.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hits/sec")
	if runs := srv.Manager().Runs(); runs != 1 {
		b.Fatalf("cache-hit benchmark recomputed: %d runs", runs)
	}
}

// BenchmarkFigureSuiteAtlas regenerates every analytic figure twice per
// iteration against one system: the second pass is served entirely from
// the memoized rate atlas, so the per-iteration time (after the first)
// is the marginal cost of rendering, not of recomputing expectations.
func BenchmarkFigureSuiteAtlas(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	render := func() {
		if _, err := sys.RenderFig4(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := sys.RenderFig5(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := sys.RenderFig6(io.Discard); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RenderCapacityStudy(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		render()
		render()
	}
}

// BenchmarkGuardband locates Vmin analytically (the §III-B landmark).
func BenchmarkGuardband(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	var g Guardband
	for i := 0; i < b.N; i++ {
		var err error
		g, err = sys.Guardband()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(g.VMin, "Vmin(paper:0.98)")
	b.ReportMetric(g.Fraction*100, "guardband%(paper:19)")
}

// BenchmarkECCStudy runs the SEC-DED mitigation ablation (extension
// experiment) and reports the extended safe voltage.
func BenchmarkECCStudy(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	var study *ECCStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = sys.RunECCStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.VMinECC, "VminECC")
	b.ReportMetric(study.ExtraSafeSavings, "safeSavingsECC")
}

// BenchmarkPlanner measures a three-factor trade-off query.
func BenchmarkPlanner(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Plan(1e-6, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPMBusVoltageSet measures the full PMBus voltage-programming
// round trip (encode, PEC, regulator, rail propagation to both stacks).
func BenchmarkPMBusVoltageSet(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	for i := 0; i < b.N; i++ {
		v := 0.90 + float64(i%4)*0.01
		if err := sys.SetVoltage(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerMeasurement measures the INA226 measurement pipeline
// (rail sampling, averaging, register quantization, decode).
func BenchmarkPowerMeasurement(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	for i := 0; i < b.N; i++ {
		if _, err := sys.PowerWatts(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClusterFraction quantifies design choice #2 of
// DESIGN.md: how cluster concentration (vs uniform spread) changes the
// ECC failure onset, holding the PC-average fault rate fixed.
func BenchmarkAblationClusterFraction(b *testing.B) {
	b.ReportAllocs()
	var vmins [2]float64
	for i, frac := range []float64{0.08, 1.0} {
		cfg := faults.DefaultConfig()
		for p := range cfg.Profiles {
			cfg.Profiles[p].ClusterFraction = frac
		}
		fm, err := faults.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var study *core.ECCStudy
		for n := 0; n < b.N; n++ {
			study, err = core.RunECCStudy(fm, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		vmins[i] = study.VMinECC
	}
	b.ReportMetric(vmins[0], "VminECC@clustered")
	b.ReportMetric(vmins[1], "VminECC@uniform")
}

// BenchmarkAblationSwitchNetwork quantifies the cost of enabling the
// AXI switching network, which the paper disables (§II-C): aggregate
// bandwidth with and without it.
func BenchmarkAblationSwitchNetwork(b *testing.B) {
	b.ReportAllocs()
	direct := MustNew(Config{})
	switched := MustNew(Config{SwitchEnabled: true})
	var bwD, bwS float64
	for i := 0; i < b.N; i++ {
		bwD = direct.Board.AggregateBandwidthGBs()
		bwS = switched.Board.AggregateBandwidthGBs()
	}
	b.ReportMetric(bwD, "GB/s@direct(paper:310)")
	b.ReportMetric(bwS, "GB/s@switched")
}

// BenchmarkTempStudy sweeps operating temperature (extension study) and
// reports the guardband erosion across the deployment envelope.
func BenchmarkTempStudy(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	var study *TempStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = sys.RunTempStudy(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.Points[0].VMin, "Vmin@25C")
	b.ReportMetric(study.Points[len(study.Points)-1].VMin, "Vmin@55C")
}

// BenchmarkCapacityStudy compares allocation granularities (extension
// study) and reports the recovery at 0.92 V.
func BenchmarkCapacityStudy(b *testing.B) {
	b.ReportAllocs()
	sys := MustNew(Config{})
	var study *CapacityStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = sys.RunCapacityStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	pt := study.At(0.92)
	b.ReportMetric(pt.PCGranularBytes/(1<<30), "PCgranularGB@0.92V")
	b.ReportMetric(pt.RowGranularBytes/(1<<30), "rowGranularGB@0.92V")
}
