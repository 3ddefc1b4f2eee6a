package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"hbmvolt"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
)

// opRecord is one completed op.
type opRecord struct {
	seed    uint64        // device seed the op simulated
	latency time.Duration // time inside the program's public calls
	flips   float64       // batch-mean flips the op's results report
	sha     [32]byte      // SHA-256 of the op's result bytes
}

// workload is one input set after set-up: a closed loop calls op with
// increasing indices, one op in flight.
type workload interface {
	// op runs operation i and checks its output. sp, when non-nil,
	// collects the harness's timers around the public calls.
	op(ctx context.Context, i int, sp spans) (opRecord, error)
	// counters snapshots the public stats the per-layer ledger reads.
	counters() snapshot
	// close releases everything set-up built.
	close()
}

// spans collects the traced run's timers, in milliseconds by name. A nil
// spans records nothing.
type spans map[string][]float64

func (s spans) add(name string, d time.Duration) {
	if s != nil {
		s[name] = append(s[name], ms(d))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checked runs an output check under the profiler label that keeps the
// harness's own checking out of every layer's CPU share.
func checked(ctx context.Context, check func() error) (err error) {
	pprof.Do(ctx, pprof.Labels(checkLabel, "check"), func(context.Context) { err = check() })
	return err
}

// enumCounters adds the process-wide enum store's counters to s.
func enumCounters(s snapshot) {
	st := faults.EnumStoreStats()
	s["enum/hits"] = float64(st.Hits)
	s["enum/misses"] = float64(st.Misses)
	s["enum/coalesced"] = float64(st.Coalesced)
	s["enum/computes"] = float64(st.Computes)
}

// ---- sweep -------------------------------------------------------------

// sweepScale is the board scale of the sweep workload. Five interleaved
// runs each at scales 32 and 64 on the 2-core reference machine spread
// alike (IQR/median 0.04–0.10), so it stays at 64: about 2.5 s per
// full-grid op.
const sweepScale = 64

// safeVolts is the lowest voltage of the guardband, where no faults may
// appear.
const safeVolts = 0.98

// sweepWorkload is a full paper-grid Algorithm 1 sweep per op: a fresh
// device (hbmvolt.New) swept over all 32 ports, both patterns, batch 2,
// with one sweep worker.
type sweepWorkload struct{ seed uint64 }

// warmGrid is the set-up sweep's grid: the nominal voltage and the two
// voltages the output check compares.
var warmGrid = []float64{hbmvolt.VNom, 0.95, 0.85}

func setupSweep(ctx context.Context, seed uint64, rep int) (workload, error) {
	w := &sweepWorkload{seed: seed}
	// Warm-up: one checked short-grid sweep of a set-up-stream device.
	if _, err := w.sweep(ctx, deviceSeed(seed, "sweep-setup", uint64(rep)), warmGrid, nil); err != nil {
		return nil, fmt.Errorf("sweep warm-up: %w", err)
	}
	return w, nil
}

func (w *sweepWorkload) op(ctx context.Context, i int, sp spans) (opRecord, error) {
	return w.sweep(ctx, deviceSeed(w.seed, "sweep", uint64(i)), nil, sp)
}

// sweep runs and checks one sweep of device seed over grid (nil: the
// paper's 1.20 V → 0.81 V ladder).
func (w *sweepWorkload) sweep(ctx context.Context, seed uint64, grid []float64, sp spans) (opRecord, error) {
	rec := opRecord{seed: seed}
	start := time.Now()
	sys, err := hbmvolt.New(hbmvolt.Config{Seed: seed, Scale: sweepScale, SparseFaults: true})
	if err != nil {
		return rec, err
	}
	sp.add("hbmvolt.New", time.Since(start))
	cfg := hbmvolt.ReliabilityConfig{BatchSize: 2, Workers: 1, Grid: grid}
	if sp != nil {
		last := time.Now()
		cfg.OnPoint = func(p hbmvolt.SweepProgress) {
			now := time.Now()
			name := "core.point_unsafe"
			if p.Volts >= safeVolts-hbmvolt.VStep/2 {
				name = "core.point_safe"
			}
			sp.add(name, now.Sub(last))
			last = now
		}
	}
	run := time.Now()
	res, err := sys.RunReliability(cfg)
	rec.latency = time.Since(start)
	sp.add("RunReliability", time.Since(run))
	if err != nil {
		return rec, err
	}
	err = checked(ctx, func() error {
		rec.sha = sweepDigest(res)
		for _, pt := range res.Points {
			rec.flips += pt.MeanFlips
			if pt.Volts >= safeVolts-hbmvolt.VStep/2 && pt.MeanFlips != 0 {
				return fmt.Errorf("%.1f flips at %.2f V, inside the guardband", pt.MeanFlips, pt.Volts)
			}
		}
		p85, p95 := res.Point(0.85), res.Point(0.95)
		if p85 == nil || p95 == nil {
			return errors.New("sweep lacks the 0.85 V or 0.95 V point")
		}
		if !(p85.MeanFlips > p95.MeanFlips) {
			return fmt.Errorf("flips at 0.85 V (%.1f) not above 0.95 V (%.1f)", p85.MeanFlips, p95.MeanFlips)
		}
		return nil
	})
	return rec, err
}

// sweepDigest hashes every simulated statistic of a sweep in a fixed
// binary layout: two sweeps digest equal iff their results are equal.
func sweepDigest(res *hbmvolt.ReliabilityResult) [32]byte {
	var b []byte
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	f(res.Margin)
	for _, pt := range res.Points {
		f(pt.Volts)
		if pt.Crashed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		f(pt.MeanFlips)
		f(pt.BitsChecked)
		f(pt.Flips10)
		f(pt.Flips01)
		for _, o := range pt.Observations {
			b = binary.LittleEndian.AppendUint64(b, uint64(o.Port))
			b = append(b, o.Pattern...)
			f(o.MeanFlips)
			f(o.MeanFaulty)
			b = binary.LittleEndian.AppendUint64(b, o.WordsPerRun)
			f(o.BitFaultRate)
			f(o.Batch.Mean)
			f(o.Batch.Stddev)
		}
	}
	return sha256.Sum256(b)
}

func (w *sweepWorkload) counters() snapshot {
	s := snapshot{}
	enumCounters(s)
	return s
}

func (w *sweepWorkload) close() {}

// ---- campaign ----------------------------------------------------------

// goldenManifest is the committed manifest of the built-in paper-repro
// smoke campaign under shared enumeration, at its default seeds.
var goldenManifest = filepath.Join("testdata", "campaign", "paper-repro-smoke-shared", "manifest.json")

// campaignWorkload runs the built-in paper-repro smoke campaign per op,
// through the sweep planner (shared enumeration) with one job at a time,
// every scenario re-seeded with the op's device seed.
type campaignWorkload struct {
	seed  uint64
	reg   *telemetry.Registry // the campaign managers report into it
	cells int
	plan  hbmvolt.CampaignManifest
}

func setupCampaign(ctx context.Context, seed uint64, rep int) (workload, error) {
	w := &campaignWorkload{seed: seed, reg: telemetry.NewRegistry()}
	spec := hbmvolt.PaperReproCampaign(true)
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	w.cells = spec.CellTotal()

	// The spec at its default seeds must reproduce the golden manifest.
	golden, err := os.ReadFile(goldenManifest)
	if err != nil {
		return nil, err
	}
	res, err := hbmvolt.RunCampaign(ctx, hbmvolt.PaperReproCampaign(true), w.options(nil))
	if err != nil {
		return nil, fmt.Errorf("golden campaign: %w", err)
	}
	got, err := res.ManifestJSON()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, golden) {
		return nil, fmt.Errorf("golden campaign: manifest differs from %s", goldenManifest)
	}
	if err := fillEnumStore(deviceSeed(seed, "enum-fill", uint64(rep))); err != nil {
		return nil, err
	}
	return w, nil
}

// fillEnumStore fills the process-wide enum store to its byte bound with
// enumerations of a device no op simulates, so every timed op evicts
// about as much as it adds and peak RSS does not grow with the number of
// ops a run completes. Two goroutines fill it, one per CPU.
func fillEnumStore(seed uint64) error {
	cfg := faults.DefaultConfig()
	cfg.Seed = seed
	cfg.SparseEnumeration = true
	m, err := faults.New(cfg)
	if err != nil {
		return err
	}
	// Every set-up inserts a full store's worth of new entries, evicting
	// the previous set-up's, so repeated set-ups cost the same.
	target := faults.EnumStoreStats().MaxBytes
	const maxCalls = 1 << 14 // bounds a fill whose entries stop growing
	var added [2]int64
	var wg sync.WaitGroup
	for g := range added {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 0.92 V on a full sensitive pseudo channel enumerates about
			// 450 KB of faults per call, the densest fill per CPU second
			// measured.
			for rep := uint64(g); rep < maxCalls && added[g] < target/2; rep += 2 {
				pc := faults.SensitivePCs[rep%uint64(len(faults.SensitivePCs))]
				e := m.SharedEnumeration(pc/faults.PCsPerStack, pc%faults.PCsPerStack, 0.92, rep, m.Geometry().WordsPerPC)
				added[g] += int64(e.SizeBytes())
			}
		}()
	}
	wg.Wait()
	if added[0]+added[1] < target {
		return fmt.Errorf("enum store fill stopped at %d of %d bytes", added[0]+added[1], target)
	}
	return nil
}

// options are the campaign options of every op: one job, the planner's
// shared enumeration, the workload's registry.
func (w *campaignWorkload) options(onCell func(done, total int)) hbmvolt.CampaignOptions {
	return hbmvolt.CampaignOptions{Jobs: 1, SharedEnumeration: true, Metrics: w.reg, OnCell: onCell}
}

func (w *campaignWorkload) op(ctx context.Context, i int, sp spans) (opRecord, error) {
	rec := opRecord{seed: deviceSeed(w.seed, "campaign", uint64(i))}
	spec := hbmvolt.PaperReproCampaign(true)
	for k := range spec.Scenarios {
		spec.Scenarios[k].Seeds = []uint64{rec.seed}
	}
	var onCell func(done, total int)
	if sp != nil {
		last := time.Now()
		onCell = func(done, total int) {
			now := time.Now()
			sp.add("campaign.cell", now.Sub(last))
			last = now
		}
	}
	start := time.Now()
	res, err := hbmvolt.RunCampaign(ctx, spec, w.options(onCell))
	if err != nil {
		return rec, err
	}
	manifest, err := res.ManifestJSON()
	rec.latency = time.Since(start)
	sp.add("RunCampaign", rec.latency)
	if err != nil {
		return rec, err
	}
	err = checked(ctx, func() error {
		rec.sha = sha256.Sum256(manifest)
		if res.Manifest.Cells != w.cells {
			return fmt.Errorf("manifest has %d cells, spec has %d", res.Manifest.Cells, w.cells)
		}
		if res.Manifest.Plan == nil {
			return errors.New("manifest lacks the plan section")
		}
		w.plan = res.Manifest
		for _, sr := range res.Scenarios {
			for _, cr := range sr.Cells {
				if sr.Kind != service.KindReliability {
					continue
				}
				env, err := service.DecodeResult(cr.Payload)
				if err != nil {
					return err
				}
				for _, pt := range env.Reliability.Points {
					rec.flips += pt.MeanFlips
				}
			}
		}
		return nil
	})
	return rec, err
}

func (w *campaignWorkload) counters() snapshot {
	s := snapshot{}
	enumCounters(s)
	s.scrape("campaign", w.reg)
	return s
}

func (w *campaignWorkload) close() {}
