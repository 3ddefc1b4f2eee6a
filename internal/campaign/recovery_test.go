package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hbmvolt/internal/telemetry"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// recoverySpec is the crash-recovery suite's workload: six distinct
// reliability cells (3 seeds × 2 pattern sets), each cheap to compute.
func recoverySpec() Spec {
	return Spec{
		Name: "recovery",
		Scenarios: []Scenario{{
			Name:        "rel",
			Kind:        "reliability",
			Seeds:       []uint64{0, 1, 2},
			PatternSets: [][]string{{"all1"}, {"all0"}},
			Scales:      []uint64{1024},
			Grid:        []float64{0.90, 0.89},
			Ports:       []int{0},
			Batch:       1,
		}},
	}
}

// goldenManifest runs the spec uninterrupted (no disk cache) and
// returns its manifest bytes — the reference every resumed run must
// reproduce exactly.
func goldenManifest(t *testing.T) []byte {
	t.Helper()
	res, err := Run(t.Context(), recoverySpec(), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCampaignInterruptAndResume is the resume claim end to end,
// table-driven over where the "crash" lands: the campaign is cancelled
// after N cells have completed (N = 0, 1, mid, all-but-one of 6), then
// rerun over the same cache directory. The resumed run serves every
// cell the disk tier kept, recomputes exactly the rest, and its
// manifest is byte-identical to an uninterrupted run's; a third run is
// served from disk without a single sweep. The "planned_" runs set the
// no-op SharedEnumeration option, which must change no byte.
func TestCampaignInterruptAndResume(t *testing.T) {
	const total = 6
	golden := goldenManifest(t)
	for _, shared := range []bool{false, true} {
		prefix := ""
		if shared {
			prefix = "planned_"
		}
		for _, interruptAfter := range []int{0, 1, 3, total - 1} {
			t.Run(fmt.Sprintf("%safter_%d_cells", prefix, interruptAfter), func(t *testing.T) {
				cacheDir := filepath.Join(t.TempDir(), "cache")

				ctx, cancel := context.WithCancel(t.Context())
				defer cancel()
				opts := Options{
					Jobs:              1, // serialize so "after N cells" is well-defined
					CacheDir:          cacheDir,
					SharedEnumeration: shared,
					OnCell: func(done, _ int) {
						if done >= interruptAfter {
							cancel()
						}
					},
				}
				if interruptAfter == 0 {
					cancel() // crash before any cell completes
				}
				if _, err := Run(ctx, recoverySpec(), opts); err == nil {
					t.Fatal("interrupted run reported success")
				}
				// A worker may finish a cell between the cancel and the
				// shutdown, so count what actually reached the disk tier.
				entries, err := filepath.Glob(filepath.Join(cacheDir, "*.cache"))
				if err != nil {
					t.Fatal(err)
				}
				kept := len(entries)
				if kept < interruptAfter {
					t.Fatalf("%d cache entries after %d completed cells", kept, interruptAfter)
				}

				resume := func() telemetrytest.Series {
					t.Helper()
					reg := telemetry.NewRegistry()
					res, err := Run(t.Context(), recoverySpec(), Options{
						Jobs: 2, CacheDir: cacheDir, SharedEnumeration: shared, Metrics: reg,
					})
					if err != nil {
						t.Fatalf("resume failed: %v", err)
					}
					manifest, err := res.ManifestJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(manifest, golden) {
						t.Fatal("resumed manifest differs from uninterrupted golden run")
					}
					return telemetrytest.Scrape(t, reg.Handler())
				}
				const diskHits = `hbmvolt_cache_requests_total{tier="disk",outcome="hit"}`
				got := resume()
				if runs := got["hbmvolt_sweep_runs_total"]; runs != float64(total-kept) {
					t.Fatalf("resume ran %v sweeps, want %d (%d of %d cells on disk)", runs, total-kept, kept, total)
				}
				if hits := got[diskHits]; hits != float64(kept) {
					t.Fatalf("resume served %v cells from disk, want %d", hits, kept)
				}
				// Every cell is now on disk, so a third run executes nothing.
				got = resume()
				if runs := got["hbmvolt_sweep_runs_total"]; runs != 0 {
					t.Fatalf("third run ran %v sweeps, want 0", runs)
				}
				if hits := got[diskHits]; hits != total {
					t.Fatalf("third run served %v cells from disk, want %d", hits, total)
				}
			})
		}
	}
}

// TestCampaignResumeSurvivesCorruptCacheEntry interposes storage-level
// damage between crash and resume: one finished cell's disk-cache
// entry is bit-flipped and another's is truncated. The disk tier's
// read verification discards both, the engine recomputes exactly those
// cells, and the manifest still matches the golden run.
func TestCampaignResumeSurvivesCorruptCacheEntry(t *testing.T) {
	golden := goldenManifest(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	if _, err := Run(t.Context(), recoverySpec(), Options{
		Jobs: 2, CacheDir: cacheDir,
	}); err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.cache"))
	if err != nil || len(entries) != 6 {
		t.Fatalf("cache entries = %v (err %v), want 6", entries, err)
	}
	// Bit rot in one entry's payload...
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x80
	if err := os.WriteFile(entries[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// ...and a torn write in another.
	if err := os.Truncate(entries[1], 10); err != nil {
		t.Fatal(err)
	}

	res, err := Run(t.Context(), recoverySpec(), Options{
		Jobs: 2, CacheDir: cacheDir,
	})
	if err != nil {
		t.Fatalf("resume over damaged cache failed: %v", err)
	}
	manifest, err := res.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest, golden) {
		t.Fatal("manifest after cache damage differs from golden")
	}
	// The recomputed entries were re-persisted: all six are healthy again.
	entries, err = filepath.Glob(filepath.Join(cacheDir, "*.cache"))
	if err != nil || len(entries) != 6 {
		t.Fatalf("cache entries after recompute = %d, want 6", len(entries))
	}
}
