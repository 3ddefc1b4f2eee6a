package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbmvolt/internal/chaos"
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

// goldenManifest runs the spec uninterrupted (no journal, no disk
// cache) and returns its manifest bytes — the reference every resumed
// run must reproduce exactly.
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

func TestJournalRoundTrip(t *testing.T) {
	spec := recoverySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")

	j, err := openJournal(path, &spec, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(0, 0xabc, []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := j.append(3, 0xdef, []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := openJournal(path, &spec, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.replayed != 2 {
		t.Fatalf("replayed %d records, want 2", j2.replayed)
	}
	rec, ok := j2.completed(3)
	if !ok || rec.Key != fmt.Sprintf("%016x", 0xdef) || rec.Bytes != len("payload-b") {
		t.Fatalf("record 3 = %+v, %v", rec, ok)
	}
	if _, ok := j2.completed(1); ok {
		t.Fatal("phantom record")
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	spec := recoverySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, err := openJournal(path, &spec, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	j.append(0, 1, []byte("x"))
	j.append(1, 2, []byte("y"))
	j.Close()

	// Simulate a crash mid-append: a half-written record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"cell":2,"key":"00`)
	f.Close()

	j2, err := openJournal(path, &spec, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if j2.replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (torn tail dropped)", j2.replayed)
	}
	// The journal stays appendable on a clean line boundary.
	if err := j2.append(2, 3, []byte("z")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := openJournal(path, &spec, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.replayed != 3 {
		t.Fatalf("replayed %d records after post-truncation append, want 3", j3.replayed)
	}
}

// TestJournalNewlineLessFirstLine: a first line with no newline is a
// torn header only when it is a prefix of the header this open would
// write. Then the file is truncated and the journal starts fresh; any
// other file is refused and left byte for byte as it was.
func TestJournalNewlineLessFirstLine(t *testing.T) {
	spec := recoverySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "reference.ndjson")
	j, err := openJournal(ref, &spec, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	header, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		content string
		refused bool
	}{
		{"torn header", string(header[:len(header)/2]), false},
		{"foreign without newline", `{"important":"data"}`, true},
		{"foreign with newline", "{\"important\":\"data\"}\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := openJournal(path, &spec, 6, false)
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if tc.refused {
				if err == nil {
					j.Close()
					t.Fatal("openJournal accepted a file that is not this journal")
				}
				if string(got) != tc.content {
					t.Fatalf("refused file rewritten: %q, want %q", got, tc.content)
				}
				return
			}
			if err != nil {
				t.Fatalf("torn header refused: %v", err)
			}
			defer j.Close()
			if !bytes.Equal(got, header) || j.replayed != 0 {
				t.Fatalf("torn header resumed as %q with %d records, want a fresh header %q", got, j.replayed, header)
			}
			if err := j.append(0, 1, []byte("x")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestJournalRejectsForeignRealization(t *testing.T) {
	spec := recoverySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, err := openJournal(path, &spec, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Same journal, different planner mode: cell keys differ, so the
	// binding must refuse.
	if _, err := openJournal(path, &spec, 6, true); err == nil {
		t.Fatal("journal accepted a different planner mode")
	}
	// Different spec entirely.
	other := tinySpec()
	if err := other.Normalize(); err != nil {
		t.Fatal(err)
	}
	_, err = openJournal(path, &other, other.CellTotal(), false)
	if err == nil || !strings.Contains(err.Error(), "different campaign realization") {
		t.Fatalf("foreign spec error = %v", err)
	}
}

// TestCampaignInterruptAndResume is the tentpole's end-to-end claim,
// table-driven over where the "crash" lands: the campaign is cancelled
// after N cells have completed (N = 0, 1, mid, all-but-one of 6), then
// resumed over the same journal and cache directory. The resumed run
// serves journaled cells from the durable cache, recomputes the rest,
// and its manifest is byte-identical to an uninterrupted run's.
func TestCampaignInterruptAndResume(t *testing.T) {
	golden := goldenManifest(t)
	total := 6

	for _, interruptAfter := range []int{0, 1, 3, total - 1} {
		t.Run(fmt.Sprintf("after_%d_cells", interruptAfter), func(t *testing.T) {
			dir := t.TempDir()
			journalPath := filepath.Join(dir, "journal.ndjson")
			cacheDir := filepath.Join(dir, "cache")

			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			opts := Options{
				Jobs:     1, // serialize so "after N cells" is well-defined
				Journal:  journalPath,
				CacheDir: cacheDir,
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

			res, err := Run(t.Context(), recoverySpec(), Options{
				Jobs: 2, Journal: journalPath, CacheDir: cacheDir,
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
			// The finished journal records every cell, so a third run is a
			// pure replay: zero submissions reach a worker.
			res3, err := Run(t.Context(), recoverySpec(), Options{
				Jobs: 2, Journal: journalPath, CacheDir: cacheDir,
			})
			if err != nil {
				t.Fatal(err)
			}
			manifest3, err := res3.ManifestJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(manifest3, golden) {
				t.Fatal("replayed manifest differs from golden")
			}
		})
	}
}

// TestCampaignResumeSurvivesCorruptCacheEntry interposes storage-level
// damage between crash and resume: one journaled cell's disk-cache
// entry is bit-flipped and another's is truncated. The disk tier's
// read verification discards both, the engine recomputes exactly those
// cells, and the manifest still matches the golden run.
func TestCampaignResumeSurvivesCorruptCacheEntry(t *testing.T) {
	golden := goldenManifest(t)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.ndjson")
	cacheDir := filepath.Join(dir, "cache")

	if _, err := Run(t.Context(), recoverySpec(), Options{
		Jobs: 2, Journal: journalPath, CacheDir: cacheDir,
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
		Jobs: 2, Journal: journalPath, CacheDir: cacheDir,
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

// TestCampaignJournalAppendFault arms the journal.append chaos site so
// checkpointing itself fails mid-campaign; the campaign surfaces the
// error, and a rerun over the same (now partial) journal still
// converges to the golden manifest.
func TestCampaignJournalAppendFault(t *testing.T) {
	golden := goldenManifest(t)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.ndjson")
	cacheDir := filepath.Join(dir, "cache")

	restore := chaos.Activate(chaos.NewPlan().Set("journal.append", chaos.Fault{
		Err:   errors.New("injected journal I/O error"),
		After: 3, // header + two records succeed, the third append fails
		Count: 1,
	}))
	_, err := Run(t.Context(), recoverySpec(), Options{
		Jobs: 1, Journal: journalPath, CacheDir: cacheDir,
	})
	restore()
	if err == nil || !strings.Contains(err.Error(), "injected journal I/O error") {
		t.Fatalf("campaign error = %v, want the injected journal fault", err)
	}

	res, err := Run(t.Context(), recoverySpec(), Options{
		Jobs: 2, Journal: journalPath, CacheDir: cacheDir,
	})
	if err != nil {
		t.Fatalf("resume after journal fault failed: %v", err)
	}
	manifest, err := res.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest, golden) {
		t.Fatal("manifest after journal fault differs from golden")
	}
}
