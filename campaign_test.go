package hbmvolt

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"hbmvolt/internal/service"
)

// TestCampaignFig2MatchesLegacy pins the campaign engine's Fig. 2/3
// path to the legacy figures.go path byte for byte: the same device
// configuration rendered through System.RenderFig2/RenderFig3 and
// through a campaign power scenario's decoded payload must be
// indistinguishable.
func TestCampaignFig2MatchesLegacy(t *testing.T) {
	const scale = 1024

	// Legacy path: a live System (sparse sampler, matching the board the
	// service builds for the request below).
	sys, err := New(Config{Scale: scale, SparseFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if _, err := sys.RenderFig2(&legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RenderFig3(&legacy); err != nil {
		t.Fatal(err)
	}

	// Campaign path: the same experiment as a one-scenario spec.
	spec := CampaignSpec{
		Name: "fig2-pin",
		Scenarios: []CampaignScenario{{
			Name:   "fig2",
			Kind:   "power",
			Scales: []uint64{scale},
			Grid:   DisplayGrid(),
		}},
	}
	res, err := RunCampaign(context.Background(), spec, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env, err := service.DecodeResult(res.Scenarios[0].Cells[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if env.Power == nil {
		t.Fatal("power scenario returned no power result")
	}
	var viaCampaign bytes.Buffer
	if err := renderFig2(&viaCampaign, env.Request.Grid, env.Request.PortCounts, env.Power); err != nil {
		t.Fatal(err)
	}
	if err := renderFig3(&viaCampaign, env.Request.Grid, env.Request.PortCounts, env.Power); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(legacy.Bytes(), viaCampaign.Bytes()) {
		t.Fatalf("campaign Fig. 2/3 output differs from the legacy path:\n--- legacy ---\n%s\n--- campaign ---\n%s",
			legacy.String(), viaCampaign.String())
	}
}

// TestCampaignRenderAnalyticFigures pins the campaign renderers for the
// analytic scenarios (Figs. 4-6, ECC) to the legacy System renderers.
func TestCampaignRenderAnalyticFigures(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if _, err := sys.RenderFig4(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := sys.RenderFig5(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := sys.RenderFig6(&legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RenderECCStudy(&legacy); err != nil {
		t.Fatal(err)
	}

	spec := CampaignSpec{
		Name: "analytic-pin",
		Scenarios: []CampaignScenario{
			{Name: "fmap", Kind: "faultmap"},
			{Name: "ecc", Kind: "ecc-study"},
		},
	}
	res, err := RunCampaign(context.Background(), spec, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var viaCampaign bytes.Buffer
	for _, sr := range res.Scenarios {
		env, err := service.DecodeResult(sr.Cells[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := renderEnvelope(&viaCampaign, env); err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(legacy.Bytes(), viaCampaign.Bytes()) {
		t.Fatal("campaign analytic figure output differs from the legacy path")
	}
}

// TestCampaignPaperReproSmokeGolden is the golden-regression pin for
// the whole stack: the built-in paper-repro campaign at smoke scale
// must reproduce the committed manifest and NDJSON artifacts byte for
// byte, at -j 1 and at -j 8 (the acceptance worker counts). The
// benchmark harness (perfbench) reads the golden directory by its
// name, so the name stays. Regenerate with:
// go test -run TestCampaignPaperReproSmokeGolden -update .
func TestCampaignPaperReproSmokeGolden(t *testing.T) {
	checkSmokeGolden(t, CampaignOptions{})
}

// TestCampaignPaperReproSmokeSharedGolden: the SharedEnumeration option
// is a no-op kept for callers that still set it; a campaign run with it
// must produce the same golden bytes as one without.
func TestCampaignPaperReproSmokeSharedGolden(t *testing.T) {
	checkSmokeGolden(t, CampaignOptions{SharedEnumeration: true})
}

func checkSmokeGolden(t *testing.T, opts CampaignOptions) {
	t.Helper()
	run := func(jobs, fleet int) map[string][]byte {
		t.Helper()
		opts.Jobs, opts.Fleet = jobs, fleet
		res, err := RunCampaign(context.Background(), PaperReproCampaign(true), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Manifest.Plan == nil || res.Manifest.Plan.SharedCells == 0 {
			t.Fatal("smoke campaign carries no plan")
		}
		dir := t.TempDir()
		if err := res.WriteArtifacts(dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}

	j1 := run(1, 1)
	j8 := run(4, 8)
	if len(j1) != len(j8) {
		t.Fatalf("artifact sets differ across fleets: %d vs %d", len(j1), len(j8))
	}
	for name, data := range j1 {
		if !bytes.Equal(data, j8[name]) {
			t.Errorf("%s differs between -j 1 and -j 8", name)
		}
	}

	goldenDir := filepath.Join("testdata", "campaign", "paper-repro-smoke-shared")
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range j1 {
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	goldens, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("missing goldens (run with -update): %v", err)
	}
	if len(goldens) != len(j1) {
		t.Errorf("campaign wrote %d files, goldens have %d", len(j1), len(goldens))
	}
	for _, e := range goldens {
		want, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := j1[e.Name()]
		if !ok {
			t.Errorf("golden %s not produced by the run", e.Name())
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden; run with -update after verifying the change", e.Name())
		}
	}
}
