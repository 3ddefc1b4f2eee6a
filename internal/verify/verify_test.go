package verify

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbmvolt/internal/campaign"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvidence loads the committed paper-repro smoke artifacts — the
// byte-pinned payloads a live smoke campaign reproduces exactly — and
// collects claim evidence from them.
func goldenEvidence(t *testing.T) *Evidence {
	t.Helper()
	return CollectEvidence(goldenEnvelopes(t))
}

func goldenEnvelopes(t *testing.T) []campaign.CellEnvelope {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "campaign", "paper-repro-smoke-shared")
	var envs []campaign.CellEnvelope
	for _, name := range []string{"fig2-power", "faultmap", "ecc-mitigation", "algorithm1", "algorithm1-exact"} {
		data, err := os.ReadFile(filepath.Join(dir, name+".ndjson"))
		if err != nil {
			t.Fatalf("reading golden artifact: %v", err)
		}
		list, err := campaign.DecodeArtifact(data)
		if err != nil {
			t.Fatalf("decoding %s: %v", name, err)
		}
		for i, env := range list {
			envs = append(envs, campaign.CellEnvelope{Scenario: name, Index: i, Envelope: env})
		}
	}
	return envs
}

func TestBandBoundaryIsPass(t *testing.T) {
	b := Band{Lo: 1.5, Hi: 2.5}
	for _, tc := range []struct {
		x    float64
		want bool
	}{
		{1.5, true}, // exactly on the lower boundary: PASS
		{2.5, true}, // exactly on the upper boundary: PASS
		{2.0, true},
		{math.Nextafter(1.5, 0), false},
		{math.Nextafter(2.5, 3), false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		if got := b.Contains(tc.x); got != tc.want {
			t.Errorf("Band%v.Contains(%v) = %v, want %v", b, tc.x, got, tc.want)
		}
		ck := check("c", tc.x, b)
		if ck.Pass != tc.want {
			t.Errorf("check(%v).Pass = %v, want %v", tc.x, ck.Pass, tc.want)
		}
	}
	if got := Exactly(7); !got.Contains(7) || got.Contains(7.0000001) {
		t.Errorf("Exactly(7) misbehaves: %+v", got)
	}
	if pb := PercentBand(2.3, 10); !pb.Contains(2.07) || !pb.Contains(2.53) || pb.Contains(2.069) {
		t.Errorf("PercentBand(2.3, 10) = %+v: boundaries must be inclusive", pb)
	}
}

func TestMAPETypedErrors(t *testing.T) {
	cases := []struct {
		name      string
		obs, tr   []float64
		wantInErr string
	}{
		{"length mismatch", []float64{1}, []float64{1, 2}, "length mismatch"},
		{"empty", nil, nil, "no points"},
		{"nan observed", []float64{math.NaN()}, []float64{1}, "not finite"},
		{"inf truth", []float64{1}, []float64{math.Inf(1)}, "not finite"},
		{"zero denominator", []float64{1, 2}, []float64{1, 0}, "zero denominator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MAPE(tc.obs, tc.tr)
			if err == nil {
				t.Fatalf("MAPE(%v, %v): want error", tc.obs, tc.tr)
			}
			var ee *EvalError
			if !errors.As(err, &ee) {
				t.Fatalf("MAPE error is %T, want *EvalError", err)
			}
			if !strings.Contains(err.Error(), tc.wantInErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantInErr)
			}
		})
	}
	got, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatalf("MAPE happy path: %v", err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("MAPE = %v, want 10", got)
	}
}

func TestEvaluateMissingEvidenceIsTypedErrorNotPanic(t *testing.T) {
	rep := Evaluate(&Evidence{}, "empty", true)
	if rep.Claims == 0 || rep.Errored != rep.Claims || !rep.Failed() {
		t.Fatalf("empty evidence: got %d claims, %d errored, failed=%v; want all ERROR and failed",
			rep.Claims, rep.Errored, rep.Failed())
	}
	for _, v := range rep.Verdicts {
		if v.Status != StatusError || v.Error == "" {
			t.Errorf("claim %s: status %s error %q; want ERROR with message", v.Claim, v.Status, v.Error)
		}
	}
}

func TestEvaluateGoldenEvidenceConfirmsEveryClaim(t *testing.T) {
	rep := Evaluate(goldenEvidence(t), "paper-repro", true)
	if rep.Failed() {
		for _, v := range rep.Verdicts {
			if v.Status != StatusConfirmed {
				t.Errorf("claim %s: %s (%s)", v.Claim, v.Status, v.Error)
				for _, c := range v.Checks {
					if !c.Pass {
						t.Errorf("  check %s: %v outside [%v, %v]", c.Name, c.Observed, c.Band.Lo, c.Band.Hi)
					}
				}
			}
		}
		t.Fatalf("golden evidence must confirm every claim: %d refuted, %d errored", rep.Refuted, rep.Errored)
	}
	if rep.Claims < 6 {
		t.Fatalf("registry has %d claims; the verifier promises at least 6", rep.Claims)
	}

	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("..", "..", "testdata", "verify", "verdicts.golden.json"), blob)

	var buf bytes.Buffer
	if err := WriteFindings(&buf, rep); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("..", "..", "testdata", "verify", "findings.golden.md"), buf.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; run with -update after verifying the change", filepath.Base(path))
	}
}

// TestPerturbedPayloadRefutesDirectionalControl proves the gate trips:
// a payload whose fault counts dip as voltage drops — physically
// impossible under the model — must flip the directional-control claim
// to REFUTED and fail the report.
func TestPerturbedPayloadRefutesDirectionalControl(t *testing.T) {
	envs := goldenEnvelopes(t)
	perturbed := false
	for _, ce := range envs {
		r := ce.Envelope.Reliability
		if r == nil || len(r.Points) < 25 {
			continue
		}
		for i := 1; i < len(r.Points); i++ {
			prev := r.Points[i-1]
			if prev.MeanFlips >= 100 && !r.Points[i].Crashed {
				// A >2%-beyond-slack drop mid-curve.
				r.Points[i].MeanFlips = prev.MeanFlips * 0.5
				perturbed = true
				break
			}
		}
	}
	if !perturbed {
		t.Fatal("found no developed-region point to perturb")
	}
	rep := Evaluate(CollectEvidence(envs), "paper-repro", true)
	if !rep.Failed() {
		t.Fatal("perturbed payload did not trip the gate")
	}
	found := false
	for _, v := range rep.Verdicts {
		if v.Claim != "fault-onset-monotonic" {
			continue
		}
		found = true
		if v.Status != StatusRefuted {
			t.Fatalf("directional control is %s, want REFUTED", v.Status)
		}
		sawViolation := false
		for _, c := range v.Checks {
			if c.Name == "monotonic_violations" && !c.Pass && c.Observed >= 1 {
				sawViolation = true
			}
		}
		if !sawViolation {
			t.Errorf("REFUTED verdict does not count the monotonicity violation: %+v", v.Checks)
		}
	}
	if !found {
		t.Fatal("fault-onset-monotonic not in report")
	}
	if rep.Refuted == 0 {
		t.Error("report does not count the refuted claim")
	}
}

func TestFig4GroundTruthExportInSync(t *testing.T) {
	blob, err := fig4GroundTruthJSON()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("..", "..", "testdata", "verify", "fig4_ground_truth.json"), blob)
}

func TestRunSmokeCampaignMatchesGoldenEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("live smoke campaign in -short mode")
	}
	rep, err := Run(t.Context(), Options{Smoke: true, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	live, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "verify", "verdicts.golden.json"))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(live, golden) {
		t.Error("live smoke verify drifted from the golden verdicts; the campaign payloads or claim bands changed")
	}
}
