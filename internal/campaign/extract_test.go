package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"hbmvolt/internal/service"
)

func TestDecodeArtifactAndEnvelopes(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "campaign", "paper-repro-smoke-shared")
	cases := []struct {
		artifact string
		kind     string
	}{
		{"fig2-power.ndjson", service.KindPower},
		{"faultmap.ndjson", service.KindFaultMap},
		{"ecc-mitigation.ndjson", service.KindECCStudy},
		{"algorithm1.ndjson", service.KindReliability},
	}
	res := &Result{Spec: Spec{Name: "paper-repro"}}
	for _, tc := range cases {
		data, err := os.ReadFile(filepath.Join(dir, tc.artifact))
		if err != nil {
			t.Fatalf("reading golden artifact: %v", err)
		}
		envs, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("DecodeArtifact(%s): %v", tc.artifact, err)
		}
		if len(envs) == 0 {
			t.Fatalf("DecodeArtifact(%s): no envelopes", tc.artifact)
		}
		sr := ScenarioResult{Name: tc.artifact, Kind: tc.kind}
		for i, env := range envs {
			if env.Kind != tc.kind {
				t.Errorf("%s line %d: kind %q, want %q", tc.artifact, i+1, env.Kind, tc.kind)
			}
			// Exactly one typed result must be populated, matching Kind.
			set := 0
			if env.Reliability != nil {
				set++
			}
			if env.Power != nil {
				set++
			}
			if env.FaultMap != nil {
				set++
			}
			if env.ECC != nil {
				set++
			}
			if set != 1 {
				t.Errorf("%s line %d: %d typed results set, want exactly 1", tc.artifact, i+1, set)
			}
			// Rebuild a Result cell so (*Result).Envelopes is exercised on
			// the same payload bytes.
			sr.Cells = append(sr.Cells, CellResult{
				Cell:    Cell{Scenario: tc.artifact, Index: i},
				Payload: payloadLine(t, data, i),
			})
		}
		res.Scenarios = append(res.Scenarios, sr)
	}

	all, err := res.Envelopes()
	if err != nil {
		t.Fatalf("Envelopes: %v", err)
	}
	total := 0
	for _, sr := range res.Scenarios {
		total += len(sr.Cells)
	}
	if len(all) != total {
		t.Fatalf("Envelopes returned %d entries, want %d", len(all), total)
	}

	rel, err := res.EnvelopesByKind(service.KindReliability)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) == 0 {
		t.Fatal("EnvelopesByKind(reliability) empty")
	}
	for _, ce := range rel {
		if ce.Envelope.Kind != service.KindReliability || ce.Envelope.Reliability == nil {
			t.Fatalf("EnvelopesByKind returned %q for scenario %s", ce.Envelope.Kind, ce.Scenario)
		}
	}

	if _, err := DecodeArtifact([]byte("{not json}\n")); err == nil {
		t.Fatal("DecodeArtifact accepted malformed NDJSON")
	}
}

// payloadLine extracts the i-th NDJSON line, newline included, the way
// WriteArtifacts concatenates payloads.
func payloadLine(t *testing.T, data []byte, i int) []byte {
	t.Helper()
	start := 0
	for n := 0; start < len(data); n++ {
		end := start
		for end < len(data) && data[end] != '\n' {
			end++
		}
		if end < len(data) {
			end++
		}
		if n == i {
			return data[start:end]
		}
		start = end
	}
	t.Fatalf("artifact has no line %d", i)
	return nil
}
