package campaign

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzCampaignSpec drives the POST /v1/campaigns body path: Parse,
// Normalize, Expand. Every rejection must be a *SpecError (a 400, never
// a 500), and a normalized spec must survive a JSON round trip with the
// same cells under the same cache keys, so a resubmitted or resumed
// spec plans the identical campaign.
func FuzzCampaignSpec(f *testing.F) {
	seeds := []Spec{
		PaperRepro(false),
		PaperRepro(true),
		{Name: "rel", Scenarios: []Scenario{{Name: "a", Kind: "reliability",
			Seeds: []uint64{0, 1}, Scales: []uint64{1024}, Modes: []string{"sparse", "exact"},
			PatternSets: [][]string{{"all1"}, {"all0", "checker"}}, Grid: []float64{0.90}, Ports: []int{18}, Batch: 1}}},
		{Name: "pow", Scenarios: []Scenario{{Name: "a", Kind: "power",
			Noise: []float64{0, 0.01}, PortCounts: []int{1, 32}, Samples: 4, Repeat: 2}}},
		{Name: "fmap", Scenarios: []Scenario{{Name: "a", Kind: "faultmap", Seeds: []uint64{3}, Grid: []float64{0.95, 0.90}}}},
		{Name: "ecc", Scenarios: []Scenario{{Name: "a", Kind: "ecc-study", Grid: []float64{0.90}}}},
	}
	for _, s := range seeds {
		blob, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		isSpecError := func(stage string, err error) {
			t.Helper()
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("%s error %v is a %T, want a *SpecError", stage, err, err)
			}
		}
		spec, err := Parse(body)
		if err != nil {
			isSpecError("Parse", err)
			return
		}
		if err := spec.Normalize(); err != nil {
			isSpecError("Normalize", err)
			return
		}
		cells, err := spec.Expand()
		if err != nil {
			t.Fatalf("Expand of a normalized spec: %v", err)
		}

		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(wire)
		if err != nil {
			t.Fatalf("normalized spec %s does not parse: %v", wire, err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized spec %s does not normalize: %v", wire, err)
		}
		cells2, err := again.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells2) != len(cells) || again.CellTotal() != spec.CellTotal() {
			t.Fatalf("%d cells became %d across %s", len(cells), len(cells2), wire)
		}
		for i := range cells {
			if cells[i].Key != cells2[i].Key {
				t.Fatalf("cell %d key %016x became %016x across %s", i, cells[i].Key, cells2[i].Key, wire)
			}
		}
	})
}
