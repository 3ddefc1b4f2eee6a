package campaign

import (
	"context"
	"testing"
)

// BenchmarkCampaignExpand measures spec normalization plus cross-product
// expansion of the built-in paper-repro campaign — the pure declarative
// overhead a campaign adds before any sweep runs.
func BenchmarkCampaignExpand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := PaperRepro(true)
		if err := spec.Normalize(); err != nil {
			b.Fatal(err)
		}
		cells, err := spec.Expand()
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// benchSpec is the multi-pattern campaign the throughput benchmark
// runs: five reliability cells probing one device over one grid with
// four pattern sets (plus a paired all-pattern cell), and an analytic
// scenario riding along. Exactly the shape the sweep planner targets —
// many cells, one silicon.
func benchSpec() Spec {
	return Spec{
		Name: "bench",
		Scenarios: []Scenario{
			{
				Name: "rel",
				Kind: "reliability",
				PatternSets: [][]string{
					{"all1"}, {"all0"}, {"checker"}, {"all1", "all0", "checker"},
				},
				Grid:  []float64{0.91, 0.90, 0.89, 0.88},
				Ports: []int{5, 18},
				Batch: 2,
			},
			{Name: "ecc", Kind: "ecc-study", Grid: []float64{0.95, 0.90}},
		},
	}
}

// BenchmarkCampaignRun measures end-to-end campaign execution of the
// multi-pattern spec on a private manager, manifest assembly included.
// cells/sec is the headline metric. Each cell enumerates a (voltage,
// port, rep) once for all of its patterns. The sub-benchmark keeps its
// name "shared" so the committed baseline row stays comparable.
func BenchmarkCampaignRun(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		spec := benchSpec()
		cells := 0
		for i := 0; i < b.N; i++ {
			res, err := Run(context.Background(), spec, Options{Jobs: 2})
			if err != nil {
				b.Fatal(err)
			}
			if res.Manifest.Cells != 5 {
				b.Fatalf("cells = %d", res.Manifest.Cells)
			}
			cells += res.Manifest.Cells
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
	})
}
