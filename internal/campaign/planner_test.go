package campaign

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"hbmvolt/internal/faults"
	"hbmvolt/internal/service"
)

// plannedSpec is a campaign built to share: per seed, three reliability
// cells differing only in pattern set over one grid, plus an exact-mode
// scenario and an analytic scenario the planner must leave alone.
func plannedSpec() Spec {
	return Spec{
		Name: "planned",
		Scenarios: []Scenario{
			{
				Name:        "rel",
				Kind:        "reliability",
				Seeds:       []uint64{0, 1},
				PatternSets: [][]string{{"all1"}, {"all0"}, {"checker"}},
				Grid:        []float64{0.90, 0.89},
				Ports:       []int{18},
				Batch:       2,
			},
			{
				Name:  "exact",
				Kind:  "reliability",
				Modes: []string{"exact"},
				Grid:  []float64{0.90, 0.89},
				Ports: []int{18},
				Batch: 2,
			},
			{Name: "ecc", Kind: "ecc-study", Grid: []float64{0.95, 0.90}},
		},
	}
}

// TestPlannerGroups pins the grouping rule: cells sharing (fingerprint
// × grid × mode) form one group; distinct seeds and modes split; the
// analytic cell joins no group; the counters quantify the sharing.
func TestPlannerGroups(t *testing.T) {
	spec := plannedSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 3 { // seed0-sparse, seed1-sparse, seed0-exact
		t.Fatalf("groups = %d, want 3: %+v", len(plan.Groups), plan.Groups)
	}
	if plan.SharedCells != 7 {
		t.Fatalf("shared cells = %d, want 7", plan.SharedCells)
	}
	for gi, wantCells := range [][]int{{0, 1, 2}, {3, 4, 5}, {6}} {
		g := plan.Groups[gi]
		if len(g.Cells) != len(wantCells) {
			t.Fatalf("group %d cells = %v, want %v", gi, g.Cells, wantCells)
		}
		for i, ci := range wantCells {
			if g.Cells[i] != ci {
				t.Fatalf("group %d cells = %v, want %v", gi, g.Cells, wantCells)
			}
		}
		// grid(2) × ports(1) × batch(2) = 4 physics evaluations per
		// group, however many member cells and patterns consume them.
		if g.UniquePhysics != 4 {
			t.Errorf("group %d unique physics = %d, want 4", gi, g.UniquePhysics)
		}
	}
	// Sparse groups: 3 single-pattern cells × 4 = 12 evals each; the
	// exact group's one cell defaults to {all1, all0} = 8.
	for gi, want := range []int{12, 12, 8} {
		if got := plan.Groups[gi].PatternEvals; got != want {
			t.Errorf("group %d pattern evals = %d, want %d", gi, got, want)
		}
	}
	if plan.Groups[2].Mode != "exact" || plan.Groups[0].Mode != "sparse" {
		t.Fatalf("modes = %s/%s", plan.Groups[0].Mode, plan.Groups[2].Mode)
	}
	if plan.UniquePhysics != 12 || plan.PatternEvals != 32 {
		t.Fatalf("totals = %d physics / %d evals, want 12/32", plan.UniquePhysics, plan.PatternEvals)
	}
	// Submission order: groups adjacent, unplanned cells (the analytic
	// one) trailing.
	order := plan.submissionOrder(len(cells))
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("submission order = %v", order)
		}
	}
}

// plannedRuns counts TestPlannedCampaignDeterminismAndSharing
// invocations, to give each one fresh enumeration keys.
var plannedRuns atomic.Uint64

// TestPlannedCampaignDeterminismAndSharing runs the planned campaign
// end to end: manifests and artifacts are byte-identical across
// Jobs/Fleet settings, the manifest carries the plan with shared
// requests, and the enumeration memo computes exactly the plan's
// unique-physics count (not the legacy pattern-evals count).
func TestPlannedCampaignDeterminismAndSharing(t *testing.T) {
	spec := plannedSpec()
	// A fresh seed pair keeps this test's enumeration keys disjoint from
	// every other test in the package, and from this test's earlier runs
	// under -count=N (the store outlives a run), so the memo-compute
	// delta below is exact.
	base := 7101 + (plannedRuns.Add(1)-1)<<32
	spec.Scenarios[0].Seeds = []uint64{base, base + 1}
	spec.Scenarios[1].Seeds = []uint64{base}

	run := func(jobs, fleet int) *Result {
		t.Helper()
		res, err := Run(context.Background(), spec, Options{
			Jobs: jobs, Fleet: fleet, SharedEnumeration: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	before := faults.EnumStoreStats()
	res1 := run(1, 1)
	delta := faults.EnumStoreStats().Computes - before.Computes
	if res1.Manifest.Plan == nil {
		t.Fatal("planned campaign manifest carries no plan")
	}
	if want := uint64(res1.Manifest.Plan.UniquePhysics); delta != want {
		t.Errorf("first run computed %d enumerations, plan predicts %d", delta, want)
	}
	for _, sm := range res1.Manifest.Scenarios {
		for _, cm := range sm.Cells {
			if cm.Request.Kind == service.KindReliability && !cm.Request.Shared {
				t.Errorf("reliability cell %s/%d not in shared mode", sm.Name, cm.Index)
			}
			if cm.Request.Kind != service.KindReliability && cm.Request.Shared {
				t.Errorf("non-reliability cell %s/%d marked shared", sm.Name, cm.Index)
			}
		}
	}

	res2 := run(4, 8)
	m1, err := res1.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := res2.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("planned manifest differs across Jobs/Fleet:\n%s\nvs\n%s", m1, m2)
	}
	for si := range res1.Scenarios {
		for ci := range res1.Scenarios[si].Cells {
			if !bytes.Equal(res1.Scenarios[si].Cells[ci].Payload, res2.Scenarios[si].Cells[ci].Payload) {
				t.Fatalf("scenario %s cell %d payload differs across Jobs/Fleet",
					res1.Scenarios[si].Name, ci)
			}
		}
	}
}

// TestPlannedVsUnplannedKeysDisjoint: the planner switches realizations
// (Shared in the cache key), so planned and unplanned runs of one spec
// never share cache entries, and unplanned manifests never grow a plan.
func TestPlannedVsUnplannedKeysDisjoint(t *testing.T) {
	spec := plannedSpec()
	planned, err := Run(context.Background(), spec, Options{SharedEnumeration: true})
	if err != nil {
		t.Fatal(err)
	}
	unplanned, err := Run(context.Background(), plannedSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unplanned.Manifest.Plan != nil {
		t.Fatal("unplanned campaign manifest grew a plan")
	}
	pk := map[string]bool{}
	for _, sm := range planned.Manifest.Scenarios {
		for _, cm := range sm.Cells {
			if cm.Request.Kind == service.KindReliability {
				pk[cm.Key] = true
			}
		}
	}
	for _, sm := range unplanned.Manifest.Scenarios {
		for _, cm := range sm.Cells {
			if cm.Request.Kind == service.KindReliability && pk[cm.Key] {
				t.Fatalf("cell %s/%d keys identically planned and unplanned", sm.Name, cm.Index)
			}
		}
	}
}
