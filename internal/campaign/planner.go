package campaign

// The sweep planner: the computation-sharing schedule of a campaign.
//
// A campaign's cross-products routinely expand into many cells that
// differ only in what they *measure* (pattern sets, batch sizes) while
// describing the same *silicon* (equal fault-model fingerprint) probed
// over the same voltage grid. The physics of such cells — which cells
// are stuck where, per (voltage, port, rep) — is identical; only the
// per-pattern readout differs. Every reliability cell evaluates a
// voltage point's patterns from one enumeration per (port, rep); the
// planner groups a normalized spec's reliability cells by their
// (fingerprint × voltage grid × sampling mode) sub-key and records the
// groups in the manifest, with the per-pattern work each group would
// cost against the distinct physics it needs. The plan documents the
// work; it never changes a cell's request, key or payload.

import (
	"hbmvolt/internal/board"
	"hbmvolt/internal/prf"
	"hbmvolt/internal/service"
)

// PlanGroup is one set of reliability cells sharing their physics
// sub-key: equal fault-model fingerprint, voltage grid and sampling
// mode, so every member draws the same stuck cells at a given
// (voltage, port, rep).
type PlanGroup struct {
	// Fingerprint is the group's fault-model config fingerprint (hex,
	// the same rendering the service uses for cache keys).
	Fingerprint string `json:"fingerprint"`
	// Mode is "sparse" or "exact".
	Mode string `json:"mode"`
	// GridPoints is the shared voltage grid's size.
	GridPoints int `json:"grid_points"`
	// Cells lists the member cells as global campaign indices, in
	// campaign order.
	Cells []int `json:"cells"`
	// PatternEvals counts the per-pattern enumeration passes the legacy
	// path would pay for this group: Σ over cells of grid × ports ×
	// batch × patterns.
	PatternEvals int `json:"pattern_evals"`
	// UniquePhysics counts the distinct (voltage, port, rep) stuck-cell
	// enumerations the group's cells need. Each cell enumerates its own,
	// so this is the floor of the work, not the number computed.
	UniquePhysics int `json:"unique_physics"`
}

// Plan is a campaign's computation-sharing schedule, carried in the
// manifest so a run documents what its throughput was bounded by.
type Plan struct {
	// Groups in first-encounter (campaign) order.
	Groups []PlanGroup `json:"groups"`
	// SharedCells counts the planned reliability cells.
	SharedCells int `json:"shared_cells"`
	// PatternEvals and UniquePhysics total the per-group counters: the
	// enumeration passes a per-pattern campaign would pay versus the
	// distinct physics evaluations the groups need.
	PatternEvals  int `json:"pattern_evals"`
	UniquePhysics int `json:"unique_physics"`
}

// physicsKey condenses one cell's physics sub-key, also returning the
// fault-model fingerprint it derives from (so group creation need not
// re-derive the same config).
func physicsKey(req *service.SweepRequest) (key, fingerprint uint64, err error) {
	fcfg, err := board.FaultConfig(board.Config{Seed: req.Seed, Scale: req.Scale})
	if err != nil {
		return 0, 0, err
	}
	fingerprint = fcfg.Fingerprint()
	key = fingerprint
	if req.Exact {
		key = prf.Mix64(key ^ 1)
	}
	for _, v := range req.Grid {
		key = prf.Hash2(key, uint64(int64(v*1e6)))
	}
	return key, fingerprint, nil
}

// planCells groups the expanded cells by physics sub-key. Cells must
// already be normalized; non-reliability cells are left out of every
// group (they share through the analytic rate atlas instead).
func planCells(cells []Cell) (*Plan, error) {
	plan := &Plan{}
	index := map[uint64]int{}
	for i := range cells {
		req := &cells[i].Request
		if req.Kind != service.KindReliability {
			continue
		}
		key, fingerprint, err := physicsKey(req)
		if err != nil {
			return nil, err
		}
		gi, ok := index[key]
		if !ok {
			mode := "sparse"
			if req.Exact {
				mode = "exact"
			}
			gi = len(plan.Groups)
			index[key] = gi
			plan.Groups = append(plan.Groups, PlanGroup{
				Fingerprint: service.FormatKey(fingerprint),
				Mode:        mode,
				GridPoints:  len(req.Grid),
			})
		}
		g := &plan.Groups[gi]
		g.Cells = append(g.Cells, i)
		g.PatternEvals += len(req.Grid) * len(req.Ports) * req.Batch * len(req.Patterns)
		plan.SharedCells++
	}
	for gi := range plan.Groups {
		g := &plan.Groups[gi]
		g.UniquePhysics = g.uniquePhysics(cells)
		plan.PatternEvals += g.PatternEvals
		plan.UniquePhysics += g.UniquePhysics
	}
	return plan, nil
}

// uniquePhysics counts the distinct (voltage, port, rep) enumerations
// of a group: grid points × the union of the members' (port, rep)
// pairs (reps are keyed 0..batch-1, so smaller batches are prefixes of
// larger ones).
func (g *PlanGroup) uniquePhysics(cells []Cell) int {
	type pr struct{ port, rep int }
	pairs := map[pr]bool{}
	for _, ci := range g.Cells {
		req := &cells[ci].Request
		for _, p := range req.Ports {
			for r := 0; r < req.Batch; r++ {
				pairs[pr{p, r}] = true
			}
		}
	}
	return g.GridPoints * len(pairs)
}
