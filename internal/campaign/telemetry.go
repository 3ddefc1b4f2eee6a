package campaign

import (
	"hbmvolt/internal/telemetry"
)

// campaignMetrics are the campaign engine's telemetry families. They
// register on the shared manager registry — register-or-fetch, so the
// many Execute calls a daemon serves over one manager all feed the same
// series, and the daemon's /metrics carries campaign progress alongside
// the job families the cells flow through.
type campaignMetrics struct {
	// cells counts cell executions by outcome: planned (scheduled for
	// execution after spec expansion), completed (finished an execution,
	// repeats included, cache-served ones too).
	cells *telemetry.CounterVec
	// runs counts campaign runs by terminal state (done | failed |
	// cancelled).
	runs *telemetry.CounterVec
}

func newCampaignMetrics(r *telemetry.Registry) *campaignMetrics {
	return &campaignMetrics{
		cells: r.CounterVec("hbmvolt_campaign_cells_total",
			"Campaign cell executions by outcome: planned (scheduled after spec expansion), completed (finished executions, repeats included).",
			"outcome"),
		runs: r.CounterVec("hbmvolt_campaign_runs_total",
			"Campaign runs by terminal state.",
			"state"),
	}
}
