package main

import "math"

// The per-layer ledger of a traced run. Every metric is printed for
// every workload so the result line has one schema; a metric of a layer
// the workload never enters reads 0 (DESIGN.md lists where each one
// applies and which end-to-end metric it should move).

// ledgerInput is what a traced run observed.
type ledgerInput struct {
	w             workload
	before, after phase // the untraced phases around the traced one
	traced        phase
	spans         spans
	counts        snapshot           // public counters, traced-phase deltas
	shares        map[string]float64 // CPU-profile shares (cpuShares)
	gcShare       float64
	allocMB       float64
	allocs        float64
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"faults.kernel_cpu_share":       "ratio",
	"faults.sort_cpu_share":         "ratio",
	"faults.pattern_pass_cpu_share": "ratio",
	"faults.enum_requests_per_op":   "count",
	"faults.enum_computes_per_op":   "count",
	"faults.enum_hit_ratio":         "ratio",
	"faults.cpu_share":              "ratio",
	"core.points_per_s":             "1/s",
	"core.point_ms_unsafe_p50":      "ms",
	"core.point_ms_safe_p50":        "ms",
	"core.flips_per_op":             "count",
	"core.cpu_share":                "ratio",
	"dramctl.cpu_share":             "ratio",
	"axi.cpu_share":                 "ratio",
	"hbm.cpu_share":                 "ratio",
	"service.normalize_key_us":      "us",
	"service.submit_ms_p50":         "ms",
	"service.result_ms_p50":         "ms",
	"service.wait_ms_p50":           "ms",
	"service.job_run_ms_p50":        "ms",
	"service.cache_hit_ratio":       "ratio",
	"service.sweep_runs_per_op":     "count",
	"service.cpu_share":             "ratio",
	"service.disk_write_cpu_share":  "ratio",
	"report.cpu_share":              "ratio",
	"fleet.local_miss_ms_p50":       "ms",
	"fleet.forward_ms_p50":          "ms",
	"fleet.forward_wait_ms":         "ms",
	"fleet.degraded_serves":         "count",
	"fleet.hedges":                  "count",
	"fleet.replicated_bytes_per_op": "bytes",
	"fleet.cpu_share":               "ratio",
	"campaign.cell_ms_p50":          "ms",
	"campaign.unique_physics":       "count",
	"campaign.pattern_evals":        "count",
	"campaign.cpu_share":            "ratio",
	"telemetry.cpu_share":           "ratio",
	"runtime.gc_cpu_share":          "ratio",
	"runtime.alloc_mb_per_op":       "MB",
	"runtime.allocs_per_op":         "count",
	"transport.cpu_share":           "ratio",
	"json.cpu_share":                "ratio",
	"harness.check_cpu_share":       "ratio",
	"trace.overhead_pct":            "%",
	"trace.overhead_noise_pct":      "%",
	"error_rate":                    "ratio",
}

// ledger computes every per-layer metric of a traced run.
func ledger(in ledgerInput) map[string]metric {
	ph := in.traced
	n := float64(max(ph.attempted, 1))
	c := in.counts
	v := map[string]float64{}
	for k, share := range in.shares {
		if _, ok := layerUnits[k]; ok {
			v[k] = share
		}
	}

	// faults: the enum store's public counters.
	requests := c["enum/hits"] + c["enum/misses"] + c["enum/coalesced"]
	v["faults.enum_requests_per_op"] = requests / n
	v["faults.enum_computes_per_op"] = c["enum/computes"] / n
	if requests > 0 {
		v["faults.enum_hit_ratio"] = c["enum/hits"] / requests
	}

	// core: the sweep's OnPoint gaps, split at the guardband.
	points := len(in.spans["core.point_safe"]) + len(in.spans["core.point_unsafe"])
	if run := sum(in.spans["RunReliability"]); run > 0 {
		v["core.points_per_s"] = float64(points) / (run / 1000)
	}
	v["core.point_ms_unsafe_p50"] = median(in.spans["core.point_unsafe"])
	v["core.point_ms_safe_p50"] = median(in.spans["core.point_safe"])
	v["core.flips_per_op"] = ph.flips / n

	// service: the harness's timers around the client calls, and the
	// registries of node A (serve workloads) or of the campaign's
	// managers.
	v["service.normalize_key_us"] = median(in.spans["service.normalize_key_us"])
	v["service.submit_ms_p50"] = median(in.spans["service.submit"])
	v["service.result_ms_p50"] = median(in.spans["service.result"])
	v["service.wait_ms_p50"] = median(in.spans["service.wait"])
	scope := "a"
	if _, ok := in.w.(*campaignWorkload); ok {
		scope = "campaign"
	}
	v["service.job_run_ms_p50"] = 1000 * c.histQuantile(scope, "hbmvolt_job_duration_seconds", 0.5)
	if total := c.sum(scope, "hbmvolt_jobs_submitted_total"); total > 0 {
		v["service.cache_hit_ratio"] = c[scope+`/hbmvolt_jobs_submitted_total{outcome="cache_hit"}`] / total
	}
	runs := c.sum("a", "hbmvolt_sweep_runs_total") + c.sum("b", "hbmvolt_sweep_runs_total") +
		c.sum("campaign", "hbmvolt_sweep_runs_total")
	v["service.sweep_runs_per_op"] = runs / n

	// fleet: serve-miss's op latencies by owner, and both forwarders'
	// registry families.
	v["fleet.local_miss_ms_p50"] = median(in.spans["fleet.local_miss"])
	v["fleet.forward_ms_p50"] = median(in.spans["fleet.forward"])
	if fwd := v["fleet.forward_ms_p50"]; fwd > 0 {
		v["fleet.forward_wait_ms"] = fwd - 1000*c.histQuantile("b", "hbmvolt_job_duration_seconds", 0.5)
	}
	for _, node := range []string{"a", "b"} {
		v["fleet.degraded_serves"] += c[node+`/hbmvolt_fleet_serves_total{mode="degraded"}`]
		v["fleet.hedges"] += c.sum(node, "hbmvolt_fleet_hedges_total")
		v["fleet.replicated_bytes_per_op"] += c.sum(node, "hbmvolt_fleet_replicated_bytes_total") / n
	}

	// campaign: OnCell gaps and the planner's manifest section.
	v["campaign.cell_ms_p50"] = median(in.spans["campaign.cell"])
	if cw, ok := in.w.(*campaignWorkload); ok && cw.plan.Plan != nil {
		v["campaign.unique_physics"] = float64(cw.plan.Plan.UniquePhysics)
		v["campaign.pattern_evals"] = float64(cw.plan.Plan.PatternEvals)
	}

	// Go runtime.
	v["runtime.gc_cpu_share"] = in.gcShare
	v["runtime.alloc_mb_per_op"] = in.allocMB / n
	v["runtime.allocs_per_op"] = in.allocs / n

	// The traced phase's CPU per op against the untraced phases' around
	// it; the untraced phases' own difference is the noise floor an
	// overhead must exceed to mean anything.
	plainOps := in.before.attempted + in.after.attempted
	if base := ms(in.before.cpu+in.after.cpu) / float64(max(plainOps, 1)); base > 0 {
		v["trace.overhead_pct"] = 100 * (ph.cpuPerOp()/base - 1)
		v["trace.overhead_noise_pct"] = 100 * math.Abs(in.before.cpuPerOp()-in.after.cpuPerOp()) / base
	}
	v["error_rate"] = float64(in.before.failed+ph.failed+in.after.failed) / float64(max(plainOps+ph.attempted, 1))

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{v[name], unit}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
