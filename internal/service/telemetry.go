package service

// Telemetry wiring for the sweep service: every instrument the manager
// exposes at /metrics lives here; /metrics is the node's one statistics
// surface. Nothing registered here ever feeds into cache keys,
// payloads, or manifests (the determinism contract).

import "hbmvolt/internal/telemetry"

// serviceMetrics bundles the manager's live instruments. Samplers over
// pre-existing counters (cache tiers, queue) are registered
// separately by registerSamplers once the manager exists.
type serviceMetrics struct {
	// submitted counts submissions by resolution: accepted (queued for
	// compute), coalesced (joined a live or done job), cache_hit
	// (answered from the result cache without a job).
	submitted *telemetry.CounterVec
	// completed counts jobs reaching a terminal state.
	completed *telemetry.CounterVec
	// rejected counts refused submissions by reason: rate (per-client
	// token bucket), queue_full, draining.
	rejected *telemetry.CounterVec
	// sweepRuns counts sweeps actually executed locally — the same
	// observable Manager.Runs reports.
	sweepRuns *telemetry.Counter
	// jobSeconds observes wall time per job execution (local or
	// forwarded), the histogram behind the admission median.
	jobSeconds *telemetry.Histogram
	// payloadBytes observes completed payload sizes.
	payloadBytes *telemetry.Histogram
	// cacheReq counts result-cache lookups per tier and outcome; the
	// composite cache increments it.
	cacheReq *telemetry.CounterVec
}

func newServiceMetrics(r *telemetry.Registry) *serviceMetrics {
	return &serviceMetrics{
		submitted: r.CounterVec("hbmvolt_jobs_submitted_total",
			"Sweep submissions by resolution: accepted (new job queued), coalesced (joined an identical live/done job), cache_hit (served from the result cache).",
			"outcome"),
		completed: r.CounterVec("hbmvolt_jobs_completed_total",
			"Jobs reaching a terminal state.", "state"),
		rejected: r.CounterVec("hbmvolt_admission_rejected_total",
			"Submissions refused by admission control: rate (per-client 429), queue_full (503), draining (503).",
			"reason"),
		sweepRuns: r.Counter("hbmvolt_sweep_runs_total",
			"Sweeps actually executed on this node (cache hits and coalesced submissions excluded)."),
		jobSeconds: r.Histogram("hbmvolt_job_duration_seconds",
			"Wall time per job execution, local compute and fleet forwards alike.",
			telemetry.LatencyBuckets()),
		payloadBytes: r.Histogram("hbmvolt_result_payload_bytes",
			"Marshaled result payload sizes of completed jobs.",
			telemetry.SizeBuckets()),
		cacheReq: r.CounterVec("hbmvolt_cache_requests_total",
			"Result-cache lookups per tier: a hit serves bytes from that tier, a miss falls through to the next tier (or to compute from the last).",
			"tier", "outcome"),
	}
}

// registerSamplers exposes the manager's live state — queue, job
// table, cache tiers — as sampler-backed families
// that read the live structures at scrape time.
func (m *Manager) registerSamplers() {
	one := func(v float64) []telemetry.Sample { return []telemetry.Sample{{Value: v}} }
	m.reg.GaugeSampler("hbmvolt_queue_depth", "Jobs waiting in the bounded work queue.", nil,
		func() []telemetry.Sample { return one(float64(len(m.queue))) })
	m.reg.GaugeSampler("hbmvolt_queue_capacity", "Capacity of the bounded work queue.", nil,
		func() []telemetry.Sample { return one(float64(m.cfg.QueueDepth)) })
	m.reg.GaugeSampler("hbmvolt_workers", "Sweep worker pool size.", nil,
		func() []telemetry.Sample { return one(float64(m.cfg.Workers)) })
	m.reg.GaugeSampler("hbmvolt_jobs", "Jobs currently tracked, by lifecycle state.",
		[]string{"state"}, func() []telemetry.Sample {
			counts := m.jobCounts()
			out := make([]telemetry.Sample, len(jobStates))
			for i, st := range jobStates {
				out[i] = telemetry.Sample{Labels: []string{string(st)}, Value: float64(counts[st])}
			}
			return out
		})

	// perTier samples one value per cache tier; a memory-only node has
	// no disk series.
	mem, disk := m.cache.mem, m.cache.disk
	perTier := func(memValue, diskValue func() float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			out := []telemetry.Sample{{Labels: []string{"memory"}, Value: memValue()}}
			if disk != nil {
				out = append(out, telemetry.Sample{Labels: []string{"disk"}, Value: diskValue()})
			}
			return out
		}
	}
	m.reg.GaugeSampler("hbmvolt_cache_entries", "Entries retained per result-cache tier.", []string{"tier"},
		perTier(func() float64 { return float64(mem.Len()) }, func() float64 { return float64(disk.Len()) }))
	m.reg.GaugeSampler("hbmvolt_cache_bytes", "Payload bytes retained per result-cache tier.", []string{"tier"},
		perTier(func() float64 { return float64(mem.Bytes()) }, func() float64 { return float64(disk.Bytes()) }))
	m.reg.CounterSampler("hbmvolt_cache_evictions_total", "Capacity evictions per result-cache tier.", []string{"tier"},
		perTier(func() float64 { return float64(mem.Evictions()) }, func() float64 { return float64(disk.Stats().Evicted) }))
	if disk != nil {
		m.reg.CounterSampler("hbmvolt_disk_recovered_entries_total",
			"Disk-tier entries the boot recovery scan verified and repopulated.", nil,
			func() []telemetry.Sample { return one(float64(disk.Stats().Recovered)) })
		m.reg.CounterSampler("hbmvolt_disk_discarded_entries_total",
			"Disk-tier entries discarded as torn or corrupt (boot scan and read-time verification).", nil,
			func() []telemetry.Sample { return one(float64(disk.Stats().Discarded)) })
	}
}

// Metrics returns the registry this manager's instruments live in —
// the one /metrics renders. Always non-nil (a private registry is
// created when Config.Metrics was nil).
func (m *Manager) Metrics() *telemetry.Registry { return m.reg }

// Recorder returns the manager's span recorder: every submission's
// trace events on this node, bounded ring, observability only.
func (m *Manager) Recorder() *telemetry.Recorder { return m.rec }
