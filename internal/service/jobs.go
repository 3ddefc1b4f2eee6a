package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"hbmvolt/internal/board"
	"hbmvolt/internal/core"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/report"
	"hbmvolt/internal/stats"
	"hbmvolt/internal/telemetry"
	tlog "hbmvolt/internal/telemetry/log"
)

// JobState is the lifecycle of one submitted sweep.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one record of a job's NDJSON event stream.
type Event struct {
	// Type is "progress" while the sweep runs, then exactly one of
	// "done", "failed" or "cancelled".
	Type string `json:"type"`
	core.SweepProgress
	// Error carries the failure reason of a "failed" event.
	Error string `json:"error,omitempty"`
}

// Job is one submitted sweep: its normalized request, its lifecycle
// state, its event history, and — once done — its cached payload.
type Job struct {
	// ID addresses the job in the HTTP API.
	ID string
	// Key is the request's cache key; jobs with equal keys coalesce.
	Key uint64
	// Req is the normalized request.
	Req SweepRequest

	// runCtx governs the sweep's execution; cancel aborts it. Both are
	// fixed at submit time, so a DELETE always cancels the same context
	// the worker runs under, whether the job is still queued or already
	// mid-sweep. finish drops both (cancel under mu): a finished job
	// record retains its outcome, not its run.
	runCtx context.Context
	cancel context.CancelFunc

	// noForward pins execution to this node (see SubmitOptions).
	noForward bool
	// trace is the submission's trace ID (minted or adopted at the HTTP
	// edge), immutable after submit. Observability only: it is never
	// part of the cache key, so identical requests with different traces
	// still coalesce.
	trace string

	mu      sync.Mutex
	state   JobState
	errMsg  string
	payload []byte
	events  []Event
	// serve records which fleet node produced the payload (zero when no
	// forwarder is configured).
	serve ServeInfo
	// changed is closed and replaced on every event append or state
	// transition; streamers wait on the instance they snapshotted.
	changed chan struct{}
}

func (j *Job) signalLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// appendEvent records a progress event and wakes streamers.
func (j *Job) appendEvent(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, e)
	j.signalLocked()
}

// finish moves the job to a terminal state exactly once, recording the
// terminal event in the same step so streamers observe "last event ⇔
// terminal state" atomically. Later calls are ignored — e.g. a
// cancellation racing the sweep's own completion keeps whichever
// outcome landed first. Only the job's own runJob calls it, last, so
// the run context is released here and the event history is trimmed to
// its exact size: the job table holds up to MaxJobs finished records.
func (j *Job) finish(state JobState, payload []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = state
	j.payload = payload
	j.errMsg = errMsg
	e := Event{Type: string(state)}
	if state == StateFailed {
		e.Error = errMsg
	}
	j.events = slices.Concat(j.events, []Event{e})
	j.runCtx, j.cancel = nil, func() {}
	j.signalLocked()
}

// setRunning transitions queued → running; it is a no-op (returning
// false) if the job was cancelled while queued.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.signalLocked()
	return true
}

// eventsSince returns the events after index i, the current state, and
// the change channel to wait on if the caller has consumed everything.
func (j *Job) eventsSince(i int) ([]Event, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i > len(j.events) {
		i = len(j.events)
	}
	evs := j.events[i:len(j.events):len(j.events)]
	return evs, j.state, j.changed
}

// Snapshot returns the job's externally visible status.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.ID,
		Kind:     j.Req.Kind,
		Key:      formatKey(j.Key),
		State:    j.state,
		Error:    j.errMsg,
		ServedBy: j.serve.ServedBy,
		Degraded: j.serve.Degraded,
		Trace:    j.trace,
	}
	for i := len(j.events) - 1; i >= 0; i-- {
		if j.events[i].Type == "progress" {
			st.Done, st.Total = j.events[i].Done, j.events[i].Total
			break
		}
	}
	return st
}

// Payload returns the marshaled result bytes (nil unless done).
func (j *Job) Payload() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.payload
}

// ServeInfo returns the job's fleet serving record (zero value when no
// forwarder is configured).
func (j *Job) ServeInfo() ServeInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.serve
}

func (j *Job) setServeInfo(info ServeInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.serve = info
}

// Trace returns the submission's trace ID ("" for programmatic
// submissions that carried none).
func (j *Job) Trace() string { return j.trace }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Wait blocks until the job reaches a terminal state (returned) or ctx
// is cancelled (the current non-terminal state and ctx's error are
// returned). It does not cancel the job.
func (j *Job) Wait(ctx context.Context) (JobState, error) {
	for {
		j.mu.Lock()
		st, changed := j.state, j.changed
		j.mu.Unlock()
		if st.terminal() {
			return st, nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Err returns the failure reason of a failed job ("" otherwise).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// JobStatus is the GET /v1/sweeps/{id} body (result excluded).
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"`
	Key   string   `json:"key"`
	State JobState `json:"state"`
	// Done/Total mirror the latest progress event.
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	// ServedBy/Degraded mirror the job's fleet serving record: the node
	// whose compute produced the payload, and whether the fleet fell
	// back to local compute because the key's owner was unreachable.
	// Empty/false outside fleet mode.
	ServedBy string `json:"served_by,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// Trace is the submission's trace ID, when one was minted or adopted
	// at the edge (X-Hbmvolt-Trace-Id).
	Trace string `json:"trace,omitempty"`
}

// Config parameterizes a Manager (and its Server).
type Config struct {
	// Workers is the number of sweeps running concurrently (default 2).
	// Distinct from SweepRequest.Workers, the per-sweep board-fleet size.
	Workers int
	// QueueDepth bounds the backlog of queued jobs; submissions beyond
	// it fail with ErrQueueFull (default 16).
	QueueDepth int
	// CacheEntries bounds the result LRU (default 256 payloads).
	CacheEntries int
	// CacheBytes bounds the result LRU's total payload bytes (default
	// 64 MB). Entries are weighed by their marshaled size for every
	// result kind — analytic campaign envelopes (faultmap/ecc-study) the
	// same as sweep payloads — so eviction pressure tracks what the
	// cache actually retains.
	CacheBytes int64
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// evicted beyond it (their payloads survive in the LRU) (default 1024).
	MaxJobs int
	// FleetSize is the default per-sweep board-fleet size when a request
	// leaves Workers at 0 (default 1, sequential).
	FleetSize int
	// CacheDir, when non-empty, adds the crash-durable disk tier under
	// this directory: completed payloads are written through to disk and
	// survive process restarts (verified per-entry on read; see
	// DiskTier); opening it is why OpenManager and Open return an error.
	CacheDir string
	// DiskCacheBytes bounds the disk tier's total payload bytes
	// (0 = unbounded; LRU files are unlinked under pressure).
	DiskCacheBytes int64
	// RatePerSec enables per-client token-bucket admission on
	// submissions: each client refills at this rate up to RateBurst
	// tokens (0 disables rate limiting).
	RatePerSec float64
	// RateBurst is the per-client bucket size (default 8 when rate
	// limiting is enabled).
	RateBurst int
	// TrustProxy honors the X-Forwarded-For header when attributing
	// admission tokens: the leftmost (originating-client) address
	// becomes the client key instead of the remote host. Off by
	// default — a spoofable header must never split rate-limit buckets
	// unless a trusted proxy is known to set it. X-Client-ID still wins
	// when present.
	TrustProxy bool
	// Forwarder, when non-nil, routes executions across a fleet: each
	// job's cache key is owned by one node, remote-owned jobs are
	// fetched from their owner, and any failure to reach the owner
	// degrades byte-identically to local compute (see internal/fleet).
	Forwarder Forwarder
	// Metrics, when non-nil, is the registry the manager registers its
	// instrument families in — the daemon shares one registry across the
	// service, fleet and campaign layers so GET /metrics renders them
	// all. Nil gets a private registry (still served at /metrics).
	Metrics *telemetry.Registry
	// Logger receives the manager's structured JSON logs (disk-tier
	// discards, job failures). Nil silences the manager's own logs, but
	// the disk tier still falls back to a stderr logger — corruption
	// reports stay loud even in embedded managers.
	Logger *tlog.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.FleetSize <= 0 {
		c.FleetSize = 1
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = 8
	}
}

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity (HTTP 503).
var ErrQueueFull = errors.New("service: sweep queue full")

// ErrDraining is returned by Submit while the manager drains for
// shutdown (HTTP 503): in-flight jobs finish, new work is refused.
var ErrDraining = errors.New("service: draining for shutdown")

// errShutdown is returned by Submit after Close.
var errShutdown = errors.New("service: manager is shut down")

// Manager owns the job table, the bounded work queue, the worker pool
// driving sweeps through internal/core, and the result LRU. It
// coalesces identical submissions: one live job per cache key.
type Manager struct {
	cfg   Config
	cache *resultCache
	// latency is the sliding window of recent job durations whose
	// median sizes the Retry-After hints.
	latency stats.LatencyWindow
	limiter *rateLimiter
	// forward, when non-nil, is the fleet routing hook consulted before
	// computing a job locally (Config.Forwarder).
	forward Forwarder

	// reg/met/rec are the telemetry surface: the registry /metrics
	// renders, the manager's live instruments in it, and the bounded
	// span recorder trace IDs resolve against.
	reg    *telemetry.Registry
	met    *serviceMetrics
	rec    *telemetry.Recorder
	logger *tlog.Logger

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	draining bool
	nextID   uint64
	jobs     map[string]*Job
	// byKey maps a cache key to its coalescing target: the live (or
	// successfully completed) job for that key.
	byKey map[uint64]*Job
	// order lists job IDs in creation order, for MaxJobs eviction.
	order []string
	queue chan *Job

	// runSweep executes one job's sweep and returns the marshaled
	// payload. Overridable in tests to control timing; defaults to the
	// real board + core path.
	runSweep func(ctx context.Context, j *Job) ([]byte, error)
}

// OpenManager builds a manager — opening the disk cache tier (with its
// boot recovery scan) when cfg.CacheDir is set — and starts its worker
// pool.
func OpenManager(cfg Config) (*Manager, error) {
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	met := newServiceMetrics(reg)
	var disk *DiskTier
	if cfg.CacheDir != "" {
		var err error
		if disk, err = NewDiskTier(cfg.CacheDir, cfg.DiskCacheBytes, cfg.Logger); err != nil {
			return nil, err
		}
	}
	node := "local"
	if cfg.Forwarder != nil {
		node = cfg.Forwarder.Self()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		cache:   newResultCache(met, NewMemoryTier(cfg.CacheEntries, cfg.CacheBytes), disk),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.RateBurst, met.rejected.With("rate")),
		forward: cfg.Forwarder,
		reg:     reg,
		met:     met,
		rec:     telemetry.NewRecorder(node, telemetry.DefaultSpanCapacity),
		logger:  cfg.Logger,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		byKey:   make(map[uint64]*Job),
		queue:   make(chan *Job, cfg.QueueDepth),
	}
	m.registerSamplers()
	m.runSweep = m.executeSweep
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Close cancels every running sweep, drains the workers, flushes the
// cache tiers, and rejects further submissions.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	m.cache.Close()
}

// Drain performs a graceful shutdown: new submissions are refused with
// ErrDraining, queued and running jobs are given until ctx expires to
// finish, then the manager closes (cancelling whatever remains and
// flushing the disk tier). It returns ctx.Err() if the deadline cut the
// drain short, nil if every job finished.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.mu.Unlock()

	var err error
	for {
		var pending *Job
		m.mu.Lock()
		for _, j := range m.jobs {
			if !j.State().terminal() {
				pending = j
				break
			}
		}
		m.mu.Unlock()
		if pending == nil {
			break
		}
		if _, werr := pending.Wait(ctx); werr != nil {
			err = werr // deadline: stop waiting, force-cancel via Close
			break
		}
	}
	m.Close()
	return err
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// SubmitOpts registers a sweep request under per-submission flags (see
// SubmitOptions; the zero value is a plain submission). The returned
// bools report whether the request coalesced onto an existing job and
// whether it was answered from the result cache without queueing any
// work.
func (m *Manager) SubmitOpts(req SweepRequest, opts SubmitOptions) (job *Job, coalesced, cacheHit bool, err error) {
	if err := req.Normalize(); err != nil {
		return nil, false, false, err
	}
	key, err := req.CacheKey()
	if err != nil {
		return nil, false, false, badRequest("%v", err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, false, errShutdown
	}
	if m.draining {
		m.met.rejected.With("draining").Inc()
		return nil, false, false, ErrDraining
	}
	// Coalesce onto the live (or done) job for this key. Failed and
	// cancelled jobs are not coalescing targets — a resubmission retries.
	if j, ok := m.byKey[key]; ok {
		if st := j.State(); !st.terminal() || st == StateDone {
			outcome := "coalesced"
			if st == StateDone {
				// Served without recomputation: count the hit and keep
				// the payload warm in the LRU.
				m.cache.Touch(key, j.Payload())
				outcome = "cache_hit"
			}
			m.submitted(opts.TraceID, j, outcome)
			return j, true, st == StateDone, nil
		}
	}
	// Evicted job but retained payload: answer from the LRU with a
	// pre-completed job, no queueing, no recomputation.
	if payload, tier, ok := m.cache.Get(key); ok {
		j := m.newJobLocked(key, req, nil)
		j.trace = opts.TraceID
		j.state = StateDone
		j.payload = payload
		j.events = []Event{{Type: string(StateDone)}}
		if opts.TraceID != "" {
			m.rec.Record(opts.TraceID, "cache.lookup", map[string]string{
				"tier": tier, "key": formatKey(key),
			})
		}
		m.submitted(opts.TraceID, j, "cache_hit")
		return j, false, true, nil
	}

	ctx, cancel := context.WithCancel(m.baseCtx)
	j := m.newJobLocked(key, req, cancel)
	j.trace = opts.TraceID
	// The run context carries the trace and this node's recorder, so
	// every layer under the sweep — fleet forward, enum-store lookup —
	// can attach spans to the submission's trace.
	j.runCtx = telemetry.WithRecorder(telemetry.WithTrace(ctx, opts.TraceID), m.rec)
	j.noForward = opts.NoForward
	select {
	case m.queue <- j:
	default:
		// Queue full: roll the registration back.
		cancel()
		delete(m.jobs, j.ID)
		delete(m.byKey, key)
		m.order = m.order[:len(m.order)-1]
		m.met.rejected.With("queue_full").Inc()
		return nil, false, false, ErrQueueFull
	}
	m.submitted(opts.TraceID, j, "accepted")
	return j, false, false, nil
}

// submitted records one resolved submission: the outcome counter,
// plus a job.submit span for traced submissions.
func (m *Manager) submitted(trace string, j *Job, outcome string) {
	m.met.submitted.With(outcome).Inc()
	if trace == "" {
		return
	}
	m.rec.Record(trace, "job.submit", map[string]string{
		"outcome": outcome, "job": j.ID, "key": formatKey(j.Key),
	})
}

// newJobLocked allocates and registers a job (m.mu held).
func (m *Manager) newJobLocked(key uint64, req SweepRequest, cancel context.CancelFunc) *Job {
	m.nextID++
	j := &Job{
		ID:      fmt.Sprintf("swp-%06d", m.nextID),
		Key:     key,
		Req:     req,
		state:   StateQueued,
		changed: make(chan struct{}),
		cancel:  cancel,
	}
	if cancel == nil {
		j.cancel = func() {}
	}
	m.jobs[j.ID] = j
	m.byKey[key] = j
	m.order = append(m.order, j.ID)
	m.evictLocked()
	return j
}

// evictLocked drops the oldest terminal jobs beyond MaxJobs. Their
// payloads stay in the LRU, so evicted results remain servable.
func (m *Manager) evictLocked() {
	for len(m.jobs) > m.cfg.MaxJobs {
		evicted := false
		for i, id := range m.order {
			j, ok := m.jobs[id]
			if !ok {
				continue
			}
			if !j.State().terminal() {
				continue
			}
			delete(m.jobs, id)
			if m.byKey[j.Key] == j {
				delete(m.byKey, j.Key)
			}
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return // everything live; allow temporary overshoot
		}
	}
}

// Job returns a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Queued jobs terminate
// immediately; running sweeps stop at the next voltage point through
// context propagation into the scheduler. Terminal jobs are unaffected
// (cancellation is idempotent).
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Job(id)
	if !ok {
		return nil, false
	}
	// Mark a still-queued job cancelled right away so the worker skips
	// it; for running jobs the context does the work.
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.events = append(j.events, Event{Type: string(StateCancelled)})
		j.signalLocked()
	}
	cancel := j.cancel
	j.mu.Unlock()
	cancel()
	return j, true
}

// Runs returns the number of sweeps actually executed (cache hits and
// coalesced submissions excluded) — read from the same counter
// /metrics renders as hbmvolt_sweep_runs_total.
func (m *Manager) Runs() uint64 { return m.met.sweepRuns.Value() }

// RetryAfterSeconds is the server's backpressure hint when a
// submission is refused for queue depth: the expected time for the
// current backlog to drain, from observed job latency (queued jobs ÷
// workers × recent median), floored at 1 s.
func (m *Manager) RetryAfterSeconds() int {
	return retryAfterSeconds(len(m.queue)+1, m.cfg.Workers, m.latency.Median())
}

// jobStates lists the lifecycle states in the hbmvolt_jobs family's
// series order.
var jobStates = []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// jobCounts tallies the tracked jobs by lifecycle state for the
// hbmvolt_jobs family.
func (m *Manager) jobCounts() map[JobState]int {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	counts := make(map[JobState]int, len(jobStates))
	for _, j := range jobs {
		counts[j.State()]++
	}
	return counts
}

// worker drains the queue, running one sweep at a time.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		if !j.setRunning() {
			continue // cancelled while queued
		}
		m.runJob(j)
	}
}

// runJob executes one job under its submit-time context and records its
// terminal state. With a fleet forwarder configured (and the job not
// pinned local by a forwarded-once marker), execution routes through
// the forwarder: the key's owner serves it remotely when healthy, local
// compute otherwise — byte-identical either way. Only actual local
// sweeps count toward Runs; a remote-served job costs this node no
// compute.
func (m *Manager) runJob(j *Job) {
	defer j.cancel()
	start := time.Now()
	local := func(ctx context.Context) ([]byte, error) {
		m.met.sweepRuns.Inc()
		return m.runSweep(ctx, j)
	}
	var payload []byte
	var err error
	if m.forward != nil && !j.noForward {
		var info ServeInfo
		payload, info, err = m.forward.ExecuteSweep(j.runCtx, j.Key, j.Req, local)
		j.setServeInfo(info)
	} else {
		payload, err = local(j.runCtx)
		if m.forward != nil {
			j.setServeInfo(ServeInfo{ServedBy: m.forward.Self()})
		}
	}
	elapsed := time.Since(start)
	m.latency.Observe(elapsed)
	m.met.jobSeconds.Observe(elapsed.Seconds())
	var final JobState
	var errMsg string
	switch {
	case err == nil:
		// Locally computed payloads (and fleet-admitted remote ones) go
		// write-through to both tiers; a forwarded payload the fleet did
		// not admit for replication stays memory-only, so the replica byte
		// budget actually bounds what remote data lands on local disk.
		if info := j.ServeInfo(); m.forward != nil && info.ServedBy != "" &&
			info.ServedBy != m.forward.Self() && !info.Replicated {
			m.cache.PutMemory(j.Key, payload)
		} else {
			m.cache.Put(j.Key, payload)
		}
		final = StateDone
		m.met.payloadBytes.Observe(float64(len(payload)))
	case errors.Is(err, context.Canceled) || j.runCtx.Err() != nil:
		// A cancelled manager context (shutdown) lands here too.
		final, payload = StateCancelled, nil
	default:
		final, payload, errMsg = StateFailed, nil, err.Error()
		m.logger.WithTrace(j.runCtx).Warn("job failed",
			tlog.F("job", j.ID), tlog.F("kind", j.Req.Kind),
			tlog.F("key", formatKey(j.Key)), tlog.Err(err))
	}
	m.met.completed.With(string(final)).Inc()
	if j.trace != "" {
		info := j.ServeInfo()
		m.rec.RecordSpan(telemetry.Span{
			Trace: j.trace, Name: "job.run",
			Attrs: map[string]string{
				"job": j.ID, "state": string(final),
				"served_by": info.ServedBy,
				"degraded":  strconv.FormatBool(info.Degraded),
			},
			Time: start, Duration: elapsed,
		})
	}
	// The job finishes last: whoever observes its terminal state also
	// observes its completion counter and its job.run span.
	j.finish(final, payload, errMsg)
}

// executeSweep is the real sweep path, labeled for profilers: every
// sample taken under it carries the request kind and enumeration mode,
// so a CPU or mutex profile of a busy daemon splits by workload.
func (m *Manager) executeSweep(ctx context.Context, j *Job) (payload []byte, err error) {
	pprof.Do(ctx, pprof.Labels(
		"hbmvolt_kind", j.Req.Kind,
		"hbmvolt_shared", strconv.FormatBool(j.Req.Shared),
	), func(ctx context.Context) {
		payload, err = m.sweepPayload(ctx, j)
	})
	return payload, err
}

// sweepPayload builds the request's board (or, for the analytic kinds,
// its full-capacity fault model), runs the configured study through
// internal/core with progress events, and marshals the deterministic
// payload.
func (m *Manager) sweepPayload(ctx context.Context, j *Job) ([]byte, error) {
	req := j.Req
	onPoint := func(p core.SweepProgress) {
		j.appendEvent(Event{Type: "progress", SweepProgress: p})
	}
	env := Envelope{Kind: req.Kind, Key: formatKey(j.Key)}
	env.Request = req
	env.Request.Workers = 0

	// The analytic kinds need no board — just the device's fault model
	// at full geometry, the same construction System's atlas uses.
	if req.Kind == KindFaultMap || req.Kind == KindECCStudy {
		fcfg, err := board.FaultConfig(board.Config{Seed: req.Seed, Scale: req.Scale})
		if err != nil {
			return nil, err
		}
		fm, err := faults.New(fcfg)
		if err != nil {
			return nil, err
		}
		switch req.Kind {
		case KindFaultMap:
			study, err := core.RunFaultMapStudy(fm, req.Grid)
			if err != nil {
				return nil, err
			}
			env.FaultMap = study
		case KindECCStudy:
			study, err := core.RunECCStudy(fm, req.Grid)
			if err != nil {
				return nil, err
			}
			env.ECC = study
		}
		return report.Marshal(env)
	}

	b, err := board.New(board.Config{
		Seed:         req.Seed,
		Scale:        req.Scale,
		NoiseSigma:   req.Noise,
		SparseFaults: !req.Exact,
	})
	if err != nil {
		return nil, err
	}

	switch req.Kind {
	case KindReliability:
		patterns := make([]pattern.Pattern, len(req.Patterns))
		for i, name := range req.Patterns {
			if patterns[i], err = pattern.ByName(name); err != nil {
				return nil, err
			}
		}
		ports := make([]hbm.PortID, len(req.Ports))
		for i, p := range req.Ports {
			ports[i] = hbm.PortID(p)
		}
		workers := req.Workers
		if workers == 0 {
			workers = m.cfg.FleetSize
		}
		res, err := core.RunReliability(ctx, core.ReliabilityConfig{
			Board:             b,
			Ports:             ports,
			Patterns:          patterns,
			BatchSize:         req.Batch,
			Grid:              req.Grid,
			Workers:           workers,
			SharedEnumeration: req.Shared,
			OnPoint:           onPoint,
		})
		if err != nil {
			return nil, err
		}
		env.Reliability = res
	case KindPower:
		res, err := core.RunPowerSweep(ctx, core.PowerSweepConfig{
			Board:      b,
			Grid:       req.Grid,
			PortCounts: req.PortCounts,
			Samples:    req.Samples,
			OnPoint:    onPoint,
		})
		if err != nil {
			return nil, err
		}
		env.Power = res
	default:
		return nil, badRequest("unknown kind %q", req.Kind)
	}
	return report.Marshal(env)
}
