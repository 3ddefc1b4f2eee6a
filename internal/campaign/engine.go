package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hbmvolt/internal/report"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
)

// Options parameterizes a campaign run.
type Options struct {
	// Jobs is the number of sweeps executing concurrently (the job
	// manager's worker count; default 2).
	Jobs int
	// Fleet is the per-sweep board-fleet size hint applied to every
	// submitted cell (default 1, sequential). Results are bit-identical
	// at every fleet size, so Fleet never appears in cache keys,
	// manifests or artifacts.
	Fleet int
	// OnCell, when non-nil, is called after each completed (cell,
	// repeat) execution with monotone counters.
	OnCell func(done, total int)
	// CacheDir, when non-empty, backs Run's private manager with the
	// durable disk cache tier rooted there (service.Config.CacheDir), so
	// computed cells survive a crash. Rerunning an interrupted campaign
	// over the same directory resumes it: cells the disk tier holds are
	// served from it, the rest (never finished, evicted, or discarded as
	// corrupt by the read verification) are recomputed, and the manifest
	// is byte-identical to an uninterrupted run's. Ignored by Execute,
	// which uses the caller's manager.
	CacheDir string
	// DiskCacheBytes bounds the disk tier (0 = unbounded).
	DiskCacheBytes int64
	// Metrics, when non-nil, is the telemetry registry Run's private
	// manager reports into — the hook the CLI's -metrics dump uses.
	// Ignored by Execute, which reports into the caller's manager
	// registry.
	Metrics *telemetry.Registry
	// TraceID, when non-empty, rides every cell submission as its
	// observability trace (see internal/telemetry): the cells' job.*,
	// cache.*, enum.*, and fleet.* spans all carry it, so one campaign
	// is followable across coalescing, cache tiers, and fleet forwards.
	// Strictly write-beside: it never affects cache keys, manifests, or
	// payload bytes.
	TraceID string
	// SharedEnumeration runs the campaign through the sweep planner:
	// reliability cells are grouped by their (fault-model fingerprint ×
	// voltage grid × sampling mode) physics sub-key, switched to
	// shared-enumeration execution, and scheduled group-adjacent so each
	// group's (voltage, port, rep) stuck-cell enumerations are computed
	// once for the whole campaign (see planner.go). Planned manifests
	// carry a "plan" section and are byte-identical across Jobs/Fleet
	// settings, like unplanned ones — but they are a different (shared,
	// separately golden-pinned) realization, so planned and unplanned
	// runs of one spec do not share cache entries.
	SharedEnumeration bool
}

// Manifest is the deterministic campaign summary: cells in spec order,
// each with its cache key and the SHA-256 of its payload bytes. Two
// runs of the same spec — any worker count, any fleet size, fresh or
// cache-served — produce byte-identical manifests.
type Manifest struct {
	Campaign     string `json:"campaign"`
	Description  string `json:"description,omitempty"`
	Cells        int    `json:"cells"`
	UniqueSweeps int    `json:"unique_sweeps"`
	// Plan documents the sweep planner's computation-sharing schedule;
	// present only for campaigns run with Options.SharedEnumeration.
	Plan      *Plan              `json:"plan,omitempty"`
	Scenarios []ScenarioManifest `json:"scenarios"`
}

// ScenarioManifest is one scenario's section of the manifest.
type ScenarioManifest struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Artifact is the scenario's NDJSON artifact filename: one line per
	// cell, each line a complete service result envelope.
	Artifact string         `json:"artifact"`
	Cells    []CellManifest `json:"cells"`
}

// CellManifest records one executed cell.
type CellManifest struct {
	Index int `json:"index"`
	// Key is the cell's service cache key (16 hex digits).
	Key string `json:"key"`
	// Repeat is how many times the cell was submitted; the submissions
	// coalesced onto one computation and returned consistent bytes.
	Repeat int `json:"repeat,omitempty"`
	// Request is the normalized sweep request (Workers stripped).
	Request service.SweepRequest `json:"request"`
	// SHA256 and Bytes fingerprint the cell's payload.
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// CellResult pairs a cell with its executed payload.
type CellResult struct {
	Cell    Cell
	Payload []byte
}

// ScenarioResult groups executed cells by scenario, in spec order.
type ScenarioResult struct {
	Name  string
	Kind  string
	Cells []CellResult
}

// Result is a completed campaign: the normalized spec, the manifest,
// and every payload grouped by scenario.
type Result struct {
	Spec      Spec
	Manifest  Manifest
	Scenarios []ScenarioResult
}

// Run normalizes and executes spec on a private job manager, returning
// the completed result. Duplicate cells coalesce; the manifest and all
// artifacts are byte-identical across runs and across Jobs/Fleet
// settings.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = 2
	}
	queue := spec.CellTotal() + jobs
	if queue < 16 {
		queue = 16
	}
	mgr, err := service.OpenManager(service.Config{
		Workers:        jobs,
		QueueDepth:     queue,
		FleetSize:      1,
		CacheDir:       opts.CacheDir,
		DiskCacheBytes: opts.DiskCacheBytes,
		Metrics:        opts.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", spec.Name, err)
	}
	defer mgr.Close()
	return Execute(ctx, mgr, spec, opts)
}

// Execute runs an already normalized spec's cells through an existing
// job manager — the daemon path, where many campaigns share one
// manager, its queue, and its result cache. Submission applies
// backpressure: when the manager's queue is full, the engine waits for
// one of its own outstanding cells to finish before submitting more.
// On any error — a failed cell, a cancelled context — every sweep this
// campaign submitted is cancelled before returning, so an abandoned
// campaign stops consuming the shared worker pool.
func Execute(ctx context.Context, mgr *service.Manager, spec Spec, opts Options) (res *Result, err error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	fleet := opts.Fleet
	if fleet < 0 {
		fleet = 0
	}

	// Planner pass: group reliability cells by physics sub-key, switch
	// them to shared enumeration, and submit group-adjacent. Collection,
	// manifests and artifacts stay in campaign order either way.
	var plan *Plan
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	if opts.SharedEnumeration {
		if plan, err = planCells(cells); err != nil {
			return nil, err
		}
		if cells, err = applyPlan(cells, plan); err != nil {
			return nil, err
		}
		order = plan.submissionOrder(len(cells))
	}

	met := newCampaignMetrics(mgr.Metrics())
	met.cells.With("planned").Add(uint64(len(cells)))

	payloads := make([][]byte, len(cells))

	// One execution per (cell, repeat), in schedule order.
	var execs []execution
	defer func() {
		if err == nil {
			return
		}
		for _, e := range execs {
			mgr.Cancel(e.job.ID)
		}
	}()
	for _, i := range order {
		c := &cells[i]
		for rep := 0; rep < c.Repeat; rep++ {
			req := c.Request
			req.Workers = fleet
			j, serr := submitCell(ctx, execs, func() (*service.Job, error) {
				j, _, _, err := mgr.SubmitOpts(req, service.SubmitOptions{TraceID: opts.TraceID})
				return j, err
			})
			if serr != nil {
				return nil, fmt.Errorf("campaign %s: scenario %q cell %d: %w",
					spec.Name, c.Scenario, c.Index, serr)
			}
			execs = append(execs, execution{cell: i, job: j})
		}
	}

	// Collect in campaign order. Repeated submissions coalesce onto one
	// job, so the equality check below guards the coalescing/cache
	// layer's consistency, not independent re-executions.
	res = &Result{Spec: spec}
	for n, e := range execs {
		// Wait returns a terminal job's state even under a cancelled
		// context; check explicitly so cancellation stops the campaign at
		// the next cell boundary instead of racing job completion.
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("campaign %s: %w", spec.Name, cerr)
		}
		c := &cells[e.cell]
		st, werr := e.job.Wait(ctx)
		if werr != nil {
			return nil, fmt.Errorf("campaign %s: %w", spec.Name, werr)
		}
		switch st {
		case service.StateDone:
		case service.StateFailed:
			return nil, fmt.Errorf("campaign %s: scenario %q cell %d failed: %s",
				spec.Name, c.Scenario, c.Index, e.job.Err())
		default:
			return nil, fmt.Errorf("campaign %s: scenario %q cell %d was %s",
				spec.Name, c.Scenario, c.Index, st)
		}
		payload := e.job.Payload()
		if payloads[e.cell] == nil {
			payloads[e.cell] = payload
		} else if !bytes.Equal(payloads[e.cell], payload) {
			return nil, fmt.Errorf("campaign %s: scenario %q cell %d: repeat produced a different payload (determinism violation)",
				spec.Name, c.Scenario, c.Index)
		}
		met.cells.With("completed").Inc()
		if opts.OnCell != nil {
			opts.OnCell(n+1, len(execs))
		}
	}

	res.Manifest, res.Scenarios = assemble(spec, cells, payloads)
	res.Manifest.Plan = plan
	return res, nil
}

// execution is one submitted (cell, repeat) pair.
type execution struct {
	cell int // index into the campaign's cell list
	job  *service.Job
}

// submitCell submits one execution, applying backpressure on a full
// queue: it waits for the oldest of execs still pending, then retries.
// When none is pending the worker may have drained them all between the
// failed submit and the scan, so the submit is retried once more; a
// second full queue with nothing of ours pending means other clients
// saturate it, and that is surfaced.
func submitCell(ctx context.Context, execs []execution, submit func() (*service.Job, error)) (*service.Job, error) {
	retried := false
	for {
		j, err := submit()
		if err == nil {
			return j, nil
		}
		if !errors.Is(err, service.ErrQueueFull) {
			return nil, err
		}
		switch werr := waitOldest(ctx, execs); {
		case werr == nil:
			retried = false
		case errors.Is(werr, service.ErrQueueFull) && !retried:
			retried = true
		default:
			return nil, fmt.Errorf("queue full: %w", werr)
		}
	}
}

// waitOldest blocks until the first non-terminal job among execs
// finishes. It returns service.ErrQueueFull if every exec is already
// terminal (nothing of ours can free a slot).
func waitOldest(ctx context.Context, execs []execution) error {
	for _, e := range execs {
		if e.job.State() == service.StateQueued || e.job.State() == service.StateRunning {
			_, err := e.job.Wait(ctx)
			return err
		}
	}
	return service.ErrQueueFull
}

// assemble builds the manifest and grouped results from executed
// payloads, strictly in spec order.
func assemble(spec Spec, cells []Cell, payloads [][]byte) (Manifest, []ScenarioResult) {
	m := Manifest{
		Campaign:    spec.Name,
		Description: spec.Description,
		Cells:       len(cells),
	}
	unique := make(map[uint64]bool, len(cells))
	for i := range cells {
		unique[cells[i].Key] = true
	}
	m.UniqueSweeps = len(unique)

	var results []ScenarioResult
	byName := make(map[string]int)
	for _, sc := range spec.Scenarios {
		byName[sc.Name] = len(results)
		results = append(results, ScenarioResult{Name: sc.Name, Kind: sc.Kind})
		m.Scenarios = append(m.Scenarios, ScenarioManifest{
			Name:     sc.Name,
			Kind:     sc.Kind,
			Artifact: sc.Name + ".ndjson",
		})
	}
	for i := range cells {
		c := &cells[i]
		payload := payloads[i]
		sum := sha256.Sum256(payload)
		si := byName[c.Scenario]
		repeat := 0
		if c.Repeat > 1 {
			repeat = c.Repeat
		}
		m.Scenarios[si].Cells = append(m.Scenarios[si].Cells, CellManifest{
			Index:   c.Index,
			Key:     service.FormatKey(c.Key),
			Repeat:  repeat,
			Request: c.Request,
			SHA256:  hex.EncodeToString(sum[:]),
			Bytes:   len(payload),
		})
		results[si].Cells = append(results[si].Cells, CellResult{Cell: *c, Payload: payload})
	}
	return m, results
}

// ManifestJSON marshals the manifest deterministically (compact JSON,
// trailing newline — the same serialization the service uses).
func (r *Result) ManifestJSON() ([]byte, error) {
	return report.Marshal(r.Manifest)
}

// WriteArtifacts writes manifest.json plus one NDJSON artifact per
// scenario (one result-envelope line per cell, in cell order) into dir,
// creating it if needed. File contents are byte-identical across runs
// of the same spec.
func (r *Result) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	manifest, err := r.ManifestJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
		return err
	}
	for _, sr := range r.Scenarios {
		var buf []byte
		for _, cr := range sr.Cells {
			buf = append(buf, cr.Payload...)
		}
		if err := os.WriteFile(filepath.Join(dir, sr.Name+".ndjson"), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}
