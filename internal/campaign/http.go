package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
)

// API serves the campaign routes on top of a shared sweep-service job
// manager: campaigns fan their cells into the same queue, worker pool
// and result cache that single-sweep submissions use, so a campaign
// cell and an identical ad-hoc sweep coalesce onto one computation.
//
//	POST   /v1/campaigns       submit a spec (or {"builtin": name})
//	GET    /v1/campaigns       list campaign runs
//	GET    /v1/campaigns/{id}  status; manifest included once done
//	DELETE /v1/campaigns/{id}  cancel the run's remaining cells
type API struct {
	mgr *service.Manager

	mu     sync.Mutex
	nextID uint64
	runs   map[string]*apiRun
	order  []string
}

// maxRuns bounds retained campaign records; the oldest terminal runs
// are evicted beyond it.
const maxRuns = 256

// apiRun is one submitted campaign's lifecycle. Only the manifest is
// retained after completion — cell payloads stay addressable through
// the shared result cache, not through the campaign record.
type apiRun struct {
	id     string
	spec   Spec
	fleet  int
	trace  string
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string // "running" | "done" | "failed" | "cancelled"
	done     int
	total    int
	errMsg   string
	manifest *Manifest
}

// NewAPI builds the campaign API over mgr.
func NewAPI(mgr *service.Manager) *API {
	return &API{mgr: mgr, runs: make(map[string]*apiRun)}
}

// Register mounts the campaign routes on mux.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/campaigns", a.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", a.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", a.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", a.handleCancel)
}

// SubmitBody is the POST /v1/campaigns request: either a built-in
// campaign by name or an inline spec.
type SubmitBody struct {
	// Builtin names a built-in campaign ("paper-repro"); Smoke selects
	// its smoke-scale variant. Mutually exclusive with Spec.
	Builtin string `json:"builtin,omitempty"`
	Smoke   bool   `json:"smoke,omitempty"`
	// Spec is an inline campaign spec.
	Spec *Spec `json:"spec,omitempty"`
	// Fleet is the per-sweep worker-count hint (never affects results
	// or the manifest).
	Fleet int `json:"fleet,omitempty"`
}

// Status is the externally visible campaign state.
type Status struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	State    string `json:"state"`
	// Done/Total count (cell, repeat) executions.
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	// Trace is the run's observability trace ID: every cell's spans
	// across the fleet carry it (see GET /v1/traces/{id}).
	Trace string `json:"trace,omitempty"`
	// Manifest is present once State is "done".
	Manifest *Manifest `json:"manifest,omitempty"`
}

func (r *apiRun) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:       r.id,
		Campaign: r.spec.Name,
		State:    r.state,
		Done:     r.done,
		Total:    r.total,
		Error:    r.errMsg,
		Trace:    r.trace,
	}
	st.Manifest = r.manifest
	return st
}

// maxBody bounds campaign POST bodies; a maximal spec is a few hundred
// KB of grids and pattern sets.
const maxBody = 4 << 20

// maxActiveRuns bounds concurrently running campaigns; submissions
// beyond it get 503 (the cells already backpressure through the sweep
// queue, but the campaign records and their driver goroutines need an
// admission bound of their own).
const maxActiveRuns = 16

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Campaign submissions draw admission tokens from the same
	// per-client bucket as sweep submissions: a client cannot dodge its
	// rate by wrapping sweeps in campaigns. The manager's key honors
	// TrustProxy, so clients behind a trusted proxy get their own
	// buckets here too.
	if !a.mgr.Admit(w, r) {
		return
	}
	var body SubmitBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		service.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	var spec Spec
	switch {
	case body.Builtin != "" && body.Spec != nil:
		service.WriteError(w, http.StatusBadRequest, "builtin and spec are mutually exclusive")
		return
	case body.Builtin != "":
		var err error
		if spec, err = Builtin(body.Builtin, body.Smoke); err != nil {
			service.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case body.Spec != nil:
		spec = *body.Spec
	default:
		service.WriteError(w, http.StatusBadRequest, "missing campaign: want \"builtin\" or \"spec\"")
		return
	}
	if body.Fleet < 0 || body.Fleet > 256 {
		service.WriteError(w, http.StatusBadRequest, "fleet %d out of [0, 256]", body.Fleet)
		return
	}
	if err := spec.Normalize(); err != nil {
		service.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The campaign edge mints (or adopts) the trace ID exactly like the
	// sweep edge: every cell submission carries it, so one ID follows
	// the whole campaign through coalescing, cache tiers, and fleet
	// forwards. Observability only — never a cache key or manifest input.
	trace := telemetry.AdoptTrace(w, r)

	ctx, cancel := context.WithCancel(context.Background())
	run := &apiRun{spec: spec, fleet: body.Fleet, trace: trace, cancel: cancel, state: "running", total: spec.Executions()}
	a.mu.Lock()
	if active := a.activeLocked(); active >= maxActiveRuns {
		a.mu.Unlock()
		cancel()
		// Retry-After reflects the sweep queue the running campaigns are
		// draining through — observed job latency, not a hardcoded guess.
		w.Header().Set("Retry-After", strconv.Itoa(a.mgr.RetryAfterSeconds()))
		service.WriteError(w, http.StatusServiceUnavailable,
			"%d campaigns already running (max %d)", active, maxActiveRuns)
		return
	}
	a.nextID++
	run.id = fmt.Sprintf("cmp-%06d", a.nextID)
	a.runs[run.id] = run
	a.order = append(a.order, run.id)
	a.evictLocked()
	a.mu.Unlock()

	go a.execute(ctx, run)
	service.WriteJSON(w, http.StatusAccepted, run.status())
}

// execute drives one campaign run to completion in the background.
func (a *API) execute(ctx context.Context, run *apiRun) {
	defer run.cancel()
	a.mgr.Recorder().Record(run.trace, "campaign.submit", map[string]string{
		"campaign": run.spec.Name, "id": run.id,
	})
	res, err := Execute(ctx, a.mgr, run.spec, Options{
		Fleet:   run.fleet,
		TraceID: run.trace,
		OnCell: func(done, total int) {
			run.mu.Lock()
			run.done, run.total = done, total
			run.mu.Unlock()
		},
	})
	run.mu.Lock()
	defer run.mu.Unlock()
	switch {
	case err == nil:
		run.state = "done"
		run.manifest = &res.Manifest
	case errors.Is(err, context.Canceled):
		run.state = "cancelled"
	default:
		run.state = "failed"
		run.errMsg = err.Error()
	}
	newCampaignMetrics(a.mgr.Metrics()).runs.With(run.state).Inc()
}

// activeLocked counts non-terminal runs (a.mu held).
func (a *API) activeLocked() int {
	n := 0
	for _, run := range a.runs {
		run.mu.Lock()
		if run.state == "running" {
			n++
		}
		run.mu.Unlock()
	}
	return n
}

// evictLocked drops the oldest terminal runs beyond maxRuns (a.mu held).
func (a *API) evictLocked() {
	for len(a.runs) > maxRuns {
		evicted := false
		for i, id := range a.order {
			run, ok := a.runs[id]
			if !ok {
				continue
			}
			run.mu.Lock()
			terminal := run.state != "running"
			run.mu.Unlock()
			if !terminal {
				continue
			}
			delete(a.runs, id)
			a.order = append(a.order[:i:i], a.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

func (a *API) run(w http.ResponseWriter, r *http.Request) (*apiRun, bool) {
	id := r.PathValue("id")
	a.mu.Lock()
	run, ok := a.runs[id]
	a.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusNotFound, "no campaign %q", id)
		return nil, false
	}
	return run, true
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := a.run(w, r)
	if !ok {
		return
	}
	service.WriteJSON(w, http.StatusOK, run.status())
}

// handleCancel aborts a run: the engine's cleanup then cancels every
// sweep the campaign submitted (shared-manager semantics — a cell
// coalesced with another client's identical sweep is cancelled for
// both, mirroring DELETE /v1/sweeps/{id}).
func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := a.run(w, r)
	if !ok {
		return
	}
	run.cancel()
	service.WriteJSON(w, http.StatusOK, run.status())
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	ids := append([]string(nil), a.order...)
	runs := make([]*apiRun, 0, len(ids))
	for _, id := range ids {
		if run, ok := a.runs[id]; ok {
			runs = append(runs, run)
		}
	}
	a.mu.Unlock()
	out := make([]Status, 0, len(runs))
	for _, run := range runs {
		st := run.status()
		st.Manifest = nil // list stays light
		out = append(out, st)
	}
	service.WriteJSON(w, http.StatusOK, out)
}
