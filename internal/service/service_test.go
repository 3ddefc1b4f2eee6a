package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hbmvolt/internal/core"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// smallReliability is a sweep cheap enough to run for real in unit
// tests: one sensitive port, one pattern, two voltage points.
func smallReliability() SweepRequest {
	return SweepRequest{
		Kind:     KindReliability,
		Scale:    1024,
		Grid:     []float64{0.90, 0.89},
		Patterns: []string{"all1"},
		Ports:    []int{18},
		Batch:    2,
	}
}

// openServer opens a server and closes it with the test.
func openServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// openManager opens a manager and closes it with the test.
func openManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// newTestServer builds a server over httptest and tears both down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := openServer(t, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

// TestLifecycleSubmitStreamResult drives the full happy path over real
// HTTP: submit → stream progress events → terminal done → fetch result,
// then replays the stream after completion and checks the history is
// intact.
func TestLifecycleSubmitStreamResult(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	sub, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Coalesced || sub.CacheHit {
		t.Fatalf("fresh submit flagged coalesced=%v cacheHit=%v", sub.Coalesced, sub.CacheHit)
	}

	var progress []Event
	var terminalType string
	err = c.Stream(ctx, sub.ID, func(e Event) error {
		switch e.Type {
		case "progress":
			progress = append(progress, e)
		default:
			terminalType = e.Type
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if terminalType != string(StateDone) {
		t.Fatalf("terminal event %q, want done", terminalType)
	}
	if len(progress) != 2 {
		t.Fatalf("progress events = %d, want 2 (one per grid point)", len(progress))
	}
	last := progress[len(progress)-1]
	if last.Done != 2 || last.Total != 2 {
		t.Fatalf("final progress %d/%d, want 2/2", last.Done, last.Total)
	}

	st, err := c.Status(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Done != 2 {
		t.Fatalf("status = %+v", st)
	}

	payload, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Kind        string       `json:"kind"`
		Key         string       `json:"key"`
		Request     SweepRequest `json:"request"`
		Reliability struct {
			Points []struct {
				Volts float64 `json:"Volts"`
			} `json:"Points"`
		} `json:"reliability"`
	}
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatalf("payload not JSON: %v\n%s", err, payload)
	}
	if env.Kind != KindReliability || env.Key != sub.Key {
		t.Fatalf("envelope kind=%q key=%q, want %q/%q", env.Kind, env.Key, KindReliability, sub.Key)
	}
	if len(env.Reliability.Points) != 2 || env.Reliability.Points[0].Volts != 0.90 {
		t.Fatalf("reliability points = %+v", env.Reliability.Points)
	}
	if env.Request.Workers != 0 {
		t.Fatal("payload must not echo the Workers parallelism hint")
	}

	// A late subscriber replays the full history.
	var replay []string
	if err := c.Stream(ctx, sub.ID, func(e Event) error {
		replay = append(replay, e.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replay) != 3 || replay[2] != string(StateDone) {
		t.Fatalf("replayed stream = %v", replay)
	}
}

// TestRepeatServedFromCache pins the acceptance contract: a repeated
// identical request is answered from the cache with a byte-identical
// body and no recomputation — including when it differs only in the
// Workers hint, and when the original job record has been evicted.
func TestRepeatServedFromCache(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, MaxJobs: 1})
	ctx := context.Background()

	sub, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	if state, err := c.Wait(ctx, sub.ID); err != nil || state != StateDone {
		t.Fatalf("wait: state=%v err=%v", state, err)
	}
	first, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if runs := srv.Manager().Runs(); runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}

	// Identical resubmission coalesces onto the done job.
	again, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Coalesced || !again.CacheHit || again.ID != sub.ID {
		t.Fatalf("resubmit = %+v, want coalesced cache hit on %s", again, sub.ID)
	}
	repeat, err := c.Result(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, repeat) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", first, repeat)
	}

	// A different Workers hint must key identically.
	hinted := smallReliability()
	hinted.Workers = 7
	h, err := c.Submit(ctx, hinted)
	if err != nil {
		t.Fatal(err)
	}
	if h.Key != sub.Key || !h.CacheHit {
		t.Fatalf("workers hint changed the key: %+v vs %s", h, sub.Key)
	}

	// Evict the job record (MaxJobs=1) with an unrelated sweep, then
	// resubmit: the LRU still answers without recomputation.
	other := smallReliability()
	other.Seed = 99
	o, err := c.Submit(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, o.ID); err != nil {
		t.Fatal(err)
	}
	evicted, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	if !evicted.CacheHit || evicted.State != StateDone {
		t.Fatalf("post-eviction resubmit = %+v, want immediate cache hit", evicted)
	}
	fromCache, err := c.Result(ctx, evicted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, fromCache) {
		t.Fatal("post-eviction cached body not byte-identical")
	}
	if runs := srv.Manager().Runs(); runs != 2 {
		t.Fatalf("runs = %d, want 2 (original + unrelated sweep only)", runs)
	}
}

// blockingRunner replaces the sweep path with one that signals when it
// starts, then blocks until cancelled or released.
type blockingRunner struct {
	started chan string   // job IDs, in start order
	release chan struct{} // close to let runs complete
	payload func(j *Job) []byte
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{
		started: make(chan string, 16),
		release: make(chan struct{}),
		payload: func(j *Job) []byte { return []byte(`{"stub":"` + j.ID + `"}` + "\n") },
	}
}

func (b *blockingRunner) run(ctx context.Context, j *Job) ([]byte, error) {
	b.started <- j.ID
	j.appendEvent(Event{Type: "progress", SweepProgress: core.SweepProgress{Done: 1, Total: 2, Volts: 0.90}})
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.release:
		return b.payload(j), nil
	}
}

// TestCancelMidSweep exercises DELETE while the sweep is mid-flight:
// the event stream must end with a "cancelled" event and the job must
// settle in the cancelled state.
func TestCancelMidSweep(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	runner := newBlockingRunner()
	srv.Manager().runSweep = runner.run
	ctx := context.Background()

	sub, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started // sweep is running and has emitted progress

	streamDone := make(chan []string, 1)
	go func() {
		var types []string
		c.Stream(ctx, sub.ID, func(e Event) error {
			types = append(types, e.Type)
			return nil
		})
		streamDone <- types
	}()

	if _, err := c.Cancel(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case types := <-streamDone:
		if len(types) == 0 || types[len(types)-1] != string(StateCancelled) {
			t.Fatalf("stream events = %v, want trailing cancelled", types)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not terminate after cancel")
	}
	st, err := c.Status(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	// Cancelled sweeps must not poison the cache: a resubmission starts
	// a fresh run rather than coalescing onto the cancelled job.
	resub, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	if resub.Coalesced || resub.CacheHit || resub.ID == sub.ID {
		t.Fatalf("resubmit after cancel = %+v, want a fresh job", resub)
	}
	<-runner.started
	close(runner.release)
	if state, err := c.Wait(ctx, resub.ID); err != nil || state != StateDone {
		t.Fatalf("resubmitted job: state=%v err=%v", state, err)
	}
}

// TestConcurrentIdenticalSubmissionsCoalesce pins the second acceptance
// criterion: two identical submissions arriving while the sweep is
// in flight share one job and one scheduler run.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	runner := newBlockingRunner()
	srv.Manager().runSweep = runner.run
	ctx := context.Background()

	first, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started // in flight

	// A burst of identical submissions while the first is running.
	const burst = 8
	ids := make([]string, burst)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := c.Submit(ctx, smallReliability())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if !sub.Coalesced {
				t.Errorf("submit %d not coalesced: %+v", i, sub)
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id != first.ID {
			t.Fatalf("submission %d got job %s, want %s", i, id, first.ID)
		}
	}

	close(runner.release)
	if state, err := c.Wait(ctx, first.ID); err != nil || state != StateDone {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if runs := srv.Manager().Runs(); runs != 1 {
		t.Fatalf("runs = %d, want 1 for %d identical submissions", runs, burst+1)
	}
}

// TestQueueBound verifies the bounded backlog: with one worker busy and
// the queue full, a distinct submission is rejected with 503.
func TestQueueBound(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	runner := newBlockingRunner()
	srv.Manager().runSweep = runner.run
	ctx := context.Background()

	reqN := func(seed uint64) SweepRequest {
		r := smallReliability()
		r.Seed = seed
		return r
	}
	if _, err := c.Submit(ctx, reqN(1)); err != nil {
		t.Fatal(err)
	}
	<-runner.started // worker busy
	if _, err := c.Submit(ctx, reqN(2)); err != nil {
		t.Fatal(err) // sits in the queue
	}
	_, err := c.Submit(ctx, reqN(3))
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit err = %v, want 503", err)
	}
	close(runner.release)
}

// TestPowerSweepLifecycle runs a real power sweep through the service.
func TestPowerSweepLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	sub, err := c.Submit(ctx, SweepRequest{
		Kind:       KindPower,
		Scale:      1024,
		Grid:       []float64{1.20, 1.10},
		PortCounts: []int{0, 32},
		Samples:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	var lastWatts float64
	if err := c.Stream(ctx, sub.ID, func(e Event) error {
		if e.Type == "progress" {
			progress++
			lastWatts = e.Watts
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if progress != 4 {
		t.Fatalf("progress events = %d, want 4 (2 voltages x 2 port counts)", progress)
	}
	if lastWatts <= 0 {
		t.Fatal("power progress events must carry watts")
	}
	payload, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Power struct {
			Points        []struct{ Watts float64 }
			BaselineWatts float64
		} `json:"power"`
	}
	if err := json.Unmarshal(payload, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Power.Points) != 4 || env.Power.BaselineWatts <= 0 {
		t.Fatalf("power payload = %+v", env.Power)
	}
}

// TestMalformedRequests walks the 4xx surface.
func TestMalformedRequests(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(c.BaseURL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	badBodies := map[string]string{
		"not JSON":            `{kind:`,
		"unknown field":       `{"kind":"reliability","voltage":0.9}`,
		"missing kind":        `{}`,
		"unknown kind":        `{"kind":"thermal"}`,
		"scale not pow2":      `{"kind":"reliability","scale":3}`,
		"scale too deep":      `{"kind":"reliability","scale":1048576}`,
		"unknown pattern":     `{"kind":"reliability","patterns":["zebra"]}`,
		"port out of range":   `{"kind":"reliability","ports":[99]}`,
		"grid out of range":   `{"kind":"reliability","grid":[9.9]}`,
		"power with patterns": `{"kind":"power","patterns":["all1"]}`,
		"power with batch":    `{"kind":"power","batch":7}`,
		"power with exact":    `{"kind":"power","exact":true}`,
		"negative batch":      `{"kind":"reliability","batch":-1}`,
		"noise on rel":        `{"kind":"reliability","noise":0.01}`,
		"noise out of range":  `{"kind":"power","noise":0.9}`,
		"faultmap with batch": `{"kind":"faultmap","batch":2}`,
		"faultmap with scale": `{"kind":"faultmap","scale":1024}`,
		"ecc with exact":      `{"kind":"ecc-study","exact":true}`,
	}
	for name, body := range badBodies {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if got := telemetrytest.Scrape(t, srv).Sum("hbmvolt_jobs"); got != 0 {
		t.Fatalf("malformed requests created %v jobs", got)
	}

	for _, req := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/sweeps/nope", http.StatusNotFound},
		{http.MethodGet, "/v1/sweeps/nope/result", http.StatusNotFound},
		{http.MethodGet, "/v1/sweeps/nope/events", http.StatusNotFound},
		{http.MethodDelete, "/v1/sweeps/nope", http.StatusNotFound},
	} {
		hr, err := http.NewRequestWithContext(ctx, req.method, c.BaseURL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != req.want {
			t.Errorf("%s %s: status %d, want %d", req.method, req.path, resp.StatusCode, req.want)
		}
	}

	// Result of a not-yet-done job is a 409.
	runner := newBlockingRunner()
	srv.Manager().runSweep = runner.run
	sub, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started
	_, err = c.Result(ctx, sub.ID)
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job err = %v, want 409", err)
	}
	close(runner.release)
}

// TestHealthz pins the liveness body byte for byte, before and after a
// drain begins, while the job and cache counters of a completed sweep
// live in the registry.
func TestHealthz(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	body := func() string {
		t.Helper()
		resp, err := http.Get(c.BaseURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz: HTTP %d, %v", resp.StatusCode, err)
		}
		return string(b)
	}

	sub, err := c.Submit(ctx, smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	if got, want := body(), "{\"status\":\"ok\"}\n"; got != want {
		t.Fatalf("/healthz = %q, want %q", got, want)
	}
	got := telemetrytest.Scrape(t, srv)
	for series, want := range map[string]float64{
		`hbmvolt_jobs{state="done"}`:           1,
		"hbmvolt_sweep_runs_total":             1,
		`hbmvolt_cache_entries{tier="memory"}`: 1,
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}

	if err := srv.Manager().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := body(), "{\"status\":\"ok\",\"draining\":true}\n"; got != want {
		t.Fatalf("/healthz while draining = %q, want %q", got, want)
	}
}

func asAPIError(err error, target **APIError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*APIError)
	if ok {
		*target = e
	}
	return ok
}

func TestCacheLRUEviction(t *testing.T) {
	cch := newResultCache(nil, NewMemoryTier(2, 1<<20), nil)
	cch.Put(1, []byte("a"))
	cch.Put(2, []byte("b"))
	if _, _, ok := cch.Get(1); !ok { // refresh 1; 2 is now LRU
		t.Fatal("entry 1 missing")
	}
	cch.Put(3, []byte("c"))
	if _, _, ok := cch.Get(2); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if _, _, ok := cch.Get(1); !ok {
		t.Fatal("entry 1 evicted despite recency")
	}
	if cch.mem.Len() != 2 {
		t.Fatalf("len = %d", cch.mem.Len())
	}
}

// TestCacheByteAccounting pins the satellite fix: every payload kind
// weighs its real bytes, so a large analytic envelope exerts the same
// eviction pressure per byte as sweep payloads, and the byte counter
// always equals the sum of retained payload sizes.
func TestCacheByteAccounting(t *testing.T) {
	cch := newResultCache(nil, NewMemoryTier(100, 100), nil)
	cch.Put(1, make([]byte, 40)) // a "sweep" payload
	cch.Put(2, make([]byte, 40)) // another
	if got := cch.mem.Bytes(); got != 80 {
		t.Fatalf("bytes = %d, want 80", got)
	}
	// A 60-byte "faultmap envelope" overflows the budget: the LRU entry
	// (key 1) goes, not an entry count's worth.
	cch.Put(3, make([]byte, 60))
	if _, _, ok := cch.Get(1); ok {
		t.Fatal("oldest entry survived byte-pressure eviction")
	}
	if _, _, ok := cch.Get(2); !ok {
		t.Fatal("entry 2 evicted though the byte budget held")
	}
	if got := cch.mem.Bytes(); got != 100 {
		t.Fatalf("bytes = %d, want 100", got)
	}
	// An envelope larger than the whole budget evicts the rest but
	// itself survives (newest entry always retained).
	cch.Put(4, make([]byte, 150))
	if cch.mem.Len() != 1 {
		t.Fatalf("len = %d, want 1", cch.mem.Len())
	}
	if got := cch.mem.Bytes(); got != 150 {
		t.Fatalf("bytes = %d, want 150", got)
	}
	if _, _, ok := cch.Get(4); !ok {
		t.Fatal("oversized entry not retained")
	}
}

// TestCacheKeyNormalization: explicitly spelling the defaults must key
// identically to leaving them zero, and every result-affecting field
// must change the key.
func TestCacheKeyNormalization(t *testing.T) {
	base := SweepRequest{Kind: KindReliability}
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	baseKey, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}

	explicit := SweepRequest{
		Kind:     KindReliability,
		Scale:    1024,
		Batch:    5,
		Patterns: []string{"all1", "all0"},
	}
	if err := explicit.Normalize(); err != nil {
		t.Fatal(err)
	}
	k, err := explicit.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k != baseKey {
		t.Fatal("explicit defaults keyed differently from implicit ones")
	}

	// Explicitly empty slices normalize like absent ones — "[]" must not
	// become a sweep that tests nothing.
	empty := SweepRequest{Kind: KindReliability, Grid: []float64{}, Patterns: []string{}, Ports: []int{}}
	if err := empty.Normalize(); err != nil {
		t.Fatal(err)
	}
	ek, err := empty.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ek != baseKey {
		t.Fatal("empty slices keyed differently from defaults")
	}
	if len(empty.Grid) == 0 || len(empty.Patterns) == 0 || len(empty.Ports) == 0 {
		t.Fatalf("empty slices not defaulted: %+v", empty)
	}

	variants := []func(*SweepRequest){
		func(r *SweepRequest) { r.Seed = 7 },
		func(r *SweepRequest) { r.Scale = 512 },
		func(r *SweepRequest) { r.Exact = true },
		func(r *SweepRequest) { r.Grid = []float64{0.9} },
		func(r *SweepRequest) { r.Patterns = []string{"all1"} },
		func(r *SweepRequest) { r.Batch = 6 },
		func(r *SweepRequest) { r.Ports = []int{3} },
		func(r *SweepRequest) { r.Kind = KindPower; r.Patterns = nil; r.Ports = nil },
	}
	seen := map[uint64]int{baseKey: -1}
	for i, mutate := range variants {
		r := SweepRequest{Kind: KindReliability}
		mutate(&r)
		if err := r.Normalize(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		k, err := r.CacheKey()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}

	// Workers must NOT change the key.
	w := SweepRequest{Kind: KindReliability, Workers: 9}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	wk, err := w.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if wk != baseKey {
		t.Fatal("Workers hint changed the cache key")
	}
}

// TestAnalyticKinds runs the faultmap and ecc-study kinds end to end
// over HTTP: both are analytic studies of the full-capacity device, so
// the payloads decode into complete typed results and repeats are
// byte-identical cache hits.
func TestAnalyticKinds(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	for _, kind := range []string{KindFaultMap, KindECCStudy} {
		req := SweepRequest{Kind: kind, Grid: []float64{0.95, 0.90}}
		sub, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.Wait(ctx, sub.ID); err != nil || st != StateDone {
			t.Fatalf("%s: wait = %v, %v", kind, st, err)
		}
		payload, err := c.Result(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		env, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case KindFaultMap:
			if env.FaultMap == nil || len(env.FaultMap.Curves) != 2 ||
				len(env.FaultMap.Fig5) != 2 || len(env.FaultMap.Usable) == 0 {
				t.Fatalf("faultmap payload incomplete: %+v", env.FaultMap)
			}
			if len(env.FaultMap.Grid) != 2 {
				t.Fatalf("faultmap grid = %v", env.FaultMap.Grid)
			}
		case KindECCStudy:
			if env.ECC == nil || len(env.ECC.Points) != 2 {
				t.Fatalf("ecc payload incomplete: %+v", env.ECC)
			}
		}
		// The request echo is normalized: analytic kinds pin scale 1.
		if env.Request.Scale != 1 {
			t.Fatalf("%s: echoed scale = %d, want 1", kind, env.Request.Scale)
		}

		resub, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resub.Coalesced && !resub.CacheHit {
			t.Fatalf("%s: identical resubmission did not coalesce", kind)
		}
		payload2, err := c.Result(ctx, resub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatalf("%s: resubmission payload differs", kind)
		}
	}
}

// TestPowerNoiseKeyed verifies noisy power sweeps are deterministic
// (noise draws are PRF-keyed) and that noise is part of the cache key.
func TestPowerNoiseKeyed(t *testing.T) {
	noisy := SweepRequest{Kind: KindPower, Grid: []float64{1.20, 0.95}, Noise: 0.01, Samples: 2, PortCounts: []int{0, 32}}
	clean := noisy
	clean.Noise = 0

	key := func(r SweepRequest) uint64 {
		t.Helper()
		if err := r.Normalize(); err != nil {
			t.Fatal(err)
		}
		k, err := r.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(noisy) == key(clean) {
		t.Fatal("noise not folded into the cache key")
	}

	run := func() []byte {
		t.Helper()
		// Fresh manager per run so nothing is cache-served.
		m := openManager(t, Config{Workers: 1})
		j, _, _, err := m.SubmitOpts(noisy, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := j.Wait(context.Background()); err != nil || st != StateDone {
			t.Fatalf("wait = %v, %v (%s)", st, err, j.Err())
		}
		return j.Payload()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("noisy power sweep is not deterministic across runs")
	}
}

// TestSharedRequestKeyAndExecution pins the service surface of the
// shared field: it applies to reliability only, every reliability
// request normalizes to it, and a request that omits it coalesces onto
// the job of one that sends it, serving the same bytes.
func TestSharedRequestKeyAndExecution(t *testing.T) {
	for _, kind := range []string{KindPower, KindFaultMap, KindECCStudy} {
		r := SweepRequest{Kind: kind, Shared: true}
		if err := r.Normalize(); err == nil {
			t.Errorf("kind %s accepted shared", kind)
		}
	}

	base := SweepRequest{
		Kind:     KindReliability,
		Grid:     []float64{0.90, 0.89},
		Patterns: []string{"all1", "all0"},
		Ports:    []int{18},
		Batch:    2,
	}
	shared := base
	shared.Shared = true

	m := openManager(t, Config{Workers: 1})
	j, _, _, err := m.SubmitOpts(base, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(context.Background()); err != nil || st != StateDone {
		t.Fatalf("wait = %v, %v (%s)", st, err, j.Err())
	}
	env, err := DecodeResult(j.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if env.Reliability == nil || !env.Request.Shared {
		t.Fatalf("reliability envelope malformed: %+v", env.Request)
	}
	if len(env.Reliability.Points) != 2 {
		t.Fatalf("points = %d", len(env.Reliability.Points))
	}
	j2, _, cacheHit, err := m.SubmitOpts(shared, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cacheHit {
		t.Fatal("explicitly shared request missed the cache entry of the same sweep")
	}
	if st, err := j2.Wait(context.Background()); err != nil || st != StateDone {
		t.Fatalf("wait = %v, %v (%s)", st, err, j2.Err())
	}
	if !bytes.Equal(j.Payload(), j2.Payload()) {
		t.Fatal("requests with and without shared served different payloads")
	}
}

// TestSharedFieldNormalizesToGoldenKey: whatever a reliability body
// says about shared, it keys the cache entry the committed smoke
// campaign manifest records for that sweep.
func TestSharedFieldNormalizesToGoldenKey(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "testdata", "campaign", "paper-repro-smoke-shared", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Scenarios []struct {
			Name  string
			Cells []struct{ Key string }
		}
	}
	if err := json.Unmarshal(blob, &manifest); err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, sc := range manifest.Scenarios {
		if sc.Name == "algorithm1-exact" {
			want = sc.Cells[0].Key
		}
	}
	if want == "" {
		t.Fatal("golden manifest has no algorithm1-exact cell")
	}

	const cell = `"kind":"reliability","exact":true,"grid":[0.93,0.9,0.87],"patterns":["all1"],"batch":2,"ports":[5,18]`
	tests := []struct {
		name string
		body string
	}{
		{"shared omitted", `{` + cell + `}`},
		{"shared false", `{` + cell + `,"shared":false}`},
		{"shared true", `{` + cell + `,"shared":true}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var r SweepRequest
			if err := json.Unmarshal([]byte(tt.body), &r); err != nil {
				t.Fatal(err)
			}
			if err := r.Normalize(); err != nil {
				t.Fatal(err)
			}
			key, err := r.CacheKey()
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatKey(key); got != want {
				t.Errorf("key = %s, want the golden manifest's %s", got, want)
			}
		})
	}
}

// TestNormalizeRejectsBadPorts: a duplicated port, like an out-of-range
// one, is a 400-class *RequestError. A duplicate would otherwise be
// counted twice in the sweep and key a distinct cache entry for the
// same sweep.
func TestNormalizeRejectsBadPorts(t *testing.T) {
	tests := []struct {
		name    string
		ports   []int
		wantErr string
	}{
		{"duplicate", []int{3, 3}, "port 3 listed twice"},
		{"duplicate apart", []int{0, 18, 31, 18}, "port 18 listed twice"},
		{"negative", []int{-1}, "port -1 out of [0, 32)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := SweepRequest{Kind: KindReliability, Ports: tt.ports}
			err := r.Normalize()
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("err = %v (%T), want a *RequestError", err, err)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, tt.wantErr)
			}
		})
	}
}

// FuzzSweepRequest drives arbitrary POST /v1/sweeps bodies through the
// server's decode, Normalize and CacheKey. Every rejection must be a
// *RequestError (a 400, never a 500); Normalize must be idempotent; and
// the key must survive what a fleet forward does to a request — marshal
// the normalized request, decode it on the owner, normalize it again.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSweepRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := req.Normalize(); err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("Normalize error %v is a %T, want a *RequestError", err, err)
			}
			return
		}
		again := req
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("Normalize not idempotent: %+v -> %+v (err %v)", req, again, err)
		}
		key, err := req.CacheKey()
		if err != nil {
			t.Fatalf("CacheKey of normalized %+v: %v", req, err)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		fwd, err := decodeSweepRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("forwarded body %s does not decode: %v", wire, err)
		}
		if err := fwd.Normalize(); err != nil {
			t.Fatalf("forwarded body %s does not normalize: %v", wire, err)
		}
		if fk, err := fwd.CacheKey(); err != nil || fk != key {
			t.Fatalf("key %016x became %016x (err %v) across %s", key, fk, err, wire)
		}
	})
}
