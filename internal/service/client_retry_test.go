package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbmvolt/internal/chaos"
)

// flakyHandler rejects the first n requests with the given status (and
// optional Retry-After), then delegates to the real handler.
type flakyHandler struct {
	n          int32
	status     int
	retryAfter string
	inner      http.Handler
	rejected   atomic.Int32
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.rejected.Add(1) <= f.n {
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		http.Error(w, `{"error":"shedding load"}`, f.status)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func fastClient(url string) *Client {
	c := NewClient(url)
	c.RetryBase = time.Millisecond // keep test wall-clock negligible
	return c
}

func TestClientRetriesOn429And503(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv := openServer(t, Config{Workers: 1})
		fh := &flakyHandler{n: 2, status: status, inner: srv}
		ts := httptest.NewServer(fh)
		c := fastClient(ts.URL)

		sub, err := c.Submit(t.Context(), SweepRequest{
			Kind: KindReliability, Scale: 1024, Ports: []int{0},
			Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1,
		})
		if err != nil {
			t.Fatalf("status %d: Submit did not retry through: %v", status, err)
		}
		if st, err := c.Wait(t.Context(), sub.ID); err != nil || st != StateDone {
			t.Fatalf("status %d: Wait = %v, %v", status, st, err)
		}
		if got := fh.rejected.Load(); got < 3 {
			t.Fatalf("status %d: server saw %d requests, want >= 3 (2 rejections + success)", status, got)
		}
		ts.Close()
		srv.Close()
	}
}

func TestClientRetryHonorsRetryAfter(t *testing.T) {
	srv := openServer(t, Config{Workers: 1})
	fh := &flakyHandler{n: 1, status: http.StatusServiceUnavailable, retryAfter: "1", inner: srv}
	ts := httptest.NewServer(fh)
	defer ts.Close()
	c := fastClient(ts.URL)

	start := time.Now()
	if _, err := c.Health(t.Context()); err != nil {
		t.Fatal(err)
	}
	// Backoff base is 1ms, so any wait ≥ 1s came from honoring the header.
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retry waited only %v; Retry-After: 1 not honored", elapsed)
	}
}

func TestClientRetryExhaustionSurfacesAPIError(t *testing.T) {
	var requests atomic.Int32
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, `{"error":"permanently overloaded"}`, http.StatusServiceUnavailable)
	}))
	defer always.Close()
	c := fastClient(always.URL)
	c.Retries = 2

	_, err := c.Health(t.Context())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("APIError = %+v, want 503", apiErr)
	}
	if got := requests.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (initial + 2 retries)", got)
	}
}

func TestClientParsesRetryAfterHeader(t *testing.T) {
	hinting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
	}))
	defer hinting.Close()
	c := fastClient(hinting.URL)
	c.Retries = -1 // single attempt: inspect the decoded error, don't wait 7s

	_, err := c.Health(t.Context())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 7 {
		t.Fatalf("error = %v, want *APIError with RetryAfter 7", err)
	}
}

func TestClientNoRetryOnBadRequest(t *testing.T) {
	srv := openServer(t, Config{Workers: 1})
	var requests atomic.Int32
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		srv.ServeHTTP(w, r)
	}))
	defer counting.Close()
	c := fastClient(counting.URL)

	_, err := c.Submit(t.Context(), SweepRequest{Kind: "nonsense"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("error = %v, want 400 *APIError", err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("400 was retried %d times; permanent errors must not retry", got-1)
	}
}

// TestClientWaitFallsBackToPolling drops the NDJSON event stream
// mid-job via the service.events chaos site — exactly what a broken
// connection or restarted proxy looks like — and asserts Wait still
// reports the job's true terminal state by long-polling Status.
func TestClientWaitFallsBackToPolling(t *testing.T) {
	srv := openServer(t, Config{Workers: 1})
	m := srv.Manager()
	runner := newBlockingRunner()
	m.runSweep = runner.run
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := fastClient(ts.URL)

	plan := chaos.NewPlan().Set("service.events", chaos.Fault{
		Err: errors.New("injected stream drop"), Count: 1,
	})
	defer chaos.Activate(plan)()

	sub, err := c.Submit(t.Context(), SweepRequest{
		Kind: KindReliability, Scale: 1024, Ports: []int{0},
		Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started

	waitDone := make(chan struct{})
	var state JobState
	var waitErr error
	go func() {
		defer close(waitDone)
		state, waitErr = c.Wait(t.Context(), sub.ID)
	}()

	// Let Wait hit the injected drop and enter its long-poll while the
	// job is still running, then release the worker.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-waitDone:
		t.Fatal("Wait returned while the job was still running")
	default:
	}
	close(runner.release)

	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never recovered from the dropped stream")
	}
	if waitErr != nil || state != StateDone {
		t.Fatalf("Wait after stream drop = %v, %v; want done", state, waitErr)
	}
	if p := plan.Fired("service.events"); p != 1 {
		t.Fatalf("chaos site fired %d times, want 1", p)
	}
}

// TestClientWaitTimeoutBoundsPolling runs Wait against a server whose
// job never terminates — the stream ends with no terminal event and
// Status reports running forever, answering at once because it ignores
// ?wait= (so the early-answer guard paces the loop). The fallback must
// give up at WaitTimeout with the typed ErrWaitTimeout, while a
// caller-side cancellation still surfaces as the context's error.
func TestClientWaitTimeoutBoundsPolling(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweeps/j1/events", func(w http.ResponseWriter, r *http.Request) {
		// The stream ends cleanly with the job still mid-flight.
	})
	var statusCalls atomic.Int32
	mux.HandleFunc("GET /v1/sweeps/j1", func(w http.ResponseWriter, r *http.Request) {
		statusCalls.Add(1)
		WriteJSON(w, http.StatusOK, JobStatus{ID: "j1", State: StateRunning})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.WaitTimeout = 150 * time.Millisecond
	start := time.Now()
	_, err := c.Wait(t.Context(), "j1")
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Wait on a never-terminal job = %v, want ErrWaitTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("Wait gave up after %v, want about the 150ms bound", elapsed)
	}
	// Each early answer is followed by sleeping out the rest of the
	// wait, which outlasts the bound: one call, no spin.
	if n := statusCalls.Load(); n != 1 {
		t.Fatalf("Wait made %d status calls against a server ignoring wait, want 1", n)
	}

	c2 := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	if _, err := c2.Wait(ctx, "j1"); errors.Is(err, ErrWaitTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller-cancelled Wait = %v, want the context error, not ErrWaitTimeout", err)
	}
}

func TestClientWaitTimeoutDefaults(t *testing.T) {
	c := &Client{}
	if got := c.waitTimeout(); got != 15*time.Minute {
		t.Fatalf("default wait bound = %v, want 15m", got)
	}
	c.WaitTimeout = -1
	if got := c.waitTimeout(); got != 0 {
		t.Fatalf("negative WaitTimeout = %v, want 0 (unbounded)", got)
	}
	c.WaitTimeout = time.Second
	if got := c.waitTimeout(); got != time.Second {
		t.Fatalf("explicit WaitTimeout = %v, want it verbatim", got)
	}
}

// TestClientWaitStreamStillPreferred pins that the happy path is
// untouched: with no fault armed, Wait consumes the terminal event from
// the stream and never calls GET /v1/sweeps/{id}.
func TestClientWaitStreamStillPreferred(t *testing.T) {
	srv := openServer(t, Config{Workers: 1})
	var statusCalls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Count(r.URL.Path, "/") == 3 && strings.HasPrefix(r.URL.Path, "/v1/sweeps/") {
			statusCalls.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := fastClient(ts.URL)

	sub, err := c.Submit(t.Context(), SweepRequest{
		Kind: KindReliability, Scale: 1024, Ports: []int{0},
		Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	if st, err := c.Wait(ctx, sub.ID); err != nil || st != StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if n := statusCalls.Load(); n != 0 {
		t.Fatalf("Wait made %d status calls with the stream intact, want 0", n)
	}
}
