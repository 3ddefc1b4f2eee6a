package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"hbmvolt/internal/telemetry/telemetrytest"
)

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth, workers int
		median         time.Duration
		want           int
	}{
		{0, 1, 0, 1},                      // nothing observed: protocol floor
		{4, 1, 2 * time.Second, 8},        // 4 jobs × 2s each, one worker
		{4, 4, 2 * time.Second, 2},        // same backlog, 4 workers
		{3, 2, 500 * time.Millisecond, 1}, // ceil(3/2)×0.5s → 1s floor
		{1000, 1, time.Minute, 300},       // capped at 5 min
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.workers, c.median); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v) = %d, want %d",
				c.depth, c.workers, c.median, got, c.want)
		}
	}
}

func TestRateLimiterBucket(t *testing.T) {
	l := newRateLimiter(1, 3, nil) // 1 token/s, burst 3
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retryAfter := l.Allow("alice")
	if ok {
		t.Fatal("4th immediate request admitted past burst")
	}
	if retryAfter < 1 {
		t.Fatalf("retryAfter = %d, want >= 1", retryAfter)
	}
	// Another client has its own bucket.
	if ok, _ := l.Allow("bob"); !ok {
		t.Fatal("independent client denied")
	}
	// Time refills alice.
	now = now.Add(2 * time.Second)
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("refilled bucket still denying")
	}
	if l.denied.Value() != 1 {
		t.Fatalf("denied = %d, want 1", l.denied.Value())
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	var l *rateLimiter // the manager stores one even when disabled; nil must also be safe
	if ok, _ := l.Allow("x"); !ok {
		t.Fatal("nil limiter denied")
	}
	l = newRateLimiter(0, 0, nil)
	for i := 0; i < 1000; i++ {
		if ok, _ := l.Allow("x"); !ok {
			t.Fatal("disabled limiter denied")
		}
	}
}

// TestServerRateLimit429 drives the HTTP surface: a client over its
// bucket gets 429 with a Retry-After header; a distinct client is
// unaffected; the rate-rejection series counts the rejections.
func TestServerRateLimit429(t *testing.T) {
	srv := openServer(t, Config{Workers: 1, RatePerSec: 0.001, RateBurst: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"kind":"faultmap","grid":[0.90]}`
	post := func(client string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", bytes.NewReader([]byte(body)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if got := post("alice").StatusCode; got >= 300 {
		t.Fatalf("first submission: HTTP %d", got)
	}
	if got := post("alice").StatusCode; got >= 300 {
		t.Fatalf("second submission: HTTP %d", got)
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission: HTTP %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if got := post("bob").StatusCode; got >= 300 {
		t.Fatalf("distinct client caught in alice's bucket: HTTP %d", got)
	}

	series := `hbmvolt_admission_rejected_total{reason="rate"}`
	if got := telemetrytest.Scrape(t, srv)[series]; got != 1 {
		t.Fatalf("%s = %v, want 1", series, got)
	}
}

// TestManagerDrain pins the graceful-drain contract: once Drain
// begins, new submissions are refused with ErrDraining while the
// in-flight job is still given time to finish, and Drain returns nil
// when it does.
func TestManagerDrain(t *testing.T) {
	m := openManager(t, Config{Workers: 1, QueueDepth: 4})
	runner := newBlockingRunner()
	m.runSweep = runner.run

	j, _, _, err := m.SubmitOpts(SweepRequest{
		Kind: KindReliability, Scale: 1024, Ports: []int{0},
		Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1,
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(t.Context()) }()
	for !m.Draining() {
		time.Sleep(time.Millisecond)
	}
	_, _, _, err = m.SubmitOpts(SweepRequest{
		Kind: KindReliability, Scale: 1024, Ports: []int{0},
		Patterns: []string{"all1"}, Grid: []float64{0.91}, Batch: 1,
	}, SubmitOptions{})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain = %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a job still running", err)
	default:
	}
	close(runner.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil (in-flight job finished)", err)
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("in-flight job ended %v, want done", st)
	}
}

// TestQueueFullRetryAfterDerived pins the satellite fix: the 503's
// Retry-After is computed from queue depth and observed latency, not
// hardcoded to "1".
func TestQueueFullRetryAfterDerived(t *testing.T) {
	srv := openServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	m := srv.Manager()
	// Seed the latency window with known 2 s jobs and block the single
	// worker so submissions pile into the 1-deep queue.
	for i := 0; i < 8; i++ {
		m.latency.Observe(2 * time.Second)
	}
	runner := newBlockingRunner()
	defer close(runner.release)
	m.runSweep = runner.run

	post := func(grid string) *http.Response {
		body := `{"kind":"reliability","scale":1024,"ports":[0],"patterns":["all1"],"grid":[` + grid + `],"batch":1}`
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	post("0.90") // occupies the worker
	<-runner.started
	post("0.91") // occupies the 1-deep queue
	resp := post("0.92")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full submission: HTTP %d, want 503", resp.StatusCode)
	}
	// 1 queued + the incoming job at 2 s median on one worker → 4 s, and
	// definitely not the legacy hardcoded "1".
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer", resp.Header.Get("Retry-After"))
	}
	if ra != 4 {
		t.Fatalf("Retry-After = %d, want 4 (2 jobs × 2s median / 1 worker)", ra)
	}
}
