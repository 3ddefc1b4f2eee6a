package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hbmvolt/internal/telemetry"
)

// Client is a typed consumer of the sweep service API. The zero value
// is not usable; construct with NewClient.
//
// Every idempotent call (which is all of them — Submit is idempotent by
// the service's determinism contract: resubmitting a request coalesces
// or cache-hits, it never recomputes different bytes) retries
// transparently on 429/503, honoring the server's Retry-After hint with
// exponential backoff and jitter between attempts. Stream does not
// retry (it holds one connection open); Wait recovers from a dropped
// stream by falling back to long-polling Status instead.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8023".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Streaming calls hold a
	// connection open for the sweep's lifetime, so the client must not
	// impose an overall request timeout.
	HTTPClient *http.Client
	// Retries is the number of additional attempts after a 429/503
	// (0 → 4; negative disables retrying).
	Retries int
	// RetryBase is the first backoff step (0 → 200ms); step i waits
	// max(Retry-After, RetryBase×2^i) plus up to RetryBase of jitter.
	RetryBase time.Duration
	// WaitTimeout bounds Wait's status long-poll fallback end to end
	// (0 → 15m; negative → unbounded, the pre-bound behavior). A job
	// stuck non-terminal past the deadline surfaces ErrWaitTimeout
	// instead of polling forever — the job keeps running server-side and
	// its id stays valid for a later Status or Wait.
	WaitTimeout time.Duration
	// Jitter draws the random extra backoff added to each retry step,
	// returning a duration in [0, max). Nil uses math/rand/v2 — the
	// production default that desynchronizes a fan-out of clients
	// hitting one 503. Tests (and chaos plans asserting exact retry
	// timing) inject a deterministic source instead.
	Jitter func(max time.Duration) time.Duration
	// Header is added to every request this client sends — e.g. a
	// stable X-Client-ID so admission buckets follow the client across
	// addresses, or the fleet's forwarded-once marker.
	Header http.Header
}

// NewClient builds a client for a server root URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTPClient: http.DefaultClient}
}

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint in seconds (0 when the
	// response carried none).
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.StatusCode, e.Message)
}

// retryable reports whether the error is the server shedding load —
// worth retrying later, as opposed to a request that can never succeed.
func (e *APIError) retryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

func (c *Client) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 4
	}
	return c.Retries
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase <= 0 {
		return 200 * time.Millisecond
	}
	return c.RetryBase
}

func (c *Client) jitter(max time.Duration) time.Duration {
	if c.Jitter != nil {
		return c.Jitter(max)
	}
	return time.Duration(rand.Int64N(int64(max)))
}

// doOnce performs a single request attempt. body may be nil.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range c.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	// A trace riding the context propagates to the server — this is how
	// one trace ID spans a fleet forward: the forwarding node's run
	// context carries the submission's trace, so the owner adopts it
	// instead of minting its own.
	if id := telemetry.TraceOf(ctx); id != "" && req.Header.Get(telemetry.HeaderTraceID) == "" {
		req.Header.Set(telemetry.HeaderTraceID, id)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			apiErr.RetryAfter = ra
		}
		return nil, apiErr
	}
	return resp, nil
}

// do performs a request with retry: 429/503 responses are retried with
// exponential backoff and jitter, waiting at least the server's
// Retry-After. Everything the client exposes except Stream goes through
// here.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.doOnce(ctx, method, path, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		apiErr, ok := err.(*APIError)
		if !ok || !apiErr.retryable() || attempt >= c.retries() {
			return nil, lastErr
		}
		base := c.retryBase()
		wait := base << attempt
		if ra := time.Duration(apiErr.RetryAfter) * time.Second; ra > wait {
			wait = ra
		}
		// Full jitter on one base step, so synchronized clients (a
		// campaign fan-out hitting one 503) desynchronize.
		wait += c.jitter(base)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a sweep request and returns the job handle. Submission
// is idempotent (identical requests coalesce server-side), so it
// retries on 429/503 like every other call.
func (c *Client) Submit(ctx context.Context, req SweepRequest) (SubmitResponse, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	var out SubmitResponse
	err = c.doJSON(ctx, http.MethodPost, "/v1/sweeps", blob, &out)
	return out, err
}

// Status fetches a job's status (result payload not included). A
// positive wait long-polls: the server holds the answer until the job
// is terminal or wait passes (capped at the server's one-minute bound).
// Zero answers now.
func (c *Client) Status(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	path := "/v1/sweeps/" + id
	if wait > 0 {
		path += "?wait=" + min(wait, maxStatusWait).String()
	}
	var out JobStatus
	err := c.doJSON(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// AwaitStatus long-polls a job's status until it is terminal and
// returns it. Each round trip is Status(wait) under its own
// callTimeout deadline (0: none beyond ctx). A non-terminal answer
// that comes back before wait has passed — a server that ignores wait
// — is followed by sleeping out the rest of wait, so the loop never
// spins. wait must be positive.
func (c *Client) AwaitStatus(ctx context.Context, id string, wait, callTimeout time.Duration) (JobStatus, error) {
	for {
		start := time.Now()
		cctx, cancel := ctx, context.CancelFunc(func() {})
		if callTimeout > 0 {
			cctx, cancel = context.WithTimeout(ctx, callTimeout)
		}
		st, err := c.Status(cctx, id, wait)
		cancel()
		if err != nil || st.State.terminal() {
			return st, err
		}
		if rest := wait - time.Since(start); rest > 0 {
			timer := time.NewTimer(rest)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return st, ctx.Err()
			}
		}
	}
}

// Result fetches a completed job's raw payload bytes — the byte-stable
// body the cache contract promises. It fails with an *APIError (409)
// while the job is not done. When the server sent its payload checksum
// header the fetched bytes are verified against it, so a transfer
// severed or corrupted mid-body surfaces as an error instead of wrong
// bytes — the guarantee the fleet's peer-forwarding path relies on
// before caching a remote payload.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("service: reading result %s: %w", id, err)
	}
	if want := resp.Header.Get(HeaderPayloadSHA); want != "" {
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != want {
			return nil, fmt.Errorf("service: result %s payload checksum mismatch: got %s want %s (truncated or corrupted transfer)", id, got, want)
		}
	}
	return payload, nil
}

// Stream follows a job's NDJSON event stream, invoking fn per event
// until the stream ends (terminal event), fn returns an error, or ctx
// is cancelled. It returns nil on a completed stream. It does not
// retry: a stream that dies mid-job surfaces its transport error (Wait
// layers reconnection by long-polling Status on top).
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	resp, err := c.doOnce(ctx, http.MethodGet, "/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// Events are one short JSON line each: start from the scanner's own
	// 4 KB buffer, which grows up to the 1 MB line bound only when needed.
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("service: decoding event %q: %w", line, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ErrJobLost reports that the server no longer knows the job id — the
// daemon restarted (its job table is in-memory) or evicted the record.
// The sweep itself is not lost: by the determinism contract,
// resubmitting the same request recovers the identical payload, served
// from the durable cache tier when one is configured and recomputed
// otherwise. Wait surfaces this typed error instead of a bare 404 so
// callers can branch to resubmit-by-key recovery.
var ErrJobLost = errors.New("service: job lost (server no longer knows the id)")

// ErrWaitTimeout reports that Wait's status long-poll fallback ran out
// its WaitTimeout with the job still non-terminal. Unlike ErrJobLost
// the job id is still valid: the caller may keep waiting with a fresh
// Wait/Status call, or Cancel the job. Distinct from a caller-side
// context cancellation, which Wait surfaces as ctx.Err().
var ErrWaitTimeout = errors.New("service: wait deadline exceeded with job still running")

// Wait blocks until the job reaches a terminal state and returns it.
// It prefers the NDJSON event stream (cheap, push-based); if the stream
// disconnects mid-job — server restart, dropped connection, proxy
// timeout — it falls back to long-polling Status (AwaitStatus) instead
// of surfacing the scanner error, so callers see the job's real outcome
// whenever one exists. If the status call answers 404 — the daemon
// restarted and the job id vanished with its job table — Wait returns
// ErrJobLost immediately rather than polling a dead id, and the caller
// recovers by resubmitting the request (identical bytes, by the
// determinism contract). The fallback is bounded by WaitTimeout
// (default 15m): a job that never goes terminal surfaces ErrWaitTimeout
// rather than pinning the caller forever.
func (c *Client) Wait(ctx context.Context, id string) (JobState, error) {
	last := JobState("")
	// The stream error is deliberately ignored: whether it died with a
	// transport error or the server closed it cleanly mid-job, the only
	// trustworthy source for the outcome is now Status.
	_ = c.Stream(ctx, id, func(e Event) error {
		if JobState(e.Type).terminal() {
			last = JobState(e.Type)
		}
		return nil
	})
	if last != "" {
		return last, nil
	}
	if ctx.Err() != nil {
		return "", ctx.Err()
	}
	wctx := ctx
	if wt := c.waitTimeout(); wt > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, wt)
		defer cancel()
	}
	st, err := c.AwaitStatus(wctx, id, maxStatusWait, 0)
	switch {
	case err == nil:
		return st.State, nil
	case ctx.Err() != nil:
		return "", ctx.Err()
	case wctx.Err() != nil:
		return "", fmt.Errorf("waiting for %s: %w", id, ErrWaitTimeout)
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
		return "", fmt.Errorf("waiting for %s: %w", id, ErrJobLost)
	}
	return "", fmt.Errorf("service: waiting for %s after stream loss: %w", id, err)
}

// waitTimeout resolves the Wait fallback bound: the configured value,
// 15 minutes by default, unbounded when negative.
func (c *Client) waitTimeout() time.Duration {
	if c.WaitTimeout < 0 {
		return 0
	}
	if c.WaitTimeout == 0 {
		return 15 * time.Minute
	}
	return c.WaitTimeout
}

// Cancel requests cancellation and returns the job's status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.doJSON(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, &out)
	return out, err
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}
