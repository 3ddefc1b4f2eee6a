package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientJitterInjectable pins the retry backoff's test seam: an
// injected Jitter source is consulted once per retry with the backoff
// base as its bound, replacing the global math/rand draw — so chaos
// and timing tests can make retry schedules exactly reproducible.
func TestClientJitterInjectable(t *testing.T) {
	srv := openServer(t, Config{Workers: 1})
	fh := &flakyHandler{n: 2, status: http.StatusServiceUnavailable, inner: srv}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	c := fastClient(ts.URL)
	var mu sync.Mutex
	var draws []time.Duration
	c.Jitter = func(max time.Duration) time.Duration {
		mu.Lock()
		draws = append(draws, max)
		mu.Unlock()
		return 0
	}
	if _, err := c.Health(t.Context()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(draws) != 2 {
		t.Fatalf("injected jitter drawn %d times, want 2 (one per retry)", len(draws))
	}
	for i, max := range draws {
		if max != c.retryBase() {
			t.Fatalf("draw %d bounded by %v, want the retry base %v", i, max, c.retryBase())
		}
	}
}

// TestClientResultChecksumMismatch pins the transfer-integrity check:
// a /result body that does not hash to the server's checksum header —
// a truncated or corrupted transfer the fleet must never cache — is an
// error, not bytes.
func TestClientResultChecksumMismatch(t *testing.T) {
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderPayloadSHA, strings.Repeat("0", 64))
		w.Write([]byte(`{"not":"what the checksum promises"}`))
	}))
	defer lying.Close()

	_, err := fastClient(lying.URL).Result(t.Context(), "job-000001")
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Result = %v, want checksum mismatch error", err)
	}
}

// TestWaitErrJobLostAndResubmitRecovery restarts the daemon mid-wait:
// the job table is in-memory, so the old id 404s and Wait must surface
// the typed ErrJobLost — and resubmitting the request must recover the
// identical payload from the durable cache tier without recomputing.
func TestWaitErrJobLostAndResubmitRecovery(t *testing.T) {
	dir := t.TempDir()
	var current atomic.Pointer[Server]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	srv1, err := Open(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	current.Store(srv1)
	c := fastClient(ts.URL)

	req := SweepRequest{
		Kind: KindReliability, Scale: 1024, Ports: []int{0},
		Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1,
	}
	sub, err := c.Submit(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(t.Context(), sub.ID); err != nil || st != StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	payload, err := c.Result(t.Context(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh process over the same cache directory. The job
	// table died with the old one; the result bytes did not.
	srv1.Close()
	srv2, err := Open(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	current.Store(srv2)

	if _, err := c.Wait(t.Context(), sub.ID); !errors.Is(err, ErrJobLost) {
		t.Fatalf("Wait after restart = %v, want ErrJobLost", err)
	}

	// Resubmit-by-key recovery: same request, same key, identical bytes
	// out of the disk tier — and no sweep recomputed.
	sub2, err := c.Submit(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Key != sub.Key {
		t.Fatalf("resubmitted key %s != original %s; determinism contract broken", sub2.Key, sub.Key)
	}
	if st, err := c.Wait(t.Context(), sub2.ID); err != nil || st != StateDone {
		t.Fatalf("Wait on resubmission = %v, %v", st, err)
	}
	payload2, err := c.Result(t.Context(), sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("recovered payload differs from the original")
	}
	if runs := srv2.Manager().Runs(); runs != 0 {
		t.Fatalf("recovery recomputed %d sweeps, want 0 (durable cache serve)", runs)
	}
}

// TestManagerClientKeyTrustProxy pins admission identity resolution:
// X-Client-ID always wins; X-Forwarded-For is honored only when the
// deployment opted in with TrustProxy (the header is client-spoofable
// otherwise); the remote host is the fallback.
func TestManagerClientKeyTrustProxy(t *testing.T) {
	trusted := openManager(t, Config{Workers: 1, TrustProxy: true})
	direct := openManager(t, Config{Workers: 1})

	mkReq := func(clientID, xff string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweeps", nil)
		r.RemoteAddr = "10.0.0.9:41234"
		if clientID != "" {
			r.Header.Set("X-Client-ID", clientID)
		}
		if xff != "" {
			r.Header.Set("X-Forwarded-For", xff)
		}
		return r
	}
	cases := []struct {
		name                    string
		clientID, xff           string
		wantTrusted, wantDirect string
	}{
		{"remote-host-fallback", "", "", "10.0.0.9", "10.0.0.9"},
		{"client-id-wins-everywhere", "tool-7", "203.0.113.7", "tool-7", "tool-7"},
		{"xff-honored-only-with-trust", "", "203.0.113.7, 198.51.100.2", "203.0.113.7", "10.0.0.9"},
		{"garbage-xff-falls-back", "", " , ", "10.0.0.9", "10.0.0.9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mkReq(tc.clientID, tc.xff)
			if got := trusted.ClientKey(r); got != tc.wantTrusted {
				t.Errorf("trusted ClientKey = %q, want %q", got, tc.wantTrusted)
			}
			if got := direct.ClientKey(r); got != tc.wantDirect {
				t.Errorf("direct ClientKey = %q, want %q", got, tc.wantDirect)
			}
		})
	}
}
