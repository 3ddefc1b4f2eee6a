package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hbmvolt/internal/chaos"
	"hbmvolt/internal/report"
	"hbmvolt/internal/telemetry"
)

// Server is the HTTP face of a Manager. It implements http.Handler; use
// Open to build one and Close to shut the worker pool down.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// Open builds a server and its manager from cfg (see OpenManager).
func Open(cfg Config) (*Server, error) {
	mgr, err := OpenManager(cfg)
	if err != nil {
		return nil, err
	}
	return newServer(mgr), nil
}

func newServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", mgr.Metrics().Handler())
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	return s
}

// Manager exposes the underlying job manager (tests, embedding).
func (s *Server) Manager() *Manager { return s.mgr }

// Close stops the manager: running sweeps are cancelled and the worker
// pool drained.
func (s *Server) Close() { s.mgr.Close() }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as a deterministic JSON response body — the
// serialization every route of this service (and the campaign API on
// top of it) shares.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := report.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// WriteError writes the service's standard {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds POST bodies; a maximal legitimate request (512
// grid points, every port listed) is a few KB.
const maxRequestBody = 1 << 20

// Fleet-mode HTTP headers. Markers ride in headers, never in payloads:
// response bodies stay byte-identical whether a job was served by its
// owner, degraded to local compute, or never touched a fleet at all.
const (
	// HeaderServedBy names the node whose compute produced a job's
	// payload (submit/status/result responses in fleet mode).
	HeaderServedBy = "X-Hbmvolt-Served-By"
	// HeaderDegraded is "true" when the job's owner was a remote peer
	// the fleet could not reach and the payload was computed locally.
	HeaderDegraded = "X-Hbmvolt-Degraded"
	// HeaderNoForward marks a submission that already crossed the fleet
	// once; the receiving node executes it locally, never re-forwards.
	HeaderNoForward = "X-Hbmvolt-No-Forward"
	// HeaderPayloadSHA carries the hex SHA-256 of a /result body, so
	// fetchers detect truncated or corrupted transfers instead of
	// caching wrong bytes.
	HeaderPayloadSHA = "X-Hbmvolt-Payload-Sha256"
)

// serveHeaders stamps the fleet serving record and trace ID onto a
// job-scoped response (serving record no-ops outside fleet mode).
func serveHeaders(w http.ResponseWriter, j *Job) {
	if t := j.Trace(); t != "" {
		w.Header().Set(telemetry.HeaderTraceID, t)
	}
	info := j.ServeInfo()
	if info.ServedBy == "" {
		return
	}
	w.Header().Set(HeaderServedBy, info.ServedBy)
	if info.Degraded {
		w.Header().Set(HeaderDegraded, "true")
	}
}

// SubmitResponse is the POST /v1/sweeps body.
type SubmitResponse struct {
	ID    string   `json:"id"`
	Key   string   `json:"key"`
	State JobState `json:"state"`
	// Coalesced marks a submission answered by an already live or
	// completed identical job; CacheHit marks one answered from the
	// result LRU. Either way no new computation was scheduled.
	Coalesced bool `json:"coalesced,omitempty"`
	CacheHit  bool `json:"cache_hit,omitempty"`
}

// ClientKey identifies the client a request's admission tokens are
// charged to, honoring Config.TrustProxy: X-Client-ID wins when
// present; with TrustProxy set, the leftmost X-Forwarded-For entry —
// the originating client as recorded by the proxy — comes next, so
// distinct clients behind one proxy stop sharing a single bucket; the
// remote host is the fallback. Without TrustProxy the (spoofable)
// X-Forwarded-For header is ignored entirely.
func (m *Manager) ClientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if m.cfg.TrustProxy {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first, _, _ := strings.Cut(xff, ",")
			if host := strings.TrimSpace(first); host != "" {
				return host
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Admit spends one of the request's client admission tokens (the
// per-client token bucket, keyed by ClientKey), answering 429 with a
// Retry-After itself when the client is over rate. It reports whether
// the request may proceed. The sweep and campaign APIs both gate their
// submissions here, so a client draws from one bucket for both.
func (m *Manager) Admit(w http.ResponseWriter, r *http.Request) bool {
	client := m.ClientKey(r)
	ok, retryAfter := m.limiter.Allow(client)
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		WriteError(w, http.StatusTooManyRequests, "client %s over submission rate", client)
	}
	return ok
}

// decodeSweepRequest decodes a POST /v1/sweeps body. Unknown fields are
// an error: a misspelled field must not silently select a default.
func decodeSweepRequest(body io.Reader) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.mgr.Admit(w, r) {
		return
	}
	req, err := decodeSweepRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	// A request that already crossed the fleet once executes here, no
	// matter who the local router believes owns it: two nodes with
	// disagreeing peer lists must degrade to an extra local compute,
	// never bounce a request between each other.
	//
	// Every submission gets a trace, minted or adopted at this edge.
	opts := SubmitOptions{
		NoForward: r.Header.Get(HeaderNoForward) != "",
		TraceID:   telemetry.AdoptTrace(w, r),
	}
	j, coalesced, cacheHit, err := s.mgr.SubmitOpts(req, opts)
	if err != nil {
		var reqErr *RequestError
		switch {
		case errors.As(err, &reqErr):
			WriteError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			// The hint is honest, not hardcoded: expected backlog drain
			// time from observed job latency.
			w.Header().Set("Retry-After", strconv.Itoa(s.mgr.RetryAfterSeconds()))
			WriteError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			WriteError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	status := http.StatusAccepted
	if coalesced || cacheHit {
		status = http.StatusOK
	}
	serveHeaders(w, j)
	WriteJSON(w, status, SubmitResponse{
		ID:        j.ID,
		Key:       formatKey(j.Key),
		State:     j.State(),
		Coalesced: coalesced,
		CacheHit:  cacheHit,
	})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.Job(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no sweep %q", id)
		return nil, false
	}
	return j, true
}

// statusBody is the GET /v1/sweeps/{id} response: the status, plus the
// raw result payload once done.
type statusBody struct {
	JobStatus
	Result json.RawMessage `json:"result,omitempty"`
}

// maxStatusWait caps the ?wait= long-poll of GET /v1/sweeps/{id}, so
// no status handler is held without bound.
const maxStatusWait = time.Minute

// parseWait reads a status request's ?wait= long-poll bound: a Go
// duration in [0, maxStatusWait], 0 when absent.
func parseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, err
	}
	if d < 0 || d > maxStatusWait {
		return 0, fmt.Errorf("wait %v outside [0, %v]", d, maxStatusWait)
	}
	return d, nil
}

// handleStatus answers a job's status. With ?wait= it long-polls: the
// answer is held until the job is terminal, the wait passes, or the
// client goes away, whichever comes first.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "malformed wait: %v", err)
		return
	}
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		j.Wait(ctx)
		cancel()
	}
	serveHeaders(w, j)
	WriteJSON(w, http.StatusOK, statusBody{JobStatus: j.Snapshot(), Result: j.Payload()})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Snapshot()
	if st.State != StateDone {
		WriteError(w, http.StatusConflict, "sweep %s is %s, not done", j.ID, st.State)
		return
	}
	// The payload is served verbatim: identical requests get
	// byte-identical bodies, first run or cache hit alike. The explicit
	// Content-Length and SHA-256 header let fetchers — the fleet's
	// peer-forwarding client above all — distinguish a complete transfer
	// from one severed mid-body, so truncated bytes are never cached.
	payload := j.Payload()
	sum := sha256.Sum256(payload)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.Header().Set(HeaderPayloadSHA, hex.EncodeToString(sum[:]))
	serveHeaders(w, j)
	w.Write(payload)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before possibly blocking on the first
		// event, so subscribers to queued jobs see the stream open.
		flusher.Flush()
	}
	nd := report.NewNDJSON(w)
	i := 0
	for {
		evs, state, changed := j.eventsSince(i)
		for _, e := range evs {
			nd.Record(e)
		}
		if nd.Flush() != nil {
			return // client went away mid-write
		}
		if chaos.Inject("service.events") != nil {
			// Fault injection: drop the stream mid-job without a terminal
			// event, the way a broken connection looks to the client.
			return
		}
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		i += len(evs)
		if state.terminal() {
			// The terminal transition appends its event atomically, so a
			// terminal state with all events drained means the stream is
			// complete.
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.mgr.Cancel(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "no sweep %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, j.Snapshot())
}

// Health is the GET /healthz body: liveness only. Every counter the
// node keeps is a /metrics series.
type Health struct {
	Status string `json:"status"`
	// Draining is true once graceful shutdown has begun.
	Draining bool `json:"draining,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Health{Status: "ok", Draining: s.mgr.Draining()})
}

// traceBody is the GET /v1/traces/{id} response: every span this node
// retains for the trace, oldest first.
type traceBody struct {
	Trace string           `json:"trace"`
	Spans []telemetry.Span `json:"spans"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidTraceID(id) {
		WriteError(w, http.StatusBadRequest, "malformed trace id %q", id)
		return
	}
	spans := s.mgr.Recorder().ForTrace(id)
	if spans == nil {
		spans = []telemetry.Span{}
	}
	WriteJSON(w, http.StatusOK, traceBody{Trace: id, Spans: spans})
}
