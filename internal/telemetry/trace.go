package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"
)

// HeaderTraceID is the HTTP header that carries a trace ID across
// fleet hops: minted at the edge that first sees a submission, adopted
// by every node it reaches afterwards.
const HeaderTraceID = "X-Hbmvolt-Trace-Id"

// NewTraceID mints a fresh 128-bit random trace ID in hex.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID
		// still traces correctly, it is just not unique.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is acceptable as an adopted trace ID:
// non-empty, bounded, and limited to URL- and log-safe characters.
// Anything else is discarded and re-minted at the receiving edge.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// AdoptTrace returns the request's trace ID: a valid X-Hbmvolt-Trace-Id
// is adopted (one trace spans the whole fleet path), anything else is
// replaced by a freshly minted ID. The ID is echoed on the response so
// the client learns it either way.
func AdoptTrace(w http.ResponseWriter, r *http.Request) string {
	trace := r.Header.Get(HeaderTraceID)
	if !ValidTraceID(trace) {
		trace = NewTraceID()
	}
	w.Header().Set(HeaderTraceID, trace)
	return trace
}

type traceKey struct{}
type recorderKey struct{}

// WithTrace returns a context carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceOf returns the context's trace ID, or "".
func TraceOf(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// WithRecorder returns a context carrying the span recorder.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderOf returns the context's span recorder, or nil.
func RecorderOf(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}

// Record appends a span to the context's recorder under the context's
// trace ID. A context without a recorder makes this a no-op, so hot
// paths can call it unconditionally.
func Record(ctx context.Context, name string, attrs map[string]string) {
	rec := RecorderOf(ctx)
	if rec == nil {
		return
	}
	rec.Record(TraceOf(ctx), name, attrs)
}

// Span is one recorded event on a trace: where (node), what (name),
// and key=value detail. Spans are observability records only — they
// never influence sweep results.
type Span struct {
	Trace    string            `json:"trace"`
	Node     string            `json:"node,omitempty"`
	Name     string            `json:"name"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Time     time.Time         `json:"time"`
	Duration time.Duration     `json:"duration_ns,omitempty"`
}

// DefaultSpanCapacity bounds a recorder's ring buffer.
const DefaultSpanCapacity = 4096

// Recorder keeps a bounded ring of spans per node. The zero value is
// unusable; use NewRecorder. All methods are safe for concurrent use,
// and a nil *Recorder is a no-op sink.
type Recorder struct {
	node string
	cap  int

	mu    sync.Mutex
	spans []Span
	next  int
	full  bool
}

// NewRecorder returns a recorder labeled with the node's identity
// (fleet URL or "local"); capacity <= 0 uses DefaultSpanCapacity.
func NewRecorder(node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Recorder{node: node, cap: capacity}
}

// Node returns the identity the recorder stamps on its spans.
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// Record appends one span, evicting the oldest when full.
func (r *Recorder) Record(trace, name string, attrs map[string]string) {
	r.RecordSpan(Span{Trace: trace, Name: name, Attrs: attrs, Time: time.Now()})
}

// RecordSpan appends a fully formed span (the caller may pre-fill
// timing); the recorder stamps its node identity.
func (r *Recorder) RecordSpan(s Span) {
	if r == nil {
		return
	}
	s.Node = r.node
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) < r.cap && !r.full {
		r.spans = append(r.spans, s)
		if len(r.spans) == r.cap {
			r.full, r.next = true, 0
		}
		return
	}
	r.spans[r.next] = s
	r.next = (r.next + 1) % r.cap
}

// Spans returns all retained spans, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.spans...)
	}
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.next:]...)
	out = append(out, r.spans[:r.next]...)
	return out
}

// ForTrace returns retained spans carrying the given trace ID, oldest
// first.
func (r *Recorder) ForTrace(id string) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}
