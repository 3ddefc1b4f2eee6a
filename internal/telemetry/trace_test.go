package telemetry

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatal("two minted trace IDs collided")
	}
	if len(a) != 32 || !ValidTraceID(a) {
		t.Fatalf("minted ID %q not valid", a)
	}
	for id, want := range map[string]bool{
		"abc123":                 true,
		"A-Z_09":                 true,
		"":                       false,
		"has space":              false,
		"quote\"":                false,
		"line\nbreak":            false,
		string(make([]byte, 65)): false,
	} {
		if got := ValidTraceID(id); got != want {
			t.Errorf("ValidTraceID(%q) = %v, want %v", id, got, want)
		}
	}
}

// FuzzAdoptTrace drives the trace-header adoption every submission
// passes through: whatever the client sends, the returned ID is valid
// and echoed on the response, and the header is adopted verbatim
// exactly when it is itself a valid ID.
func FuzzAdoptTrace(f *testing.F) {
	for _, seed := range []string{
		"",
		"0123456789abcdef0123456789abcdef",
		"has space",
		"abc\r\nX-Injected: 1",
		strings.Repeat("a", 65),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweeps", nil)
		r.Header.Set(HeaderTraceID, in)
		w := httptest.NewRecorder()
		got := AdoptTrace(w, r)
		if !ValidTraceID(got) {
			t.Fatalf("AdoptTrace(%q) = %q, not a valid trace ID", in, got)
		}
		if echo := w.Header().Get(HeaderTraceID); echo != got {
			t.Fatalf("echoed %q, returned %q", echo, got)
		}
		if adopted := got == in; adopted != ValidTraceID(in) {
			t.Fatalf("AdoptTrace(%q) = %q: adopted %v, valid %v", in, got, adopted, ValidTraceID(in))
		}
	})
}

func TestContextPlumbing(t *testing.T) {
	rec := NewRecorder("http://n1:1", 8)
	ctx := WithRecorder(WithTrace(context.Background(), "t-1"), rec)
	if TraceOf(ctx) != "t-1" || RecorderOf(ctx) != rec {
		t.Fatal("context round-trip lost trace or recorder")
	}
	Record(ctx, "cache.lookup", map[string]string{"tier": "memory", "outcome": "hit"})
	Record(context.Background(), "dropped", nil) // no recorder: must not panic

	spans := rec.ForTrace("t-1")
	if len(spans) != 1 || spans[0].Name != "cache.lookup" || spans[0].Node != "http://n1:1" {
		t.Fatalf("spans = %+v, want one cache.lookup from n1", spans)
	}
	if spans[0].Attrs["outcome"] != "hit" {
		t.Fatalf("attrs = %v", spans[0].Attrs)
	}
}

// TestRecorderRing pins the bounded-buffer behavior: capacity evicts
// oldest first, order is preserved, nil recorder is a no-op.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder("n", 3)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		rec.Record("t", name, nil)
	}
	spans := rec.Spans()
	if len(spans) != 3 || spans[0].Name != "c" || spans[2].Name != "e" {
		t.Fatalf("ring = %+v, want [c d e]", spans)
	}
	var nilRec *Recorder
	nilRec.Record("t", "x", nil) // must not panic
	if nilRec.Spans() != nil || nilRec.Node() != "" {
		t.Fatal("nil recorder must read as empty")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder("n", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Record("t", "spin", nil)
				rec.Spans()
			}
		}()
	}
	wg.Wait()
	if got := len(rec.Spans()); got != 64 {
		t.Fatalf("retained %d spans, want capacity 64", got)
	}
}
