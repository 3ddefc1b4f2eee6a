package telemetry

import (
	"context"
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
