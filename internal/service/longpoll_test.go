package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// startBlockedJob submits a sweep to a server whose runner blocks until
// release, and returns once the job is running.
func startBlockedJob(t *testing.T, c *Client, runner *blockingRunner) string {
	t.Helper()
	sub, err := c.Submit(t.Context(), smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started
	return sub.ID
}

// TestStatusLongPollAnswersOnDone holds a Status(wait=10s) on a running
// job: it must not answer while the job runs, and must answer done
// promptly once the job is released.
func TestStatusLongPollAnswersOnDone(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	runner := newBlockingRunner()
	srv.Manager().runSweep = runner.run
	id := startBlockedJob(t, c, runner)

	type answer struct {
		st  JobStatus
		err error
	}
	got := make(chan answer, 1)
	go func() {
		st, err := c.Status(t.Context(), id, 10*time.Second)
		got <- answer{st, err}
	}()
	select {
	case a := <-got:
		t.Fatalf("long-poll answered %+v, %v while the job was running", a.st, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	released := time.Now()
	close(runner.release)
	select {
	case a := <-got:
		if a.err != nil || a.st.State != StateDone {
			t.Fatalf("long-poll = %+v, %v; want done", a.st, a.err)
		}
		if d := time.Since(released); d > 5*time.Second {
			t.Fatalf("long-poll answered %v after release, want promptly", d)
		}
	case <-time.After(9 * time.Second):
		t.Fatal("long-poll still held after the job finished")
	}
}

// TestStatusLongPollWaitPasses answers the non-terminal state once a
// short wait passes.
func TestStatusLongPollWaitPasses(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	runner := newBlockingRunner()
	srv.Manager().runSweep = runner.run
	id := startBlockedJob(t, c, runner)
	defer close(runner.release)

	const wait = 50 * time.Millisecond
	start := time.Now()
	st, err := c.Status(t.Context(), id, wait)
	if err != nil || st.State != StateRunning {
		t.Fatalf("Status(wait=%v) = %+v, %v; want running", wait, st, err)
	}
	if d := time.Since(start); d < wait {
		t.Fatalf("Status(wait=%v) answered after %v, before the wait passed", wait, d)
	}
}

// TestStatusLongPollTerminalAnswersAtOnce: a job already terminal is
// not held at all.
func TestStatusLongPollTerminalAnswersAtOnce(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	sub, err := c.Submit(t.Context(), smallReliability())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(t.Context(), sub.ID); err != nil || st != StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	start := time.Now()
	st, err := c.Status(t.Context(), sub.ID, 10*time.Second)
	if err != nil || st.State != StateDone {
		t.Fatalf("Status(wait=10s) on a done job = %+v, %v", st, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Status(wait=10s) on a done job took %v, want at once", d)
	}
}

// TestStatusLongPollClientGoneFreesHandler cancels a long-poll client
// side: the handler must return without waiting out its 10s.
func TestStatusLongPollClientGoneFreesHandler(t *testing.T) {
	srv := openServer(t, Config{Workers: 1})
	runner := newBlockingRunner()
	srv.Manager().runSweep = runner.run
	defer close(runner.release)
	entered, returned := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !r.URL.Query().Has("wait") {
			srv.ServeHTTP(w, r)
			return
		}
		close(entered)
		srv.ServeHTTP(w, r)
		close(returned)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	id := startBlockedJob(t, c, runner)

	ctx, cancel := context.WithCancel(t.Context())
	go c.Status(ctx, id, 10*time.Second)
	<-entered
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("status handler still held after its client went away")
	}
}

// TestStatusWaitRejected: a malformed, negative or over-cap wait is a
// 400 naming the problem, never a silently clamped long-poll.
func TestStatusWaitRejected(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	sub, err := c.Submit(t.Context(), smallReliability())
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name    string
		wait    string
		wantErr string
	}{
		{"malformed", "bogus", `malformed wait: time: invalid duration "bogus"`},
		{"negative", "-1s", "malformed wait: wait -1s outside [0, 1m0s]"},
		{"over cap", (maxStatusWait + time.Second).String(), "malformed wait: wait 1m1s outside [0, 1m0s]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(subT *testing.T) {
			resp, err := http.Get(c.BaseURL + "/v1/sweeps/" + sub.ID + "?wait=" + tt.wait)
			if err != nil {
				subT.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				subT.Errorf("wait=%s: HTTP %d, want 400", tt.wait, resp.StatusCode)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				subT.Fatal(err)
			}
			if !strings.Contains(eb.Error, tt.wantErr) {
				subT.Errorf("Wrong error message; expected %#v, got: %#v", tt.wantErr, eb.Error)
			}
		})
	}
}

// TestFinishedJobRetainsOutcomeOnly: a finished job record keeps its
// status, events and payload but releases its run context, holds its
// history at exact size, and still takes a DELETE as a no-op.
func TestFinishedJobRetainsOutcomeOnly(t *testing.T) {
	m := openManager(t, Config{Workers: 1})
	j, _, _, err := m.SubmitOpts(smallReliability(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	j.mu.Lock()
	runCtx, events := j.runCtx, j.events
	j.mu.Unlock()
	if runCtx != nil {
		t.Fatal("finished job still holds its run context")
	}
	if len(events) != 3 || cap(events) != len(events) || events[2].Type != string(StateDone) {
		t.Fatalf("events = %+v (cap %d), want 2 progress + done at exact size", events, cap(events))
	}
	if _, ok := m.Cancel(j.ID); !ok || j.State() != StateDone || len(j.Payload()) == 0 {
		t.Fatalf("DELETE after finish: state %s, %d payload bytes; want done, payload kept", j.State(), len(j.Payload()))
	}
}

// TestCancelRacingFinish sends DELETEs while jobs finish, so the cancel
// func finish swaps out is read and written from two goroutines at once
// (run under -race).
func TestCancelRacingFinish(t *testing.T) {
	m := openManager(t, Config{Workers: 2})
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= 8; seed++ {
		req := smallReliability()
		req.Seed = seed
		j, _, _, err := m.SubmitOpts(req, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !j.State().terminal() {
				m.Cancel(j.ID)
			}
		}()
	}
	wg.Wait()
}
