package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"hbmvolt/internal/fleet"
	"hbmvolt/internal/service"
	tlog "hbmvolt/internal/telemetry/log"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// testLogWriter forwards the daemon's structured records to t.Logf.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *tlog.Logger {
	return tlog.New(testLogWriter{t}, tlog.LevelDebug)
}

func TestOptionsValidate(t *testing.T) {
	base := Defaults()
	base.Addr = "127.0.0.1:0"
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantErr string
	}{
		{"defaults", func(o *Options) {}, ""},
		{"zero workers", func(o *Options) { o.Workers = 0 }, ">= 1"},
		{"zero queue", func(o *Options) { o.QueueDepth = 0 }, ">= 1"},
		{"zero cache", func(o *Options) { o.CacheEntries = 0 }, ">= 1"},
		{"negative rate", func(o *Options) { o.RatePerSec = -1 }, "-rate"},
		{"rate without burst", func(o *Options) { o.RatePerSec = 2; o.RateBurst = 0 }, "-burst"},
		{"rate with burst", func(o *Options) { o.RatePerSec = 2; o.RateBurst = 4 }, ""},
		{"disk bound without dir", func(o *Options) { o.DiskCacheBytes = 1 << 20 }, "-cache-dir"},
		{"disk bound with dir", func(o *Options) { o.DiskCacheBytes = 1 << 20; o.CacheDir = "/tmp/x" }, ""},
		{"negative disk bound", func(o *Options) { o.DiskCacheBytes = -1 }, "-cache-disk-bytes"},
		{"zero drain timeout", func(o *Options) { o.DrainTimeout = 0 }, "-drain-timeout"},
		{"peers without self", func(o *Options) { o.Peers = []string{"http://n2:1"} }, "-self"},
		{"join without self", func(o *Options) { o.Join = []string{"http://n2:1"} }, "-self"},
		{"self without peers", func(o *Options) { o.Self = "http://n1:1" }, "-peers"},
		{"join instead of peers", func(o *Options) {
			o.Self = "http://n1:1"
			o.Join = []string{"http://n2:1"}
			o.ForwardTimeout = time.Second
		}, ""},
		{"fleet ok", func(o *Options) {
			o.Self = "http://n1:1"
			o.Peers = []string{"http://n2:1"}
			o.ForwardTimeout = time.Second
		}, ""},
		{"fleet zero forward timeout", func(o *Options) {
			o.Self = "http://n1:1"
			o.Peers = []string{"http://n2:1"}
			o.ForwardTimeout = 0
		}, "-forward-timeout"},
		{"fleet negative probe interval", func(o *Options) {
			o.Self = "http://n1:1"
			o.Peers = []string{"http://n2:1"}
			o.ForwardTimeout = time.Second
			o.ProbeInterval = -time.Second
		}, "-probe-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mutate(&o)
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// startDaemon builds a daemon on an ephemeral port and serves it until
// the returned cancel function is called; done receives Serve's error.
func startDaemon(t *testing.T, o Options) (d *Daemon, client *service.Client, cancel context.CancelFunc, done chan error) {
	t.Helper()
	o.Logger = testLogger(t)
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- d.Serve(ctx, ln) }()
	return d, service.NewClient("http://" + ln.Addr().String()), cancelCtx, done
}

func testOptions() Options {
	o := Defaults()
	o.Addr = "127.0.0.1:0"
	o.Workers, o.MaxJobs, o.FleetSize = 1, 64, 1
	return o
}

func smokeSweep() service.SweepRequest {
	return service.SweepRequest{
		Kind: service.KindReliability, Scale: 1024, Ports: []int{0},
		Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1,
	}
}

func waitServe(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonCacheDirWiring is the -cache-dir flag's end-to-end check: a
// sweep computed by one daemon process is recovered and served — not
// recomputed — by the next daemon over the same directory.
func TestDaemonCacheDirWiring(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.CacheDir = dir

	_, c, cancel, done := startDaemon(t, o)
	ctx := context.Background()
	sub, err := c.Submit(ctx, smokeSweep())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.ID); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	payload, err := c.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	waitServe(t, done)

	d2, c2, cancel2, done2 := startDaemon(t, o)
	defer func() { cancel2(); waitServe(t, done2) }()
	if got := telemetrytest.Scrape(t, d2.Server())["hbmvolt_disk_recovered_entries_total"]; got != 1 {
		t.Fatalf("restarted daemon recovered %v disk entries, want 1", got)
	}
	sub2, err := c2.Submit(ctx, smokeSweep())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c2.Wait(ctx, sub2.ID); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	payload2, err := c2.Result(ctx, sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(payload2) {
		t.Fatal("restarted daemon served different bytes")
	}
	if got := telemetrytest.Scrape(t, d2.Server())["hbmvolt_sweep_runs_total"]; got != 0 {
		t.Fatalf("restarted daemon recomputed: hbmvolt_sweep_runs_total = %v, want 0", got)
	}
}

func TestSplitPeers(t *testing.T) {
	got := SplitPeers(" http://n1:1, ,http://n2:1,")
	if len(got) != 2 || got[0] != "http://n1:1" || got[1] != "http://n2:1" {
		t.Fatalf("SplitPeers = %q, want the two URLs with blanks dropped", got)
	}
	if SplitPeers("") != nil {
		t.Fatal("empty -peers must parse to no peers")
	}
}

// TestDaemonFleetWiring boots two complete daemons in peer mode — the
// -self/-peers path end to end — submits a sweep to the node that does
// NOT own its key, and checks the owner computed it, the serve marker
// says so, and the node's registry carries the fleet families.
func TestDaemonFleetWiring(t *testing.T) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	clients := make([]*service.Client, 2)
	daemons := make([]*Daemon, 2)
	for i := range lns {
		o := testOptions()
		o.Logger = testLogger(t)
		o.Self = urls[i]
		o.Peers = urls
		o.ProbeInterval = 0 // passive only: no probe goroutines in this test
		d, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		ln := lns[i]
		go func() { done <- d.Serve(ctx, ln) }()
		t.Cleanup(func() { cancel(); waitServe(t, done) })
		clients[i], daemons[i] = service.NewClient(urls[i]), d
	}

	// Route the request like the daemons will, then submit it to the
	// other node so the serve has to cross the fleet.
	router, err := fleet.New(fleet.Options{Self: urls[0], Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	req := smokeSweep()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := router.Owner(key)
	submitTo := 0
	if owner == urls[0] {
		submitTo = 1
	}

	ctx := context.Background()
	sub, err := clients[submitTo].Submit(ctx, smokeSweep())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := clients[submitTo].Wait(ctx, sub.ID); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	st, err := clients[submitTo].Status(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ServedBy != owner || st.Degraded {
		t.Fatalf("status served_by=%q degraded=%v, want healthy serve by owner %s", st.ServedBy, st.Degraded, owner)
	}
	if got := telemetrytest.Scrape(t, daemons[submitTo].Server())["hbmvolt_fleet_nodes"]; got != 2 {
		t.Fatalf("hbmvolt_fleet_nodes = %v in fleet mode, want 2", got)
	}
}

// TestDaemonJoinWiring boots a two-node fleet statically, then a third
// daemon with only -self and -join: the joiner must announce itself to
// the seeds and adopt their node set, so all three converge on one
// membership view without any restart.
func TestDaemonJoinWiring(t *testing.T) {
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	boot := func(i int, mutate func(*Options)) {
		o := testOptions()
		o.Logger = testLogger(t)
		o.Self = urls[i]
		o.ProbeInterval = 0
		mutate(&o)
		d, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		ln := lns[i]
		go func() { done <- d.Serve(ctx, ln) }()
		t.Cleanup(func() { cancel(); waitServe(t, done) })
	}
	boot(0, func(o *Options) { o.Peers = urls[:2] })
	boot(1, func(o *Options) { o.Peers = urls[:2] })
	boot(2, func(o *Options) { o.Join = urls[:2] })

	membership := func(url string) (fleet.Membership, error) {
		var m fleet.Membership
		resp, err := http.Get(url + "/v1/fleet/peers")
		if err != nil {
			return m, err
		}
		defer resp.Body.Close()
		return m, json.NewDecoder(resp.Body).Decode(&m)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		for _, url := range urls {
			m, err := membership(url)
			if err != nil || len(m.Nodes) != 3 {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for _, url := range urls {
				m, err := membership(url)
				t.Logf("%s: %+v (%v)", url, m, err)
			}
			t.Fatal("fleet never converged on 3 nodes after -join")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The seeds' views were version-bumped by the announcement; the
	// joiner bumped twice (one AddPeer per adopted seed).
	if m, err := membership(urls[0]); err != nil || m.Version != 2 {
		t.Fatalf("seed membership = %+v (%v), want version 2", m, err)
	}
}

// TestDaemonSignalDrain exercises the production shutdown path against
// a live listener: SIGTERM (via the same signal.NotifyContext wiring
// main uses) triggers a graceful drain in which an in-flight sweep
// still completes and is observable by its client.
func TestDaemonSignalDrain(t *testing.T) {
	o := testOptions()
	o.Logger = testLogger(t)
	d, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx, ln) }()
	c := service.NewClient("http://" + ln.Addr().String())

	sub, err := c.Submit(context.Background(), service.SweepRequest{
		Kind: service.KindReliability, Scale: 2048, Ports: []int{0, 1},
		Patterns: []string{"all1", "all0"}, Grid: []float64{0.90, 0.89, 0.88}, Batch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Follow the job's event stream; the first delivered event proves the
	// stream is an established in-flight handler before the signal lands.
	// (A connection attempted after Shutdown would just be refused — the
	// drain contract is about work already in flight.)
	events := make(chan service.Event, 64)
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Stream(context.Background(), sub.ID, func(e service.Event) error {
			events <- e
			return nil
		})
	}()
	var last service.Event
	select {
	case last = <-events:
	case <-time.After(30 * time.Second):
		t.Fatal("no event arrived on the stream")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitServe(t, done)

	// The drain kept the stream alive to the sweep's terminal event: the
	// handler ended cleanly and the last event is "done", not a cut.
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("stream cut during drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never finished during drain")
	}
	for {
		select {
		case e := <-events:
			last = e
			continue
		default:
		}
		break
	}
	if last.Type != string(service.StateDone) {
		t.Fatalf("stream ended on %q, want %q (drain should finish the sweep)", last.Type, service.StateDone)
	}
}
