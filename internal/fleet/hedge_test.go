package fleet

import (
	"net/http"
	"testing"
	"time"

	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// The hedge-outcome family and its series. Every launched hedge that
// runs to an outcome lands in exactly one, so the family's sum counts
// the hedges launched.
const (
	hedges      = "hbmvolt_fleet_hedges_total"
	hedgeWin    = hedges + `{outcome="win"}`
	hedgeLoss   = hedges + `{outcome="loss"}`
	hedgeFailed = hedges + `{outcome="failed"}`
)

func TestJitterIntervalBounds(t *testing.T) {
	d := time.Second
	if got := jitterInterval(d, 0); got != 900*time.Millisecond {
		t.Fatalf("jitterInterval(1s, 0) = %v, want 900ms", got)
	}
	if got := jitterInterval(d, 0.5); got != time.Second {
		t.Fatalf("jitterInterval(1s, 0.5) = %v, want 1s", got)
	}
	for _, u := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.999999} {
		got := jitterInterval(d, u)
		if got < 900*time.Millisecond || got >= 1100*time.Millisecond {
			t.Fatalf("jitterInterval(1s, %v) = %v, outside [0.9s, 1.1s)", u, got)
		}
	}
}

func TestHedgeDelayAdaptive(t *testing.T) {
	f, err := New(Options{Self: "http://n1:1", Peers: []string{"http://n2:1"}, ForwardTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Cold window: the full forward timeout, so a cold node never races
	// its very first requests.
	if got := f.hedgeDelay(); got != 3*time.Second {
		t.Fatalf("cold hedge delay = %v, want the forward timeout", got)
	}
	// Fast observed forwards: the floor, not the raw p95.
	for i := 0; i < 20; i++ {
		f.hedge.window.Observe(2 * time.Millisecond)
	}
	if got := f.hedgeDelay(); got != hedgeDelayFloor {
		t.Fatalf("hedge delay on 2ms forwards = %v, want the %v floor", got, hedgeDelayFloor)
	}
	// Slow observed forwards: the p95 itself.
	for i := 0; i < hedgeWindowSize; i++ {
		f.hedge.window.Observe(400 * time.Millisecond)
	}
	if got := f.hedgeDelay(); got != 400*time.Millisecond {
		t.Fatalf("hedge delay on 400ms forwards = %v, want 400ms", got)
	}
	// A fixed configured delay wins over the window.
	f.opts.HedgeDelay = 70 * time.Millisecond
	if got := f.hedgeDelay(); got != 70*time.Millisecond {
		t.Fatalf("fixed hedge delay = %v, want 70ms", got)
	}
}

// TestHedgeDelayAtFloorAfterRealForwards runs real forwards on a
// 3-node fleet. Forwards now cost a few milliseconds (one status
// long-poll, no fixed-interval sleep), so the window's p95 sits under
// the floor and the adaptive delay settles at hedgeDelayFloor.
func TestHedgeDelayAtFloorAfterRealForwards(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	mgr := nodes[0].srv.Manager()
	const forwards = 20
	sent := 0
	for seed := uint64(0); sent < forwards && seed < 4096; seed++ {
		req := smallReq(seed)
		if nodes[0].fwd.Owner(keyOf(t, req)) == nodes[0].url {
			continue
		}
		j, _, _, err := mgr.SubmitOpts(req, service.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
			t.Fatalf("seed %d: Wait = %v, %v", seed, st, err)
		}
		sent++
	}
	m := telemetrytest.Scrape(t, nodes[0].srv)
	if m[servesForwarded] != forwards || m[servesDegraded] != 0 {
		t.Fatalf("forwarded = %v, degraded = %v; want %d, 0", m[servesForwarded], m[servesDegraded], forwards)
	}
	if got := nodes[0].fwd.hedgeDelay(); got != hedgeDelayFloor {
		t.Fatalf("hedge delay after %d real forwards = %v (window p95 %v), want the %v floor",
			forwards, got, nodes[0].fwd.hedge.window.P95(), hedgeDelayFloor)
	}
}

// hostDelay delays every request to selected hosts — a slow node,
// without chaos plans, keyed per destination.
type hostDelay struct {
	delays map[string]time.Duration // "host:port" → added latency
}

func (h *hostDelay) RoundTrip(req *http.Request) (*http.Response, error) {
	if d := h.delays[req.URL.Host]; d > 0 {
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// seedRouted finds a seed whose key f ranks owner-first, second-second
// — so a hedged forward has a known primary and second choice.
func seedRouted(t *testing.T, f *Forwarder, owner, second string) uint64 {
	t.Helper()
	v := f.live.Load()
	for seed := uint64(0); seed < 8192; seed++ {
		r := v.ranked(keyOf(t, smallReq(seed)))
		if r[0] == owner && r[1] == second {
			return seed
		}
	}
	t.Fatalf("no seed in [0,8192) ranked %s then %s", owner, second)
	return 0
}

// TestHedgeWinServesFromSecondChoice slows the owner far past a short
// fixed hedge delay: the race launches, the second-choice node answers
// first, and the serve succeeds un-degraded from the second choice.
func TestHedgeWinServesFromSecondChoice(t *testing.T) {
	delays := map[string]time.Duration{}
	nodes := startNodes(t, 3, func(i int, o *Options) {
		if i == 0 {
			o.HedgeDelay = 30 * time.Millisecond
			o.HTTPClient = &http.Client{Transport: &hostDelay{delays: delays}}
		}
	})
	seed := seedRouted(t, nodes[0].fwd, nodes[1].url, nodes[2].url)
	req := smallReq(seed)
	want := localPayload(t, req)
	delays[nodes[1].url[len("http://"):]] = 500 * time.Millisecond

	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if string(j.Payload()) != string(want) {
		t.Fatal("hedged payload differs from single-node compute")
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[2].url || info.Degraded {
		t.Fatalf("ServeInfo = %+v, want un-degraded serve by second choice %s", info, nodes[2].url)
	}
	m := telemetrytest.Scrape(t, nodes[0].srv)
	if m[servesForwarded] != 1 || m[servesDegraded] != 0 {
		t.Fatalf("forwarded = %v, degraded = %v; want 1, 0", m[servesForwarded], m[servesDegraded])
	}
	if m.Sum(hedges) != 1 || m[hedgeWin] != 1 || m[hedgeLoss] != 0 || m[hedgeFailed] != 0 {
		t.Fatalf("hedge counters = %v, want exactly one launched-and-won hedge", m.Family(hedges))
	}
	if runs := nodes[0].srv.Manager().Runs(); runs != 0 {
		t.Fatalf("requester ran %d sweeps locally, want 0", runs)
	}
}

// TestHedgeLossPrimaryStillWins launches a hedge (tiny delay) against
// a second choice far slower than the primary: the primary's answer
// lands first and the hedge is accounted a loss, not a win.
func TestHedgeLossPrimaryStillWins(t *testing.T) {
	delays := map[string]time.Duration{}
	nodes := startNodes(t, 3, func(i int, o *Options) {
		if i == 0 {
			o.HedgeDelay = 20 * time.Millisecond
			o.HTTPClient = &http.Client{Transport: &hostDelay{delays: delays}}
		}
	})
	seed := seedRouted(t, nodes[0].fwd, nodes[1].url, nodes[2].url)
	req := smallReq(seed)
	delays[nodes[1].url[len("http://"):]] = 100 * time.Millisecond
	delays[nodes[2].url[len("http://"):]] = 3 * time.Second

	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[1].url || info.Degraded {
		t.Fatalf("ServeInfo = %+v, want un-degraded serve by primary %s", info, nodes[1].url)
	}
	m := telemetrytest.Scrape(t, nodes[0].srv)
	if m.Sum(hedges) != 1 || m[hedgeWin] != 0 || m[hedgeLoss] != 1 {
		t.Fatalf("hedge counters = %v, want exactly one launched-and-lost hedge", m.Family(hedges))
	}
}

// TestFailoverOnDeadPrimary kills the owner with timer-based hedging
// disabled (negative delay): the primary's immediate connection
// failure must still fail over to the second choice — un-degraded, no
// local compute — before the degradation path is even considered.
func TestFailoverOnDeadPrimary(t *testing.T) {
	nodes := startNodes(t, 3, func(i int, o *Options) {
		o.HedgeDelay = -1
		o.ForwardTimeout = 2 * time.Second
	})
	seed := seedRouted(t, nodes[0].fwd, nodes[1].url, nodes[2].url)
	req := smallReq(seed)
	want := localPayload(t, req)

	nodes[1].kill()
	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if string(j.Payload()) != string(want) {
		t.Fatal("failover payload differs from single-node compute")
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[2].url || info.Degraded {
		t.Fatalf("ServeInfo = %+v, want un-degraded serve by second choice %s", info, nodes[2].url)
	}
	m := telemetrytest.Scrape(t, nodes[0].srv)
	if m[servesForwarded] != 1 || m[servesDegraded] != 0 {
		t.Fatalf("forwarded = %v, degraded = %v; want 1, 0", m[servesForwarded], m[servesDegraded])
	}
	if m.Sum(hedges) != 1 || m[hedgeWin] != 1 {
		t.Fatalf("hedge counters = %v, want the failover counted as a launched, won hedge", m.Family(hedges))
	}
	if runs := nodes[0].srv.Manager().Runs(); runs != 0 {
		t.Fatalf("requester ran %d sweeps locally, want 0 (failover, not degradation)", runs)
	}
}
