package fleet

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbmvolt/internal/chaos"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// The routing-outcome series of a node's registry.
const (
	servesLocal     = `hbmvolt_fleet_serves_total{mode="local"}`
	servesForwarded = `hbmvolt_fleet_serves_total{mode="forwarded"}`
	servesDegraded  = `hbmvolt_fleet_serves_total{mode="degraded"}`
)

// peerSeries names a per-peer family's series for peer.
func peerSeries(family, peer string) string {
	return family + `{peer="` + peer + `"}`
}

// testNode is one in-process fleet member: a real service server on a
// real TCP listener, its manager routed through a Forwarder.
type testNode struct {
	url string
	srv *service.Server
	fwd *Forwarder
	hs  *http.Server
}

// kill closes the node's listener and server: connections to it refuse
// from now on, exactly like a dead process.
func (n *testNode) kill() { n.hs.Close() }

// listenN opens n loopback listeners and returns them with their base
// URLs, so the fleet's peer lists are known before any node exists.
func listenN(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	return lns, urls
}

// startNodes brings up an n-node fleet. Every node gets the same peer
// list (its own URL included — New dedupes), short forward timeouts,
// and no active prober unless tune adds one.
func startNodes(t *testing.T, n int, tune func(i int, o *Options)) []*testNode {
	t.Helper()
	lns, urls := listenN(t, n)
	return startNodesOn(t, lns, urls, tune, nil)
}

// startNodesOn builds one fleet node per pre-opened listener, each
// serving the sweep API plus the membership admin API (the same mux
// shape the daemon mounts), with the forwarder's families in the
// service's registry as the daemon wires them. svcCfg, when non-nil,
// tunes each node's service config (e.g. a CacheDir for replication
// tests).
func startNodesOn(t *testing.T, lns []net.Listener, urls []string, tune func(i int, o *Options), svcCfg func(i int, c *service.Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, len(lns))
	for i := range nodes {
		o := Options{
			Self:           urls[i],
			Peers:          urls,
			ForwardTimeout: 2 * time.Second,
		}
		if tune != nil {
			tune(i, &o)
		}
		fwd, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		fwd.RegisterMetrics(reg)
		cfg := service.Config{Workers: 2, QueueDepth: 64, Forwarder: fwd, Metrics: reg}
		if svcCfg != nil {
			svcCfg(i, &cfg)
		}
		srv, err := service.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/fleet/peers", fwd.AdminHandler())
		mux.Handle("/", srv)
		hs := &http.Server{Handler: mux}
		ln := lns[i]
		go hs.Serve(ln)
		nodes[i] = &testNode{url: urls[i], srv: srv, fwd: fwd, hs: hs}
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
			fwd.Close()
		})
	}
	return nodes
}

// smallReq is a milliseconds-scale reliability sweep; distinct seeds
// give distinct cache keys, which rendezvous hashing spreads across
// the fleet.
func smallReq(seed uint64) service.SweepRequest {
	return service.SweepRequest{
		Kind: service.KindReliability, Seed: seed, Scale: 1024,
		Ports: []int{0}, Patterns: []string{"all1"},
		Grid: []float64{0.90}, Batch: 1,
	}
}

// keyOf normalizes and keys a request the way the manager will.
func keyOf(t *testing.T, req service.SweepRequest) uint64 {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// seedOwnedBy finds a seed whose request key the forwarder routes to
// owner. Keys are deterministic, so the found seed is stable.
func seedOwnedBy(t *testing.T, f *Forwarder, owner string) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 4096; seed++ {
		if f.Owner(keyOf(t, smallReq(seed))) == owner {
			return seed
		}
	}
	t.Fatalf("no seed in [0,4096) owned by %s", owner)
	return 0
}

// localPayload computes req on a standalone single-node manager — the
// byte-identity reference every fleet serve must match.
func localPayload(t *testing.T, req service.SweepRequest) []byte {
	t.Helper()
	mgr, err := service.OpenManager(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	j, _, _, err := mgr.SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(context.Background()); err != nil || st != service.StateDone {
		t.Fatalf("reference compute: %v, %v", st, err)
	}
	return j.Payload()
}

func TestNormalizeNode(t *testing.T) {
	good := map[string]string{
		"http://10.0.0.1:8023":    "http://10.0.0.1:8023",
		"https://node-a:8023/":    "https://node-a:8023",
		"  http://host:1 ":        "http://host:1",
		"http://127.0.0.1:8023//": "http://127.0.0.1:8023",
	}
	for in, want := range good {
		got, err := normalizeNode(in)
		if err != nil || got != want {
			t.Errorf("normalizeNode(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "node-a:8023", "ftp://x", "http://", "http://h:1/path", "http://h:1?q=1"} {
		if got, err := normalizeNode(bad); err == nil {
			t.Errorf("normalizeNode(%q) = %q, want error", bad, got)
		}
	}
}

// TestOwnerAgreementAndSpread pins the routing invariants: every node
// computes the same owner for every key (no coordination needed), and
// ownership spreads over all nodes rather than collapsing onto one.
func TestOwnerAgreementAndSpread(t *testing.T) {
	urls := []string{"http://n1:1", "http://n2:1", "http://n3:1"}
	fwds := make([]*Forwarder, len(urls))
	for i, u := range urls {
		f, err := New(Options{Self: u, Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fwds[i] = f
	}
	counts := map[string]int{}
	for key := uint64(0); key < 3000; key++ {
		owner := fwds[0].Owner(key * 0x9e3779b97f4a7c15)
		for _, f := range fwds[1:] {
			if got := f.Owner(key * 0x9e3779b97f4a7c15); got != owner {
				t.Fatalf("key %d: %s says %s, %s says %s", key, fwds[0].Self(), owner, f.Self(), got)
			}
		}
		counts[owner]++
	}
	for _, u := range urls {
		if counts[u] < 300 {
			t.Fatalf("owner spread %v: node %s owns under 10%%", counts, u)
		}
	}
}

// TestOwnerStableUnderNodeLoss pins the rendezvous property the
// degradation story depends on: removing a node reassigns only that
// node's keys — every surviving owner keeps exactly what it had.
func TestOwnerStableUnderNodeLoss(t *testing.T) {
	urls := []string{"http://n1:1", "http://n2:1", "http://n3:1"}
	full, err := New(Options{Self: urls[0], Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	reduced, err := New(Options{Self: urls[0], Peers: urls[:2]})
	if err != nil {
		t.Fatal(err)
	}
	defer reduced.Close()
	for key := uint64(0); key < 3000; key++ {
		k := key * 0x9e3779b97f4a7c15
		before := full.Owner(k)
		if before == urls[2] {
			continue // the lost node's keys may move anywhere
		}
		if after := reduced.Owner(k); after != before {
			t.Fatalf("key %x moved %s → %s although its owner survived", k, before, after)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	b := newBreaker(2, time.Minute)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	if !b.Allow() || b.State() != circuitClosed {
		t.Fatal("new breaker must be closed")
	}
	b.Failure()
	if b.State() != circuitClosed {
		t.Fatal("one failure under threshold 2 must not open")
	}
	if opened := b.Failure(); !opened || b.State() != circuitOpen {
		t.Fatal("second consecutive failure must open")
	}
	if b.Allow() {
		t.Fatal("open circuit within cooldown must not allow")
	}
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() || b.State() != circuitHalfOpen {
		t.Fatal("cooldown elapsed: one half-open trial must be allowed")
	}
	if b.Allow() {
		t.Fatal("half-open admits exactly one trial")
	}
	if opened := b.Failure(); !opened || b.State() != circuitOpen {
		t.Fatal("failed trial must re-open")
	}
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second cooldown elapsed")
	}
	if recovered := b.Success(); !recovered || b.State() != circuitClosed {
		t.Fatal("successful trial must close")
	}
	if b.consecutive != 0 {
		t.Fatal("success must reset the failure streak")
	}
}

// TestBreakerHalfOpenAdmitsOneTrial races concurrent forwards against
// a breaker whose cooldown just elapsed: exactly one caller may win
// the half-open trial slot, no matter how the goroutines interleave.
// (Run under -race: the transition is a read-check-write that must be
// atomic under the breaker's lock.)
func TestBreakerHalfOpenAdmitsOneTrial(t *testing.T) {
	for round := 0; round < 50; round++ {
		b := newBreaker(1, time.Minute)
		clock := time.Unix(1000, 0)
		var mu sync.Mutex
		b.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
		b.Failure() // threshold 1: open immediately
		mu.Lock()
		clock = clock.Add(2 * time.Minute) // cooldown elapsed: next Allow goes half-open
		mu.Unlock()

		const forwards = 8
		var admitted atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < forwards; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if b.Allow() {
					admitted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d concurrent forwards admitted %d trials, want exactly 1", round, forwards, n)
		}
		if b.State() != circuitHalfOpen {
			t.Fatalf("round %d: state = %q, want half-open with the trial in flight", round, b.State())
		}
	}
}

// TestForwardToOwner pins the fabric's happy path: a cell submitted to
// a non-owner is computed exactly once, on its owner, and the bytes
// match a standalone single-node compute.
func TestForwardToOwner(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)
	req := smallReq(seed)
	want := localPayload(t, req)

	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if string(j.Payload()) != string(want) {
		t.Fatal("forwarded payload differs from single-node compute")
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[1].url || info.Degraded {
		t.Fatalf("ServeInfo = %+v, want served by owner %s, not degraded", info, nodes[1].url)
	}
	if runs := nodes[0].srv.Manager().Runs(); runs != 0 {
		t.Fatalf("receiving node ran %d sweeps locally, want 0 (owner computes)", runs)
	}
	if runs := nodes[1].srv.Manager().Runs(); runs != 1 {
		t.Fatalf("owner ran %d sweeps, want 1", runs)
	}
	if m := telemetrytest.Scrape(t, nodes[0].srv); m[servesForwarded] != 1 || m[servesDegraded] != 0 {
		t.Fatalf("forwarded = %v, degraded = %v; want 1, 0", m[servesForwarded], m[servesDegraded])
	}
}

// callLog is an HTTP transport that records every request it carries,
// as "METHOD request-URI", per destination host.
type callLog struct {
	mu    sync.Mutex
	calls map[string][]string
}

func (c *callLog) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.calls[req.URL.Host] = append(c.calls[req.URL.Host], req.Method+" "+req.URL.RequestURI())
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (c *callLog) to(host string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.calls[host]...)
}

// TestForwardIsThreeRoundTrips pins the forward's cost by count, not by
// wall clock: a milliseconds-scale sweep finishes inside one status
// long-poll, so the forward makes exactly three calls to the owner —
// submit, one status (asking the owner to hold for half the 2s forward
// timeout), result — and never sleeps between polls.
func TestForwardIsThreeRoundTrips(t *testing.T) {
	rec := &callLog{calls: map[string][]string{}}
	nodes := startNodes(t, 2, func(i int, o *Options) {
		o.HTTPClient = &http.Client{Transport: rec}
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)

	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(smallReq(seed), service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[1].url || info.Degraded {
		t.Fatalf("ServeInfo = %+v, want served by owner %s, not degraded", info, nodes[1].url)
	}
	calls := rec.to(strings.TrimPrefix(nodes[1].url, "http://"))
	if len(calls) != 3 {
		t.Fatalf("forward made %d calls to the owner, want 3 (submit, status, result): %q", len(calls), calls)
	}
	status, found := strings.CutSuffix(calls[1], "?wait=1s")
	if calls[0] != "POST /v1/sweeps" || !found || !strings.HasPrefix(status, "GET /v1/sweeps/") || calls[2] != status+"/result" {
		t.Fatalf("owner calls = %q, want submit, status?wait=1s, result", calls)
	}
}

// TestDegradeWhenOwnerDown kills the owner first, then submits: the
// receiving node must serve the identical bytes from local compute and
// mark the serve degraded, in status fields and response headers both.
func TestDegradeWhenOwnerDown(t *testing.T) {
	nodes := startNodes(t, 2, func(i int, o *Options) {
		o.ForwardTimeout = 500 * time.Millisecond
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)
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
		t.Fatal("degraded payload differs from single-node compute: degradation must be byte-identical")
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[0].url || !info.Degraded {
		t.Fatalf("ServeInfo = %+v, want degraded local serve", info)
	}
	if got := telemetrytest.Scrape(t, nodes[0].srv)[servesDegraded]; got != 1 {
		t.Fatalf("degraded = %v, want 1", got)
	}

	// The fallback is observable on the wire: served-by + degraded
	// headers on the result, body still byte-identical.
	resp, err := http.Get(nodes[0].url + "/v1/sweeps/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != string(want) {
		t.Fatal("HTTP result body differs")
	}
	if resp.Header.Get(service.HeaderServedBy) != nodes[0].url {
		t.Fatalf("served-by header = %q, want %s", resp.Header.Get(service.HeaderServedBy), nodes[0].url)
	}
	if resp.Header.Get(service.HeaderDegraded) != "true" {
		t.Fatal("degraded serve must carry the degraded header")
	}
}

// TestCircuitOpensAfterConsecutiveFailures pins passive breaker
// feeding: with the owner dead and threshold 2, the first two
// submissions attempt (and fail) the forward; once open, later
// submissions skip the attempt entirely and degrade immediately.
func TestCircuitOpensAfterConsecutiveFailures(t *testing.T) {
	nodes := startNodes(t, 2, func(i int, o *Options) {
		o.ForwardTimeout = 300 * time.Millisecond
		o.FailureThreshold = 2
		o.Cooldown = time.Hour
	})
	owner := nodes[1].url
	nodes[1].kill()
	mgr := nodes[0].srv.Manager()

	var seeds []uint64
	for seed := uint64(0); len(seeds) < 3 && seed < 4096; seed++ {
		if nodes[0].fwd.Owner(keyOf(t, smallReq(seed))) == owner {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		j, _, _, err := mgr.SubmitOpts(smallReq(seed), service.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
			t.Fatalf("seed %d: %v, %v", seed, st, err)
		}
	}
	if state, err := nodes[0].fwd.PeerState(owner); err != nil || state != circuitOpen {
		t.Fatalf("peer state = %q, %v; want open", state, err)
	}
	m := telemetrytest.Scrape(t, nodes[0].srv)
	if m[servesDegraded] != 3 {
		t.Fatalf("degraded = %v, want 3", m[servesDegraded])
	}
	// Attempts stopped once the circuit opened: 2 failures, not 3.
	forwards := m[peerSeries("hbmvolt_fleet_peer_forwards_total", owner)]
	failures := m[peerSeries("hbmvolt_fleet_peer_forward_failures_total", owner)]
	if forwards != 2 || failures != 2 {
		t.Fatalf("peer counters = %v forwards / %v failures, want 2 / 2 (third skipped open-circuit)", forwards, failures)
	}
}

// TestProbeRecoveryClosesCircuit drives the active health checker
// through an outage: injected connection-refusals open the circuit,
// and the first healthy probe — not a forward — closes it again.
func TestProbeRecoveryClosesCircuit(t *testing.T) {
	plan := chaos.NewPlan().Set("fleet.test.probe", chaos.Fault{HTTP: chaos.HTTPRefuse, Count: 4})
	defer chaos.Activate(plan)()
	nodes := startNodes(t, 2, func(i int, o *Options) {
		o.HTTPClient = &http.Client{Transport: &chaos.Transport{Site: "fleet.test.probe"}}
		if i == 0 {
			o.ProbeInterval = 10 * time.Millisecond
			o.ProbeTimeout = 300 * time.Millisecond
			o.FailureThreshold = 2
			o.Cooldown = time.Hour // recovery must come from the probe, not the cooldown
		}
	})
	owner := nodes[1].url

	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			state, err := nodes[0].fwd.PeerState(owner)
			if err != nil {
				t.Fatal(err)
			}
			if state == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer stuck in %q, want %q", state, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitState(circuitOpen)   // refused probes accumulate to the threshold
	waitState(circuitClosed) // chaos window exhausted: a probe succeeds and closes

	m := telemetrytest.Scrape(t, nodes[0].srv)
	probes := m[peerSeries("hbmvolt_fleet_peer_probes_total", owner)]
	failures := m[peerSeries("hbmvolt_fleet_peer_probe_failures_total", owner)]
	if probes < 4 || failures < 2 {
		t.Fatalf("probe counters = %v probes / %v failures, want >=4 with >=2 failures", probes, failures)
	}
}

// TestForwardedRequestsNeverReforward pins the loop guard: a
// submission carrying the forwarded-once marker executes locally even
// though the key's owner is a remote peer.
func TestForwardedRequestsNeverReforward(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)
	req := smallReq(seed)

	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{NoForward: true})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if runs := nodes[0].srv.Manager().Runs(); runs != 1 {
		t.Fatalf("receiving node ran %d sweeps, want 1 (pinned local)", runs)
	}
	if m := telemetrytest.Scrape(t, nodes[0].srv); m[servesForwarded] != 0 || m[servesDegraded] != 0 {
		t.Fatalf("forwarded = %v, degraded = %v; want no forward activity", m[servesForwarded], m[servesDegraded])
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[0].url || info.Degraded {
		t.Fatalf("ServeInfo = %+v, want plain local serve", info)
	}
}

// TestSelfExcludedAndDeduped: every node can ship the identical -peers
// value; New drops self and duplicates from the peer set.
func TestSelfExcludedAndDeduped(t *testing.T) {
	f, err := New(Options{
		Self:  "http://n1:1",
		Peers: []string{"http://n1:1", "http://n2:1", "http://n2:1/", "http://n3:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if nodes := f.Nodes(); len(nodes) != 3 {
		t.Fatalf("nodes = %v, want 3 distinct", nodes)
	}
	if _, err := f.PeerState("http://n1:1"); err == nil {
		t.Fatal("self must not be a peer")
	}
}
