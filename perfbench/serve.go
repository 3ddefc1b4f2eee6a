package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"hbmvolt/internal/fleet"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
)

// node is one in-process hbmvoltd: the sweep service over its own
// metrics registry and fleet forwarder, serving HTTP on a loopback
// listener.
type node struct {
	reg  *telemetry.Registry
	fwd  *fleet.Forwarder
	srv  *service.Server
	http *http.Server
	done chan struct{} // closed once Serve has returned
}

// startNode builds a node the way hbmvoltd does with its fleet defaults
// (2 s forward timeout, 100 ms status polling, 1 s health probes,
// adaptive hedging, 1 GiB replica budget) and service.Config defaults:
// memory-only, as DESIGN.md explains.
func startNode(self, peer string, ln net.Listener, httpc *http.Client) (*node, error) {
	reg := telemetry.NewRegistry()
	fwd, err := fleet.New(fleet.Options{
		Self:          self,
		Peers:         []string{peer},
		ProbeInterval: time.Second,
		HTTPClient:    httpc,
	})
	if err != nil {
		return nil, err
	}
	fwd.RegisterMetrics(reg)
	srv, err := service.Open(service.Config{Forwarder: fwd, Metrics: reg})
	if err != nil {
		fwd.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/peers", fwd.AdminHandler())
	mux.Handle("/", srv)
	n := &node{
		reg:  reg,
		fwd:  fwd,
		srv:  srv,
		http: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.http.Serve(ln)
	}()
	return n, nil
}

// stopHTTP stops accepting and waits for open requests and Serve.
func (n *node) stopHTTP() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.http.Shutdown(ctx)
	<-n.done
}

// fleetEnv is two nodes on loopback and the client the serve workloads
// drive node A with.
type fleetEnv struct {
	a, b   *node
	httpc  *http.Client
	client *service.Client
}

// buildDir is the build directory the launcher names ($PERFBENCH_BUILD),
// inside the checkout; the op log lives there.
func buildDir() string {
	if build := os.Getenv("PERFBENCH_BUILD"); build != "" {
		return build
	}
	return ".bench_build"
}

// newFleetEnv starts nodes A and B. Both resolve each other, and the
// client resolves them, by stable name through one HTTP transport.
func newFleetEnv() (env *fleetEnv, err error) {
	env = &fleetEnv{}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return env, err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		return env, err
	}
	addrs := map[string]string{
		strings.TrimPrefix(nodeA, "http://") + ":80": lnA.Addr().String(),
		strings.TrimPrefix(nodeB, "http://") + ":80": lnB.Addr().String(),
	}
	var dialer net.Dialer
	env.httpc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("perfbench: no node %s", addr)
			}
			return dialer.DialContext(ctx, network, real)
		},
		MaxIdleConnsPerHost: 8,
	}}
	if env.a, err = startNode(nodeA, nodeB, lnA, env.httpc); err != nil {
		lnB.Close()
		return env, err
	}
	if env.b, err = startNode(nodeB, nodeA, lnB, env.httpc); err != nil {
		return env, err
	}
	env.client = service.NewClient(nodeA)
	env.client.HTTPClient = env.httpc
	return env, nil
}

// close stops both nodes.
func (e *fleetEnv) close() {
	for _, n := range []*node{e.a, e.b} {
		if n != nil {
			n.stopHTTP()
		}
	}
	for _, n := range []*node{e.a, e.b} {
		if n != nil {
			n.srv.Close()
			n.fwd.Close()
		}
	}
	if e.httpc != nil {
		e.httpc.CloseIdleConnections()
	}
}

// maxJobs is service.Config's default job-record bound. It exceeds the
// memory tier's 256 entries, so filling the job table fills the tier.
const maxJobs = 1024

// fill fills n's job table, memory tier and span ring with filler sweeps
// of the given stream, computed locally (NoForward), so that timed ops
// run against full tables: each new job record, cache entry and span
// evicts an old one, and memory does not grow with the op count.
// Fillers carry trace IDs, as HTTP submissions do, so they record spans;
// once the job table is full, resubmitted fillers (cache hits, one span
// each) top the span ring up.
func fill(ctx context.Context, n *node, seed uint64, stream string) error {
	mgr := n.srv.Manager()
	const batch = 8 // within the default queue depth of 16
	submit := func(k int) (*service.Job, error) {
		s := deviceSeed(seed, stream, uint64(k))
		j, _, _, err := mgr.SubmitOpts(fillerSweep(s), service.SubmitOptions{NoForward: true, TraceID: fmt.Sprintf("%032x", s)})
		if err != nil {
			return nil, fmt.Errorf("filler %d: %w", k, err)
		}
		return j, nil
	}
	for i := 0; i < maxJobs; i += batch {
		var jobs []*service.Job
		for k := i; k < i+batch; k++ {
			j, err := submit(k)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if st, err := j.Wait(ctx); err != nil || st != service.StateDone {
				return fmt.Errorf("filler %s: state %s %v %s", j.ID, st, err, j.Err())
			}
		}
	}
	// Each resubmitted filler is a cache hit that records one span.
	missing := telemetry.DefaultSpanCapacity - len(mgr.Recorder().Spans())
	for k := 0; k < missing; k++ {
		if _, err := submit(k % maxJobs); err != nil {
			return err
		}
	}
	if len(mgr.Recorder().Spans()) < telemetry.DefaultSpanCapacity {
		return errors.New("span ring not full after the fill")
	}
	return nil
}

// fetch runs one sweep through the client: Submit, Wait on the NDJSON
// event stream, Result.
func fetch(ctx context.Context, c *service.Client, req service.SweepRequest, sp spans) (service.SubmitResponse, []byte, error) {
	t := time.Now()
	sub, err := c.Submit(ctx, req)
	sp.add("service.submit", time.Since(t))
	if err != nil {
		return sub, nil, err
	}
	t = time.Now()
	st, err := c.Wait(ctx, sub.ID)
	sp.add("service.wait", time.Since(t))
	if err != nil {
		return sub, nil, err
	}
	if st != service.StateDone {
		return sub, nil, fmt.Errorf("job %s ended %s", sub.ID, st)
	}
	t = time.Now()
	payload, err := c.Result(ctx, sub.ID)
	sp.add("service.result", time.Since(t))
	return sub, payload, err
}

// timeNormalize times the service's request normalization and cache
// keying on a fresh copy of the op's request.
func timeNormalize(req service.SweepRequest, sp spans) {
	if sp == nil {
		return
	}
	t := time.Now()
	if err := req.Normalize(); err == nil {
		req.CacheKey()
	}
	sp["service.normalize_key_us"] = append(sp["service.normalize_key_us"], float64(time.Since(t))/float64(time.Microsecond))
}

// reliabilityFlips sums the batch-mean flips of a reliability payload.
func reliabilityFlips(env *service.Envelope) float64 {
	if env.Reliability == nil {
		return 0
	}
	t := 0.0
	for _, pt := range env.Reliability.Points {
		t += pt.MeanFlips
	}
	return t
}

// counters snapshots both nodes' registries and the enum store.
func (e *fleetEnv) counters() snapshot {
	s := snapshot{}
	enumCounters(s)
	s.scrape("a", e.a.reg)
	s.scrape("b", e.b.reg)
	return s
}

// ---- serve-hit ---------------------------------------------------------

// hitKeys is serve-hit's working set, well under the memory tier's 256
// entries.
const hitKeys = 64

// hitWarmOps are the untimed warm-up hits of set-up.
const hitWarmOps = 256

// serveHit submits a working-set key to node A and fetches its result:
// the service read path with zero compute.
type serveHit struct {
	env   *fleetEnv
	reqs  []service.SweepRequest
	seeds []uint64
	want  [][]byte // each key's set-up fetch
	flips []float64
}

func setupServeHit(ctx context.Context, seed uint64, rep int) (w workload, err error) {
	env, err := newFleetEnv()
	if err != nil {
		return nil, err
	}
	h := &serveHit{env: env}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if err := fill(ctx, env.a, seed, fmt.Sprintf("hit-fill-%d", rep)); err != nil {
		return nil, err
	}
	// The working set is computed last, so its job records are the
	// newest and fillers are what the full tables evict. Keys are owned
	// by node A: the hit path is the same either way, and set-up skips
	// the forward's polling delay.
	for k := 0; k < hitKeys; k++ {
		req, _, err := ownedSweep(seed, "hit", k, nodeA, env.a.fwd.Owner)
		if err != nil {
			return nil, err
		}
		_, payload, err := fetch(ctx, env.client, req, nil)
		if err != nil {
			return nil, fmt.Errorf("working-set key %d: %w", k, err)
		}
		res, err := service.DecodeResult(payload)
		if err != nil {
			return nil, err
		}
		h.reqs = append(h.reqs, req)
		h.seeds = append(h.seeds, req.Seed)
		h.want = append(h.want, payload)
		h.flips = append(h.flips, reliabilityFlips(res))
	}
	for i := 0; i < hitWarmOps; i++ {
		if _, err := h.op(ctx, i, nil); err != nil {
			return nil, fmt.Errorf("warm-up hit %d: %w", i, err)
		}
	}
	return h, nil
}

func (h *serveHit) op(ctx context.Context, i int, sp spans) (opRecord, error) {
	k := i % hitKeys
	rec := opRecord{seed: h.seeds[k], flips: h.flips[k]}
	timeNormalize(smallSweep(h.seeds[k]), sp)
	start := time.Now()
	sub, err := h.env.client.Submit(ctx, h.reqs[k])
	sp.add("service.submit", time.Since(start))
	if err != nil {
		return rec, err
	}
	t := time.Now()
	payload, err := h.env.client.Result(ctx, sub.ID)
	rec.latency = time.Since(start)
	sp.add("service.result", time.Since(t))
	if err != nil {
		return rec, err
	}
	err = checked(ctx, func() error {
		rec.sha = sha256.Sum256(payload)
		if !sub.CacheHit {
			return fmt.Errorf("key %d missed the cache: %+v", k, sub)
		}
		if !bytes.Equal(payload, h.want[k]) {
			return fmt.Errorf("key %d: payload differs from its set-up fetch", k)
		}
		return nil
	})
	return rec, err
}

func (h *serveHit) counters() snapshot { return h.env.counters() }

func (h *serveHit) close() { h.env.close() }

// ---- serve-miss --------------------------------------------------------

// missWarmOps are the untimed warm-up misses of set-up: two forwards.
const missWarmOps = 8

// serveMiss submits a fresh key per op to node A: Submit, Wait on the
// event stream, Result. Every fourth key is owned by node B, so those
// ops take the fleet forward.
type serveMiss struct {
	env    *fleetEnv
	seed   uint64
	stream string
}

func setupServeMiss(ctx context.Context, seed uint64, rep int) (w workload, err error) {
	env, err := newFleetEnv()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	for _, n := range []*node{env.a, env.b} {
		if err := fill(ctx, n, seed, fmt.Sprintf("miss-fill-%d-%s", rep, n.fwd.Self())); err != nil {
			return nil, err
		}
	}
	warm := &serveMiss{env: env, seed: seed, stream: fmt.Sprintf("miss-warm-%d", rep)}
	for i := 0; i < missWarmOps; i++ {
		if _, err := warm.op(ctx, i, nil); err != nil {
			return nil, fmt.Errorf("warm-up miss %d: %w", i, err)
		}
	}
	return &serveMiss{env: env, seed: seed, stream: "miss"}, nil
}

func (m *serveMiss) op(ctx context.Context, i int, sp spans) (opRecord, error) {
	owner := missOwner(i)
	req, key, err := ownedSweep(m.seed, m.stream, i, owner, m.env.a.fwd.Owner)
	if err != nil {
		return opRecord{}, err
	}
	rec := opRecord{seed: req.Seed}
	timeNormalize(smallSweep(req.Seed), sp)
	start := time.Now()
	sub, payload, err := fetch(ctx, m.env.client, req, sp)
	rec.latency = time.Since(start)
	if owner == nodeA {
		sp.add("fleet.local_miss", rec.latency)
	} else {
		sp.add("fleet.forward", rec.latency)
	}
	if err != nil {
		return rec, err
	}
	err = checked(ctx, func() error {
		rec.sha = sha256.Sum256(payload)
		env, err := service.DecodeResult(payload)
		if err != nil {
			return err
		}
		rec.flips = reliabilityFlips(env)
		want := service.FormatKey(key)
		if env.Key != want || sub.Key != want {
			return fmt.Errorf("payload key %s, submission key %s, submitted %s", env.Key, sub.Key, want)
		}
		job, ok := m.env.a.srv.Manager().Job(sub.ID)
		if !ok {
			return fmt.Errorf("job %s vanished from node A", sub.ID)
		}
		// A degraded serve skipped the forward this op measures.
		if info := job.ServeInfo(); info.Degraded || info.ServedBy != owner {
			return fmt.Errorf("key %s owned by %s was served by %q (degraded %v)", want, owner, info.ServedBy, info.Degraded)
		}
		return nil
	})
	return rec, err
}

func (m *serveMiss) counters() snapshot { return m.env.counters() }

func (m *serveMiss) close() { m.env.close() }
