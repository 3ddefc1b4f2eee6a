// Package fleet turns N hbmvoltd nodes into one logical sweep cache
// with provable graceful degradation.
//
// Every sweep/campaign request already condenses to a deterministic,
// normalized cache key (internal/service), and every payload is a pure
// function of that key — so ownership can be pure routing: rendezvous
// hashing assigns each key exactly one owner node, forwards go to the
// owner, and the fleet deduplicates compute without any coordination
// state, rebalancing only 1/N of the keyspace when a node joins or
// leaves.
//
// Membership is dynamic: the node set lives behind a versioned,
// copy-on-write view (see membership.go) that admin endpoints and the
// -join bootstrap mutate at runtime — no restarts, and by the
// rendezvous property each join/leave moves only ~1/N of the keys.
//
// Robustness is the point. A per-peer circuit breaker — fed by an
// active health prober (periodic, jittered /healthz probes) and
// passively by forward failures — decides whether an owner is worth
// trying at all; every HTTP call in the forward path — submit, a status
// long-poll the owner answers as soon as the job is terminal, result —
// runs under its own hedging deadline; a forward that is slow past the
// hedge delay races the second-choice rendezvous owner with the loser
// cancelled (see hedge.go); and any failure to get a peer's bytes
// (open circuit, connection refused, black-holed link, slow past the
// deadline, payload severed mid-body) degrades to computing the cell
// locally.
// Because payloads are deterministic, the degraded response is
// byte-identical to the owner's — availability degrades, correctness
// never does, and the partition tests pin that equality byte for byte.
// Successful forwards are replicated: the verified payload is admitted
// (under a byte budget, see replicate.go) for write-through to the
// requester's own durable cache tier, so a later owner loss serves the
// key from local disk instead of recomputing.
//
// Every fallback is observable: X-Hbmvolt-Served-By /
// X-Hbmvolt-Degraded response headers, per-job served_by/degraded
// status fields, and per-peer circuit state plus degraded-serve,
// hedge, replication, and membership-version counters in /metrics.
package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
	tlog "hbmvolt/internal/telemetry/log"
)

// Options parameterizes a Forwarder.
type Options struct {
	// Self is this node's advertised base URL, e.g.
	// "http://10.0.0.1:8023". It must be the name peers know this node
	// by: every node must route a key to the same owner, so the node
	// set — and each node's spelling of it — must agree fleet-wide.
	Self string
	// Peers are the other nodes' base URLs at boot. Self is tolerated
	// in the list (and ignored), so every node can ship the same -peers
	// value. The set is mutable at runtime via AddPeer/RemovePeer (the
	// admin API) and Join; an empty boot set is valid for nodes that
	// bootstrap from -join seeds.
	Peers []string
	// ForwardTimeout is the hedging deadline on each HTTP call of the
	// forward path — submit, status long-poll, result fetch. A call
	// slower than this counts as a peer failure and the serve degrades
	// to local compute (default 2s). The status long-poll asks the owner
	// to hold for half of it.
	ForwardTimeout time.Duration
	// ProbeInterval is the active health checker's period: every tick,
	// each peer's /healthz is probed and the result feeds its circuit
	// breaker — including the probe success that closes an open circuit
	// once the peer recovers. Ticks are jittered ±10% so daemons started
	// together don't probe in lockstep. 0 disables active probing (the
	// breaker then runs on passive forward failures and cooldown alone).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default ForwardTimeout).
	ProbeTimeout time.Duration
	// FailureThreshold is the consecutive-failure count that opens a
	// peer's circuit (default 3).
	FailureThreshold int
	// Cooldown is how long an open circuit blocks forwards before one
	// trial request may probe the peer again (default 5s).
	Cooldown time.Duration
	// HedgeDelay is how long a forward may run before the second-choice
	// rendezvous owner is raced against it (loser cancelled). 0 derives
	// the delay per forward: the sliding-window p95 of observed forward
	// latencies, floored at 50ms, falling back to ForwardTimeout while
	// the window is empty. Negative disables hedging (failures still
	// fail over to the second choice before degrading to local compute).
	HedgeDelay time.Duration
	// ReplicaBudget bounds hot-payload replication: the total bytes of
	// remote-owner payloads this node admits for write-through to its
	// own durable cache tier, so a later owner loss serves those keys
	// from local disk instead of recomputing. 0 → 1 GiB; negative
	// disables replication (forwarded payloads stay memory-only).
	ReplicaBudget int64
	// HTTPClient performs all fleet HTTP (nil → a plain http.Client).
	// Tests wrap a chaos.Transport here to inject partitions.
	HTTPClient *http.Client
	// Logger receives fallback and circuit-transition events as
	// structured JSON records carrying the trace ID of the affected
	// submission (nil = silent).
	Logger *tlog.Logger
}

func (o *Options) fill() {
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ForwardTimeout
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.ReplicaBudget == 0 {
		o.ReplicaBudget = 1 << 30
	}
}

// normalizeNode canonicalizes a node URL so equal nodes spell equally
// fleet-wide (scheme+host, no trailing slash).
func normalizeNode(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("fleet: node URL %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("fleet: node URL %q: want http(s)://host[:port]", raw)
	}
	if u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("fleet: node URL %q: must be a bare base URL", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// peer is one remote node: its typed client and its health state.
type peer struct {
	name    string
	client  *service.Client
	breaker *breaker

	probes, probeFailures     atomic.Uint64
	forwards, forwardFailures atomic.Uint64
}

// view is one immutable membership snapshot: the sorted node set, the
// peer table, and the version that stamps it. The forwarder swaps
// views atomically (copy-on-write), so every reader — Owner, the
// forward path, the prober, the metrics samplers — sees one
// consistent membership with no locks on the hot path.
type view struct {
	version uint64
	nodes   []string // all node names (self + peers), sorted
	peers   map[string]*peer
}

// Forwarder is the peer-routing fabric: it implements
// service.Forwarder over rendezvous hashing, per-peer circuit
// breakers, hedged forwarding, and local-compute degradation.
// Construct with New, stop the prober with Close.
type Forwarder struct {
	self  string
	opts  Options
	httpc *http.Client

	// live is the current membership view; mu serializes mutations
	// (readers never take it).
	live atomic.Pointer[view]
	mu   sync.Mutex

	localOwned atomic.Uint64 // keys this node owns, computed locally
	forwarded  atomic.Uint64 // keys served by a remote peer
	degraded   atomic.Uint64 // remote-owned keys served by local fallback

	hedge hedgeState
	rep   replicator

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a forwarder and starts its health prober (when
// Options.ProbeInterval is set). Self must be present; Peers may
// repeat or include Self (deduplicated). A fleet of one — no peers —
// is valid and serves everything locally (and may grow via
// AddPeer/Join later).
func New(opts Options) (*Forwarder, error) {
	opts.fill()
	self, err := normalizeNode(opts.Self)
	if err != nil {
		return nil, fmt.Errorf("fleet: -self: %w", err)
	}
	httpc := opts.HTTPClient
	if httpc == nil {
		// Deliberately not http.DefaultClient: fleet traffic must never
		// inherit global transport tweaks, and streaming is unused here so
		// per-call contexts are the only timeout source.
		httpc = &http.Client{}
	}
	f := &Forwarder{
		self:  self,
		opts:  opts,
		httpc: httpc,
		stopc: make(chan struct{}),
	}
	f.rep.budget = opts.ReplicaBudget
	v := &view{
		version: 1,
		nodes:   []string{self},
		peers:   make(map[string]*peer),
	}
	for _, raw := range opts.Peers {
		name, err := normalizeNode(raw)
		if err != nil {
			return nil, err
		}
		if name == self {
			continue
		}
		if _, dup := v.peers[name]; dup {
			continue
		}
		v.peers[name] = f.newPeer(name)
		v.nodes = append(v.nodes, name)
	}
	sort.Strings(v.nodes)
	f.live.Store(v)
	if opts.ProbeInterval > 0 {
		// The prober starts even for a fleet of one: membership is
		// dynamic, so peers may appear after boot.
		f.wg.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// newPeer builds the typed client and breaker for one remote node.
func (f *Forwarder) newPeer(name string) *peer {
	c := service.NewClient(name)
	c.HTTPClient = f.httpc
	// The forwarder's degradation policy *is* the retry policy: one
	// attempt per call, fail fast, fall back to local compute. The
	// forwarded-once marker keeps a misconfigured ring from looping.
	c.Retries = -1
	c.Header = http.Header{
		service.HeaderNoForward: []string{"1"},
		"X-Client-ID":           []string{"fleet:" + f.self},
	}
	return &peer{
		name:    name,
		client:  c,
		breaker: newBreaker(f.opts.FailureThreshold, f.opts.Cooldown),
	}
}

// Close stops the health prober. In-flight forwards finish on their
// own deadlines.
func (f *Forwarder) Close() {
	f.stopOnce.Do(func() { close(f.stopc) })
	f.wg.Wait()
}

// Self returns this node's canonical name.
func (f *Forwarder) Self() string { return f.self }

// Nodes returns every node name (self included), sorted, from the
// current membership view.
func (f *Forwarder) Nodes() []string {
	v := f.live.Load()
	return append([]string(nil), v.nodes...)
}

// rendezvousScore hashes one (node, key) pair for highest-random-
// weight routing.
func rendezvousScore(node string, keyb []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write(keyb)
	return h.Sum64()
}

// keyBytes is a key's canonical hashing form.
func keyBytes(key uint64) [8]byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	return b
}

// owner maps a cache key to its owning node within one view: every
// node scores the (node, key) pair and the highest score owns the key
// (ties break to the lexicographically smaller name). All nodes
// holding the same view agree on every owner with no coordination, and
// removing a node reassigns only that node's keys.
func (v *view) owner(key uint64) string {
	keyb := keyBytes(key)
	owner, best := "", uint64(0)
	for _, n := range v.nodes {
		if s := rendezvousScore(n, keyb[:]); owner == "" || s > best || (s == best && n < owner) {
			owner, best = n, s
		}
	}
	return owner
}

// ranked returns every node ordered by descending rendezvous score for
// key: ranked[0] is the owner, ranked[1] the node the key would move
// to if the owner left — the hedge path's second choice.
func (v *view) ranked(key uint64) []string {
	keyb := keyBytes(key)
	type scored struct {
		name  string
		score uint64
	}
	ss := make([]scored, len(v.nodes))
	for i, n := range v.nodes {
		ss[i] = scored{n, rendezvousScore(n, keyb[:])}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].name < ss[j].name
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}

// Owner maps a cache key to its owning node by rendezvous (highest
// random weight) hashing over the current membership view.
func (f *Forwarder) Owner(key uint64) string {
	return f.live.Load().owner(key)
}

// log returns the structured logger (nil-safe: a nil Options.Logger
// yields a no-op logger) with the fleet subsystem field bound.
func (f *Forwarder) log() *tlog.Logger {
	return f.opts.Logger
}

// ExecuteSweep implements service.Forwarder: serve the key from its
// owner — hedging to the second-choice rendezvous owner when the owner
// is slow or failing — or degrade, byte-identically, to local compute
// when no remote choice can serve it. A context already cancelled by
// the caller is never blamed on a peer.
//
// The routing decision is observable three ways, all fed here: the
// serves/hedge/replication counters (/metrics), a fleet.*
// span on the submission's trace when ctx carries one, and a
// structured log record for every degraded serve.
func (f *Forwarder) ExecuteSweep(ctx context.Context, key uint64, req service.SweepRequest, local func(context.Context) ([]byte, error)) ([]byte, service.ServeInfo, error) {
	v := f.live.Load()
	ranked := v.ranked(key)
	owner := ranked[0]
	if owner == f.self {
		f.localOwned.Add(1)
		telemetry.Record(ctx, "fleet.local", map[string]string{
			"key": service.FormatKey(key),
		})
		payload, err := local(ctx)
		return payload, service.ServeInfo{ServedBy: f.self}, err
	}
	primary := v.peers[owner]
	// The second choice is the node the key would move to if the owner
	// left the fleet. When that is self, local compute *is* the second
	// choice, and the plain degradation path covers it.
	var second *peer
	if len(ranked) > 2 && ranked[1] != f.self {
		second = v.peers[ranked[1]]
	}

	payload, served, err := f.forward(ctx, key, req, primary, second)
	if err == nil {
		f.forwarded.Add(1)
		info := service.ServeInfo{
			ServedBy: served.name,
			// Admit the verified payload for write-through to this node's
			// durable cache tier while the replication budget lasts, so a
			// later owner loss serves it from local disk (sweep_runs 0).
			Replicated: f.rep.admit(int64(len(payload))),
		}
		telemetry.Record(ctx, "fleet.forward", map[string]string{
			"key": service.FormatKey(key), "owner": owner, "served_by": served.name,
		})
		return payload, info, nil
	}
	if ctx.Err() != nil {
		// The job was cancelled (or the manager is shutting down): not a
		// peer fault, and nothing left to serve.
		return nil, service.ServeInfo{}, ctx.Err()
	}
	reason := "forward_failed"
	if errors.Is(err, errOpenCircuit) {
		reason = "open_circuit"
	}
	f.degraded.Add(1)
	telemetry.Record(ctx, "fleet.degrade", map[string]string{
		"key": service.FormatKey(key), "owner": owner, "reason": reason,
	})
	f.log().WithTrace(ctx).Warn("owner unavailable; serving degraded from local compute",
		tlog.F("subsys", "fleet"), tlog.F("owner", owner), tlog.F("reason", reason),
		tlog.F("key", service.FormatKey(key)), tlog.Err(err))
	payload, lerr := local(ctx)
	return payload, service.ServeInfo{ServedBy: f.self, Degraded: true}, lerr
}

// KeyMismatchError reports an owner that accepted a forwarded request
// under another cache key than the forwarding node computed for it, as
// a peer normalizing requests differently does during a rolling
// upgrade. Its payload answers a request this node never keyed, so the
// forward fails and the serve degrades to local compute.
type KeyMismatchError struct {
	Peer, Want, Got string
}

func (e *KeyMismatchError) Error() string {
	return fmt.Sprintf("fleet: %s keyed the request %s, want %s", e.Peer, e.Got, e.Want)
}

// fetch drives one remote execution of req, whose cache key on this
// node is key: submit, long-poll the status to terminal, fetch the
// verified payload — three round trips when the job finishes within one
// long-poll, and no fixed-interval sleep. Every call runs under the
// hedging deadline; a single failed call fails the fetch — retrying is
// the degradation path's job, not this one's.
func (f *Forwarder) fetch(ctx context.Context, p *peer, key uint64, req service.SweepRequest) ([]byte, error) {
	p.forwards.Add(1)
	// The owner picks its own fleet size; the submitter's parallelism
	// hint is meaningless on another node's hardware.
	req.Workers = 0

	var sub service.SubmitResponse
	err := f.call(ctx, func(cctx context.Context) error {
		var serr error
		sub, serr = p.client.Submit(cctx, req)
		return serr
	})
	if err != nil {
		return nil, fmt.Errorf("submit to %s: %w", p.name, err)
	}
	if want := service.FormatKey(key); sub.Key != want {
		return nil, &KeyMismatchError{Peer: p.name, Want: want, Got: sub.Key}
	}

	// Long-poll rather than stream: the owner answers the moment the
	// job is terminal, yet every round trip still runs under its own
	// deadline — the owner holds for half of it — so a peer that accepts
	// the job and then black-holes is caught within one call instead of
	// holding a stream open forever.
	st, err := p.client.AwaitStatus(ctx, sub.ID, f.opts.ForwardTimeout/2, f.opts.ForwardTimeout)
	if err != nil {
		return nil, fmt.Errorf("status of %s on %s: %w", sub.ID, p.name, err)
	}
	switch st.State {
	case service.StateFailed:
		return nil, fmt.Errorf("%s on %s failed remotely: %s", sub.ID, p.name, st.Error)
	case service.StateCancelled:
		return nil, fmt.Errorf("%s on %s was cancelled remotely", sub.ID, p.name)
	}
	var payload []byte
	err = f.call(ctx, func(cctx context.Context) error {
		var rerr error
		payload, rerr = p.client.Result(cctx, sub.ID)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("result of %s from %s: %w", sub.ID, p.name, err)
	}
	return payload, nil
}

// call runs one HTTP round trip under the hedging deadline.
func (f *Forwarder) call(ctx context.Context, fn func(context.Context) error) error {
	cctx, cancel := context.WithTimeout(ctx, f.opts.ForwardTimeout)
	defer cancel()
	return fn(cctx)
}

// ErrNotPeer is returned by PeerState for unknown node names.
var ErrNotPeer = errors.New("fleet: no such peer")

// PeerState reports a peer's current circuit state (tests, debugging).
func (f *Forwarder) PeerState(name string) (string, error) {
	p, ok := f.live.Load().peers[name]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotPeer, name)
	}
	return p.breaker.State(), nil
}

// RegisterMetrics surfaces the forwarder's routing, hedge, replication
// and peer-health counters in a telemetry registry as sampler-backed
// families over the forwarder's own atomics: /metrics is the one place
// they are read.
func (f *Forwarder) RegisterMetrics(r *telemetry.Registry) {
	r.CounterSampler("hbmvolt_fleet_serves_total",
		"Sweep executions by routing outcome: local (this node owned the key), forwarded (served by a remote peer, hedges included), degraded (no remote choice reachable; computed locally, byte-identical).",
		[]string{"mode"}, func() []telemetry.Sample {
			return []telemetry.Sample{
				{Labels: []string{"degraded"}, Value: float64(f.degraded.Load())},
				{Labels: []string{"forwarded"}, Value: float64(f.forwarded.Load())},
				{Labels: []string{"local"}, Value: float64(f.localOwned.Load())},
			}
		})
	r.GaugeSampler("hbmvolt_fleet_membership_version",
		"Version of the copy-on-write membership view; bumps on every AddPeer/RemovePeer (admin API or -join).",
		nil, func() []telemetry.Sample {
			return []telemetry.Sample{{Value: float64(f.live.Load().version)}}
		})
	r.GaugeSampler("hbmvolt_fleet_nodes",
		"Nodes in the current membership view, self included.",
		nil, func() []telemetry.Sample {
			return []telemetry.Sample{{Value: float64(len(f.live.Load().nodes))}}
		})
	r.CounterSampler("hbmvolt_fleet_hedges_total",
		"Hedged forwards by outcome: win (second-choice owner served), loss (primary served after the hedge launched), failed (both choices failed; serve degraded).",
		[]string{"outcome"}, func() []telemetry.Sample {
			return []telemetry.Sample{
				{Labels: []string{"failed"}, Value: float64(f.hedge.failed.Load())},
				{Labels: []string{"loss"}, Value: float64(f.hedge.losses.Load())},
				{Labels: []string{"win"}, Value: float64(f.hedge.wins.Load())},
			}
		})
	r.CounterSampler("hbmvolt_fleet_replicated_payloads_total",
		"Remote-owner payloads admitted for write-through to the local durable cache tier (hot-payload replication).",
		nil, func() []telemetry.Sample {
			return []telemetry.Sample{{Value: float64(f.rep.payloads.Load())}}
		})
	r.CounterSampler("hbmvolt_fleet_replicated_bytes_total",
		"Bytes of remote-owner payloads admitted for write-through (bounded by the replication byte budget).",
		nil, func() []telemetry.Sample {
			return []telemetry.Sample{{Value: float64(f.rep.bytes.Load())}}
		})
	r.CounterSampler("hbmvolt_fleet_replica_skipped_total",
		"Forwarded payloads not replicated because the byte budget was exhausted (or replication disabled).",
		nil, func() []telemetry.Sample {
			return []telemetry.Sample{{Value: float64(f.rep.skipped.Load())}}
		})
	perPeer := func(get func(*peer) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			v := f.live.Load()
			var out []telemetry.Sample
			for _, n := range v.nodes { // sorted; stable exposition order
				if p, ok := v.peers[n]; ok {
					out = append(out, telemetry.Sample{Labels: []string{p.name}, Value: get(p)})
				}
			}
			return out
		}
	}
	r.CounterSampler("hbmvolt_fleet_peer_forwards_total",
		"Forward attempts per peer.", []string{"peer"},
		perPeer(func(p *peer) float64 { return float64(p.forwards.Load()) }))
	r.CounterSampler("hbmvolt_fleet_peer_forward_failures_total",
		"Forward attempts per peer that failed.", []string{"peer"},
		perPeer(func(p *peer) float64 { return float64(p.forwardFailures.Load()) }))
	r.CounterSampler("hbmvolt_fleet_peer_probes_total",
		"Active /healthz probes per peer.", []string{"peer"},
		perPeer(func(p *peer) float64 { return float64(p.probes.Load()) }))
	r.CounterSampler("hbmvolt_fleet_peer_probe_failures_total",
		"Active /healthz probes per peer that failed.", []string{"peer"},
		perPeer(func(p *peer) float64 { return float64(p.probeFailures.Load()) }))
	r.GaugeSampler("hbmvolt_fleet_peer_circuit_state",
		"Per-peer circuit breaker state: 0 closed, 1 half-open, 2 open.", []string{"peer"},
		perPeer(func(p *peer) float64 {
			switch p.breaker.State() {
			case circuitHalfOpen:
				return 1
			case circuitOpen:
				return 2
			}
			return 0
		}))
}
