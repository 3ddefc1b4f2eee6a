// Command hbmvoltd serves Algorithm 1 reliability sweeps and Fig. 2/3
// power sweeps over HTTP — the sweep-as-a-service daemon on top of the
// board-fleet scheduler.
//
// Usage:
//
//	hbmvoltd [flags]
//
// API (JSON over HTTP; see internal/service):
//
//	POST   /v1/sweeps             submit {"kind":"reliability"|"power", ...}
//	GET    /v1/sweeps/{id}        status + result
//	GET    /v1/sweeps/{id}/result raw result payload (byte-stable)
//	GET    /v1/sweeps/{id}/events NDJSON progress stream
//	DELETE /v1/sweeps/{id}        cancel
//	GET    /healthz               liveness + statistics
//
// Campaign routes (see internal/campaign) fan declarative multi-
// scenario experiment specs into the same job manager:
//
//	POST   /v1/campaigns          submit a spec or {"builtin":"paper-repro"}
//	GET    /v1/campaigns          list campaign runs
//	GET    /v1/campaigns/{id}     status (+ manifest when done)
//	DELETE /v1/campaigns/{id}     cancel remaining cells
//
// Fleet mode (see README "Fleet" and internal/fleet): -self + -peers
// (or -self + -join against live seeds) join N daemons into one
// logical cache. Each sweep's cache key is rendezvous-hashed to
// exactly one owner node; non-owners forward and the fleet computes
// each unique sweep once. Membership is dynamic: nodes join and leave
// at runtime through the admin API (POST/DELETE /v1/fleet/peers)
// behind a versioned copy-on-write view, moving only ~1/N of keys per
// change. A slow owner is raced against the second-choice owner after
// the -hedge-delay; a dead, slow, or partitioned owner degrades to
// local compute — byte-identical by the determinism contract — gated
// by a per-peer circuit breaker fed by an active health prober
// (-probe-interval) and forward failures, with every call under the
// -forward-timeout deadline. Successfully forwarded payloads are
// written through to the local durable tier within
// -replica-budget-bytes, so an owner's death serves its hot keys from
// local disk instead of recomputing.
//
// Resilience (see README "Resilience"):
//
//   - -cache-dir backs the result cache with a durable disk tier:
//     computed sweeps survive a crash or restart and are served
//     byte-identically (after checksum verification) instead of being
//     recomputed.
//   - -rate/-burst enable per-client token-bucket admission control;
//     rejections carry a Retry-After derived from observed job latency,
//     as do queue-full 503s.
//   - On SIGINT/SIGTERM the daemon drains gracefully: it stops
//     accepting connections, refuses new submissions with 503, lets
//     in-flight sweeps finish for up to -drain-timeout, flushes the
//     disk tier, and exits.
//
// Observability (see README "Observability"):
//
//   - GET /metrics serves the telemetry registry in Prometheus text
//     exposition format: job, cache-tier, enum-store, admission,
//     campaign, and fleet families. /healthz statistics are views over
//     the same registry, so the two surfaces cannot drift.
//   - Every submission gets a trace ID — minted at this edge or adopted
//     from an X-Hbmvolt-Trace-Id request header — that follows the job
//     through coalescing, cache lookups, enum-store singleflight, and
//     fleet forwards; GET /v1/traces/{id} returns the recorded spans.
//   - Logs are structured JSON records (one per line, leveled via
//     -log-level) carrying the trace ID wherever one is in scope.
//
// With -pprof, net/http/pprof is mounted under /debug/pprof/ so
// campaign-scale CPU and heap profiles can be captured in place:
//
//	go tool pprof http://127.0.0.1:8023/debug/pprof/profile?seconds=30
//
// -pprof also arms mutex and block profiling (tunable via
// -mutex-profile-fraction and -block-profile-rate) so contention on the
// job queue and cache tiers is attributable; sweep execution paths are
// labeled (hbmvolt_kind, hbmvolt_mode, ...) for profile filtering.
//
// Identical requests — concurrent or repeated, standalone or inside a
// campaign — coalesce into a single computation and return
// bit-identical payloads; see the cache-key and determinism contract in
// internal/service.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hbmvolt/internal/campaign"
	"hbmvolt/internal/fleet"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
	tlog "hbmvolt/internal/telemetry/log"
)

// opts receives the flag values: most bind straight into the embedded
// service and fleet configs. -peers and -join are comma-separated
// lists, split in main.
var (
	opts      options
	flagPeers = flag.String("peers", "", "fleet mode: comma-separated peer base URLs; every node should get the identical list (own URL included is fine)")
	flagJoin  = flag.String("join", "", "fleet mode: comma-separated seed URLs to announce this node to at startup via the membership admin API; the seeds' node set is adopted, so a new node needs no -peers and the fleet needs no restarts")
)

func init() {
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:8023", "listen address")
	flag.IntVar(&opts.Workers, "workers", 2, "concurrent sweep jobs")
	flag.IntVar(&opts.QueueDepth, "queue", 16, "queued-sweep backlog bound (extra submissions get 503)")
	flag.IntVar(&opts.CacheEntries, "cache", 256, "result cache entries (memory LRU)")
	flag.StringVar(&opts.CacheDir, "cache-dir", "", "durable result-cache directory: computed sweeps survive restarts and crashes (verified on read; empty = memory only)")
	flag.Int64Var(&opts.DiskCacheBytes, "cache-disk-bytes", 0, "disk cache payload-byte bound, LRU-evicted (0 = unbounded; needs -cache-dir)")
	flag.IntVar(&opts.MaxJobs, "max-jobs", 1024, "retained job records (oldest terminal jobs evicted)")
	flag.IntVar(&opts.FleetSize, "j", runtime.GOMAXPROCS(0), "default board-fleet size per sharded sweep (request \"workers\" overrides)")
	flag.Float64Var(&opts.RatePerSec, "rate", 0, "per-client submission rate limit in requests/second (0 = off); rejections get 429 with a latency-derived Retry-After")
	flag.IntVar(&opts.RateBurst, "burst", 8, "per-client token-bucket burst (with -rate)")
	flag.DurationVar(&opts.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget: in-flight sweeps get this long to finish before being cancelled")
	flag.BoolVar(&opts.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; enables capturing CPU/heap profiles of campaign-scale runs in place)")
	flag.StringVar(&opts.logLevel, "log-level", "info", "structured log verbosity: debug, info, warn, or error")

	flag.IntVar(&opts.mutexFraction, "mutex-profile-fraction", 5, "with -pprof: sample 1/n of mutex contention events (0 = off)")
	flag.IntVar(&opts.blockRate, "block-profile-rate", 10000, "with -pprof: sample blocking events lasting >= this many nanoseconds (0 = off)")

	flag.StringVar(&opts.Self, "self", "", "fleet mode: this node's advertised base URL, e.g. http://10.0.0.1:8023 (requires -peers or -join)")
	flag.DurationVar(&opts.ForwardTimeout, "forward-timeout", 2*time.Second, "fleet mode: hedging deadline per forwarded HTTP call; an owner slower than this degrades to local compute")
	flag.DurationVar(&opts.ProbeInterval, "probe-interval", time.Second, "fleet mode: active health-check period per peer, jittered ±10% (0 = passive failure detection only)")
	flag.DurationVar(&opts.HedgeDelay, "hedge-delay", 0, "fleet mode: how long a forward may run before the second-choice owner is raced (0 = adaptive p95 of observed forward latencies, floored at 50ms; negative = never race, fail over only on primary failure)")
	flag.Int64Var(&opts.ReplicaBudget, "replica-budget-bytes", 1<<30, "fleet mode: byte budget for writing forwarded payloads through to the local durable cache tier, so an owner's death serves its hot keys from local disk (negative = no replication)")
	flag.BoolVar(&opts.TrustProxy, "trust-proxy", false, "trust X-Forwarded-For for per-client admission buckets (only behind a proxy that overwrites it; the header is spoofable otherwise)")
}

// options is the daemon's full configuration, decoupled from the flag
// set so tests can construct and validate it directly. The embedded
// service.Config and fleet.Options are handed to service.Open and
// fleet.New as they are; the fleet is configured when Self is set.
type options struct {
	service.Config
	fleet.Options

	addr         string
	drainTimeout time.Duration
	pprof        bool

	// logLevel names the structured-log threshold ("" = info). The
	// profiling rates are applied only when pprof is on — sampling has a
	// (small) runtime cost, so it rides the same opt-in.
	logLevel      string
	mutexFraction int
	blockRate     int

	// join lists seed nodes to announce Self to at startup instead of
	// (or in addition to) a static Peers list.
	join []string

	// logger receives the daemon's structured JSON records; nil builds a
	// stderr logger at logLevel in newDaemon (tests inject their own).
	logger *tlog.Logger
}

// splitPeers parses the -peers flag: comma-separated URLs, empty
// entries dropped so trailing commas don't become ghost peers.
func splitPeers(raw string) []string {
	var peers []string
	for _, p := range strings.Split(raw, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// validate rejects configurations that would misbehave at runtime
// instead of letting them propagate into confusing failures.
func (o options) validate() error {
	if o.Workers < 1 || o.QueueDepth < 1 || o.CacheEntries < 1 || o.MaxJobs < 1 || o.FleetSize < 1 {
		return errors.New("-workers, -queue, -cache, -max-jobs and -j must all be >= 1")
	}
	if o.RatePerSec < 0 {
		return errors.New("-rate must be >= 0")
	}
	if o.RatePerSec > 0 && o.RateBurst < 1 {
		return errors.New("-burst must be >= 1 when -rate is set")
	}
	if o.DiskCacheBytes < 0 {
		return errors.New("-cache-disk-bytes must be >= 0")
	}
	if o.DiskCacheBytes > 0 && o.CacheDir == "" {
		return errors.New("-cache-disk-bytes needs -cache-dir")
	}
	if o.drainTimeout <= 0 {
		return errors.New("-drain-timeout must be > 0")
	}
	if o.logLevel != "" {
		if _, err := tlog.ParseLevel(o.logLevel); err != nil {
			return fmt.Errorf("-log-level: %w", err)
		}
	}
	if o.mutexFraction < 0 {
		return errors.New("-mutex-profile-fraction must be >= 0")
	}
	if o.blockRate < 0 {
		return errors.New("-block-profile-rate must be >= 0")
	}
	if len(o.Peers) > 0 && o.Self == "" {
		return errors.New("-peers needs -self (peers must know this node by one agreed URL)")
	}
	if len(o.join) > 0 && o.Self == "" {
		return errors.New("-join needs -self (seeds must learn this node by one agreed URL)")
	}
	if o.Self != "" {
		if len(o.Peers) == 0 && len(o.join) == 0 {
			return errors.New("-self needs -peers or -join (a fleet of one is just a daemon)")
		}
		if o.ForwardTimeout <= 0 {
			return errors.New("-forward-timeout must be > 0")
		}
		if o.ProbeInterval < 0 {
			return errors.New("-probe-interval must be >= 0")
		}
	}
	return nil
}

// daemon is a constructed-but-not-yet-serving hbmvoltd instance.
type daemon struct {
	opts options
	log  *tlog.Logger
	srv  *service.Server
	fwd  *fleet.Forwarder // nil when standalone
	http *http.Server
}

// newDaemon builds the service (opening the durable cache tier, which
// runs its recovery scan here), the fleet forwarder when peer mode is
// configured, the shared telemetry registry every subsystem reports
// into, and the HTTP stack.
func newDaemon(o options) (*daemon, error) {
	if o.logger == nil {
		level := tlog.LevelInfo
		if o.logLevel != "" {
			level, _ = tlog.ParseLevel(o.logLevel) // validate() already vetted it
		}
		o.logger = tlog.New(os.Stderr, level)
	}
	// One registry serves /metrics and backs /healthz: the manager, the
	// campaign engine (via the manager), and the fleet forwarder all
	// report into it, so the two surfaces cannot drift.
	reg := telemetry.NewRegistry()
	var fwd *fleet.Forwarder
	if o.Self != "" {
		o.Options.Logger = o.logger
		var err error
		if fwd, err = fleet.New(o.Options); err != nil {
			return nil, err
		}
		fwd.RegisterMetrics(reg)
		o.logger.Info("fleet mode", tlog.F("self", fwd.Self()), tlog.F("nodes", len(fwd.Nodes())))
	}
	cfg := o.Config
	cfg.Forwarder = forwarderOrNil(fwd)
	cfg.Metrics = reg
	cfg.Logger = o.logger
	srv, err := service.Open(cfg)
	if err != nil {
		if fwd != nil {
			fwd.Close()
		}
		return nil, err
	}

	// Campaign routes share the sweep manager: campaign cells and ad-hoc
	// sweeps coalesce in one queue and result cache.
	mux := http.NewServeMux()
	campaign.NewAPI(srv.Manager()).Register(mux)
	// In fleet mode the membership admin API (join/leave at runtime)
	// rides the same listener as the sweep API.
	if fwd != nil {
		mux.Handle("/v1/fleet/peers", fwd.AdminHandler())
	}
	mux.Handle("/", srv)

	// Profiling routes are opt-in: the handlers are registered on this
	// mux explicitly (never on http.DefaultServeMux), so without -pprof
	// nothing introspectable is exposed. Mutex/block sampling rides the
	// same opt-in: the profiles are only reachable through these routes,
	// and sampling costs (a little) at runtime.
	if o.pprof {
		runtime.SetMutexProfileFraction(o.mutexFraction)
		runtime.SetBlockProfileRate(o.blockRate)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	return &daemon{
		opts: o,
		log:  o.logger.With(tlog.F("subsys", "daemon")),
		srv:  srv,
		fwd:  fwd,
		http: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
		},
	}, nil
}

// forwarderOrNil converts the optional forwarder for Config without
// turning a nil *fleet.Forwarder into a non-nil interface value.
func forwarderOrNil(f *fleet.Forwarder) service.Forwarder {
	if f == nil {
		return nil
	}
	return f
}

// close releases everything newDaemon opened: the manager (which
// flushes the cache tiers) and the fleet prober.
func (d *daemon) close() {
	d.srv.Close()
	if d.fwd != nil {
		d.fwd.Close()
	}
}

// serve accepts connections on ln until ctx is cancelled, then drains
// gracefully: stop accepting, refuse new submissions, let in-flight
// sweeps finish within the drain budget, flush the durable cache tier,
// return. ln is closed by the time serve returns.
func (d *daemon) serve(ctx context.Context, ln net.Listener) error {
	o := d.opts
	errc := make(chan error, 1)
	go func() {
		d.log.Info("listening",
			tlog.F("addr", ln.Addr().String()), tlog.F("workers", o.Workers),
			tlog.F("queue", o.QueueDepth), tlog.F("cache", o.CacheEntries),
			tlog.F("fleet", o.FleetSize), tlog.F("cache_dir", o.CacheDir))
		errc <- d.http.Serve(ln)
	}()
	if d.fwd != nil && len(o.join) > 0 {
		// Announce after the listener is up so seeds that immediately
		// probe us find a live /healthz.
		go d.joinFleet(ctx)
	}

	select {
	case err := <-errc:
		d.close()
		return err
	case <-ctx.Done():
	}

	d.log.Info("draining: refusing new work, waiting for in-flight sweeps",
		tlog.F("budget", o.drainTimeout.String()))
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()

	// Drain the job manager and the HTTP server concurrently: the
	// manager immediately starts refusing submissions (503 + Retry-After)
	// and waits for running sweeps, while Shutdown stops accepting
	// connections and waits for in-flight handlers — including NDJSON
	// event streams, which end when their jobs reach a terminal state.
	// Sequencing these would deadlock the stream case.
	drained := make(chan error, 1)
	go func() { drained <- d.srv.Manager().Drain(drainCtx) }()
	shutdownErr := d.http.Shutdown(drainCtx)
	drainErr := <-drained
	// Drain closed the manager, which flushed and closed the cache
	// tiers; close here idempotently covers the forwarder too.
	d.close()

	if drainErr != nil {
		return fmt.Errorf("drain cut short after %v: %w (remaining sweeps cancelled)", o.drainTimeout, drainErr)
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	d.log.Info("drained cleanly")
	return nil
}

// joinFleet announces this node to its -join seeds via the membership
// admin API, adopting the seeds' node set from the responses. Seeds
// may still be booting (a whole fleet often starts at once), so
// announcements retry every 500ms for up to 30s before the daemon
// settles for whatever -peers gave it.
func (d *daemon) joinFleet(ctx context.Context) {
	jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		n, err := d.fwd.Join(jctx, d.opts.join)
		if err == nil {
			d.log.Info("joined fleet",
				tlog.F("seeds", n), tlog.F("nodes", len(d.fwd.Nodes())),
				tlog.F("membership_version", d.fwd.MembershipVersion()))
			return
		}
		select {
		case <-jctx.Done():
			d.log.Warn("fleet join gave up", tlog.Err(err))
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// run is the daemon's whole lifecycle: validate, open, listen, serve
// until ctx says stop, drain.
func run(ctx context.Context, o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	d, err := newDaemon(o)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		d.close()
		return err
	}
	return d.serve(ctx, ln)
}

func main() {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Peers, opts.join = splitPeers(*flagPeers), splitPeers(*flagJoin)
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "hbmvoltd:", err)
		os.Exit(1)
	}
}
