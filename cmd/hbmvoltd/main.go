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
//	GET    /healthz               liveness: {"status":"ok"}, plus
//	                              "draining":true once a drain begins
//	GET    /metrics               every counter (see Observability)
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
//     campaign, and fleet families. It is the node's one statistics
//     surface; fleet membership is GET /v1/fleet/peers.
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
//
// This command only binds flags; the node itself (wiring, defaults,
// drain) is assembled in internal/daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"hbmvolt/internal/daemon"
)

// bindFlags binds hbmvoltd's flags into o, defaulting each to o's
// current value. -peers and -join are comma-separated lists, returned
// as strings for main to split.
func bindFlags(fs *flag.FlagSet, o *daemon.Options) (peers, join *string) {
	fs.StringVar(&o.Addr, "addr", o.Addr, "listen address")
	fs.IntVar(&o.Workers, "workers", o.Workers, "concurrent sweep jobs")
	fs.IntVar(&o.QueueDepth, "queue", o.QueueDepth, "queued-sweep backlog bound (extra submissions get 503)")
	fs.IntVar(&o.CacheEntries, "cache", o.CacheEntries, "result cache entries (memory LRU)")
	fs.StringVar(&o.CacheDir, "cache-dir", o.CacheDir, "durable result-cache directory: computed sweeps survive restarts and crashes (verified on read; empty = memory only)")
	fs.Int64Var(&o.DiskCacheBytes, "cache-disk-bytes", o.DiskCacheBytes, "disk cache payload-byte bound, LRU-evicted (0 = unbounded; needs -cache-dir)")
	fs.IntVar(&o.MaxJobs, "max-jobs", o.MaxJobs, "retained job records (oldest terminal jobs evicted)")
	fs.IntVar(&o.FleetSize, "j", o.FleetSize, "default board-fleet size per sharded sweep (request \"workers\" overrides)")
	fs.Float64Var(&o.RatePerSec, "rate", o.RatePerSec, "per-client submission rate limit in requests/second (0 = off); rejections get 429 with a latency-derived Retry-After")
	fs.IntVar(&o.RateBurst, "burst", o.RateBurst, "per-client token-bucket burst (with -rate)")
	fs.DurationVar(&o.DrainTimeout, "drain-timeout", o.DrainTimeout, "graceful-shutdown budget: in-flight sweeps get this long to finish before being cancelled")
	fs.BoolVar(&o.Pprof, "pprof", o.Pprof, "mount net/http/pprof under /debug/pprof/ (off by default; enables capturing CPU/heap profiles of campaign-scale runs in place)")
	fs.StringVar(&o.LogLevel, "log-level", o.LogLevel, "structured log verbosity: debug, info, warn, or error")

	fs.IntVar(&o.MutexFraction, "mutex-profile-fraction", o.MutexFraction, "with -pprof: sample 1/n of mutex contention events (0 = off)")
	fs.IntVar(&o.BlockRate, "block-profile-rate", o.BlockRate, "with -pprof: sample blocking events lasting >= this many nanoseconds (0 = off)")

	fs.StringVar(&o.Self, "self", o.Self, "fleet mode: this node's advertised base URL, e.g. http://10.0.0.1:8023 (requires -peers or -join)")
	peers = fs.String("peers", "", "fleet mode: comma-separated peer base URLs; every node should get the identical list (own URL included is fine)")
	join = fs.String("join", "", "fleet mode: comma-separated seed URLs to announce this node to at startup via the membership admin API; the seeds' node set is adopted, so a new node needs no -peers and the fleet needs no restarts")
	fs.DurationVar(&o.ForwardTimeout, "forward-timeout", o.ForwardTimeout, "fleet mode: hedging deadline per forwarded HTTP call; an owner slower than this degrades to local compute")
	fs.DurationVar(&o.ProbeInterval, "probe-interval", o.ProbeInterval, "fleet mode: active health-check period per peer, jittered ±10% (0 = passive failure detection only)")
	fs.DurationVar(&o.HedgeDelay, "hedge-delay", o.HedgeDelay, "fleet mode: how long a forward may run before the second-choice owner is raced (0 = adaptive p95 of observed forward latencies, floored at 50ms; negative = never race, fail over only on primary failure)")
	fs.Int64Var(&o.ReplicaBudget, "replica-budget-bytes", o.ReplicaBudget, "fleet mode: byte budget for writing forwarded payloads through to the local durable cache tier, so an owner's death serves its hot keys from local disk (negative = no replication)")
	fs.BoolVar(&o.TrustProxy, "trust-proxy", o.TrustProxy, "trust X-Forwarded-For for per-client admission buckets (only behind a proxy that overwrites it; the header is spoofable otherwise)")
	return peers, join
}

func main() {
	o := daemon.Defaults()
	peers, join := bindFlags(flag.CommandLine, &o)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o.Peers, o.Join = daemon.SplitPeers(*peers), daemon.SplitPeers(*join)
	if err := daemon.Run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "hbmvoltd:", err)
		os.Exit(1)
	}
}
