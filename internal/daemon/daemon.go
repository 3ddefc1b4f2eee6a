// Package daemon assembles one hbmvoltd node: the sweep service, the
// optional fleet forwarder, the telemetry registry they share, the
// HTTP mux, and the drain-on-cancel lifecycle. cmd/hbmvoltd binds its
// flags into Defaults and hands the result to Run; any other caller
// that needs "a node the way the daemon builds it" starts from
// Defaults too, then New and Serve.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"hbmvolt/internal/campaign"
	"hbmvolt/internal/fleet"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry"
	tlog "hbmvolt/internal/telemetry/log"
)

// Options is a node's full configuration. The embedded service.Config
// and fleet.Options are handed to service.Open and fleet.New as they
// are; the fleet is configured when Self is set.
type Options struct {
	service.Config
	fleet.Options

	Addr         string
	DrainTimeout time.Duration
	Pprof        bool

	// LogLevel names the structured-log threshold ("" = info). The
	// profiling rates are applied only when Pprof is on — sampling has a
	// (small) runtime cost, so it rides the same opt-in.
	LogLevel      string
	MutexFraction int
	BlockRate     int

	// Join lists seed nodes to announce Self to at startup instead of
	// (or in addition to) a static Peers list.
	Join []string

	// Logger receives the node's structured JSON records; nil builds a
	// stderr logger at LogLevel in New (tests inject their own).
	Logger *tlog.Logger
}

// Defaults returns the daemon's default configuration: the values
// hbmvoltd's flags default to. Every field not set here means what its
// zero value means to service.Open and fleet.New.
func Defaults() Options {
	return Options{
		Config: service.Config{
			Workers:      2,
			QueueDepth:   16,
			CacheEntries: 256,
			MaxJobs:      1024,
			FleetSize:    runtime.GOMAXPROCS(0),
			RateBurst:    8,
		},
		Options: fleet.Options{
			ForwardTimeout: 2 * time.Second,
			ProbeInterval:  time.Second,
			ReplicaBudget:  1 << 30,
		},
		Addr:          "127.0.0.1:8023",
		DrainTimeout:  30 * time.Second,
		LogLevel:      "info",
		MutexFraction: 5,
		BlockRate:     10000,
	}
}

// SplitPeers parses a comma-separated URL list (the -peers and -join
// flags), dropping empty entries so trailing commas don't become ghost
// peers.
func SplitPeers(raw string) []string {
	var peers []string
	for _, p := range strings.Split(raw, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// validate rejects configurations that would misbehave at runtime
// instead of letting them propagate into confusing failures. The
// messages name hbmvoltd's flags.
func (o Options) validate() error {
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
	if o.DrainTimeout <= 0 {
		return errors.New("-drain-timeout must be > 0")
	}
	if o.LogLevel != "" {
		if _, err := tlog.ParseLevel(o.LogLevel); err != nil {
			return fmt.Errorf("-log-level: %w", err)
		}
	}
	if o.MutexFraction < 0 {
		return errors.New("-mutex-profile-fraction must be >= 0")
	}
	if o.BlockRate < 0 {
		return errors.New("-block-profile-rate must be >= 0")
	}
	if len(o.Peers) > 0 && o.Self == "" {
		return errors.New("-peers needs -self (peers must know this node by one agreed URL)")
	}
	if len(o.Join) > 0 && o.Self == "" {
		return errors.New("-join needs -self (seeds must learn this node by one agreed URL)")
	}
	if o.Self != "" {
		if len(o.Peers) == 0 && len(o.Join) == 0 {
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

// Daemon is a constructed-but-not-yet-serving node.
type Daemon struct {
	opts Options
	log  *tlog.Logger
	srv  *service.Server
	fwd  *fleet.Forwarder // nil when standalone
	http *http.Server
}

// New validates o and builds the service (opening the durable cache
// tier, which runs its recovery scan here), the fleet forwarder when
// peer mode is configured, the shared telemetry registry every
// subsystem reports into, and the HTTP stack.
func New(o Options) (*Daemon, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Logger == nil {
		level := tlog.LevelInfo
		if o.LogLevel != "" {
			level, _ = tlog.ParseLevel(o.LogLevel) // validate() already vetted it
		}
		o.Logger = tlog.New(os.Stderr, level)
	}
	// One registry serves /metrics: the manager, the campaign engine
	// (via the manager), and the fleet forwarder all report into it.
	reg := telemetry.NewRegistry()
	var fwd *fleet.Forwarder
	if o.Self != "" {
		o.Options.Logger = o.Logger
		var err error
		if fwd, err = fleet.New(o.Options); err != nil {
			return nil, err
		}
		fwd.RegisterMetrics(reg)
		o.Logger.Info("fleet mode", tlog.F("self", fwd.Self()), tlog.F("nodes", len(fwd.Nodes())))
	}
	cfg := o.Config
	cfg.Forwarder = forwarderOrNil(fwd)
	cfg.Metrics = reg
	cfg.Logger = o.Logger
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
	// mux explicitly (never on http.DefaultServeMux), so without Pprof
	// nothing introspectable is exposed. Mutex/block sampling rides the
	// same opt-in: the profiles are only reachable through these routes,
	// and sampling costs (a little) at runtime.
	if o.Pprof {
		runtime.SetMutexProfileFraction(o.MutexFraction)
		runtime.SetBlockProfileRate(o.BlockRate)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	return &Daemon{
		opts: o,
		log:  o.Logger.With(tlog.F("subsys", "daemon")),
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

// Server returns the node's sweep service; its metrics registry is
// Server().Manager().Metrics().
func (d *Daemon) Server() *service.Server { return d.srv }

// Forwarder returns the node's fleet forwarder, nil when standalone.
func (d *Daemon) Forwarder() *fleet.Forwarder { return d.fwd }

// Close releases everything New opened: the manager (which flushes the
// cache tiers) and the fleet prober. It is idempotent, and Serve calls
// it on return, so only a Daemon that is never served needs it.
func (d *Daemon) Close() {
	d.srv.Close()
	if d.fwd != nil {
		d.fwd.Close()
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains
// gracefully: stop accepting, refuse new submissions, let in-flight
// sweeps finish within the drain budget, flush the durable cache tier,
// return. ln is closed by the time Serve returns.
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	o := d.opts
	errc := make(chan error, 1)
	go func() {
		d.log.Info("listening",
			tlog.F("addr", ln.Addr().String()), tlog.F("workers", o.Workers),
			tlog.F("queue", o.QueueDepth), tlog.F("cache", o.CacheEntries),
			tlog.F("fleet", o.FleetSize), tlog.F("cache_dir", o.CacheDir))
		errc <- d.http.Serve(ln)
	}()
	if d.fwd != nil && len(o.Join) > 0 {
		// Announce after the listener is up so seeds that immediately
		// probe us find a live /healthz.
		go d.joinFleet(ctx)
	}

	select {
	case err := <-errc:
		d.Close()
		return err
	case <-ctx.Done():
	}

	d.log.Info("draining: refusing new work, waiting for in-flight sweeps",
		tlog.F("budget", o.DrainTimeout.String()))
	drainCtx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
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
	// tiers; Close here idempotently covers the forwarder too.
	d.Close()

	if drainErr != nil {
		return fmt.Errorf("drain cut short after %v: %w (remaining sweeps cancelled)", o.DrainTimeout, drainErr)
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	d.log.Info("drained cleanly")
	return nil
}

// joinFleet announces this node to its Join seeds via the membership
// admin API, adopting the seeds' node set from the responses. Seeds
// may still be booting (a whole fleet often starts at once), so
// announcements retry every 500ms for up to 30s before the node
// settles for whatever Peers gave it.
func (d *Daemon) joinFleet(ctx context.Context) {
	jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		n, err := d.fwd.Join(jctx, d.opts.Join)
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

// Run is a node's whole lifecycle: validate, open, listen on Addr,
// serve until ctx says stop, drain.
func Run(ctx context.Context, o Options) error {
	d, err := New(o)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		d.Close()
		return err
	}
	return d.Serve(ctx, ln)
}
