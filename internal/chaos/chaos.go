// Package chaos is the repository's fault-injection harness: named
// injection sites compiled into production code paths as no-ops, armed
// only by tests. It exists so the resilience layer — the disk cache
// tier, the NDJSON event stream, the fleet transport — can be tested
// against the failures it claims to survive (I/O errors, latency
// spikes, torn writes, dropped streams, crashes mid-campaign) without
// bespoke test seams at every site.
//
// Contract:
//
//   - Production code calls Inject(site) (or Wrap) at the points where
//     the outside world can fail. With no plan armed this is a single
//     atomic load returning nil — safe to leave in hot-ish paths.
//   - Tests arm a Plan mapping sites to faults: an error to return, a
//     delay to impose, a callback to run (e.g. panic, to simulate a
//     crash), and a trigger window (After / Count) selecting which
//     passes through the site fire.
//   - Nothing under cmd/ or any non-test file ever arms a plan, so
//     released binaries cannot be steered into injected failures.
//
// Sites are plain strings owned by the package that calls Inject;
// the convention is "<package>.<operation>", e.g. "disktier.write".
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what happens when an armed site triggers.
type Fault struct {
	// Err is returned from Inject when the fault fires (error
	// injection). A firing fault with a nil Err still runs Sleep and
	// Callback — latency or crash injection without an error result.
	Err error
	// Sleep delays the caller before Inject returns (latency injection).
	Sleep time.Duration
	// Callback runs when the fault fires, before Inject returns — panic
	// in it to simulate a crash at the site.
	Callback func()
	// After skips the first After passes through the site before firing.
	After int
	// Count limits how many times the fault fires; 0 means every pass
	// once past After.
	Count int
	// HTTP selects a transport-level failure mode when the site guards
	// an HTTP round trip through a chaos.Transport (see transport.go):
	// connection refused, black hole, slow link, or a response body
	// severed mid-read. Ignored by plain Inject.
	HTTP HTTPMode
	// DropAfter is how many response-body bytes HTTPDropBody lets
	// through before severing the connection (0 = drop immediately).
	DropAfter int
}

// Plan is a set of armed faults keyed by site name. Arm it with
// Activate; a nil or unarmed plan injects nothing.
type Plan struct {
	mu     sync.Mutex
	faults map[string]*armedFault
}

type armedFault struct {
	fault Fault
	seen  int // passes observed
	fired int // times fired
}

// NewPlan builds an empty plan.
func NewPlan() *Plan {
	return &Plan{faults: make(map[string]*armedFault)}
}

// Set arms (or replaces) the fault for a site and returns the plan for
// chaining.
func (p *Plan) Set(site string, f Fault) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[site] = &armedFault{fault: f}
	return p
}

// Fired reports how many times the site's fault has fired.
func (p *Plan) Fired(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.faults[site]; ok {
		return a.fired
	}
	return 0
}

// Seen reports how many passes the site has observed (fired or not).
func (p *Plan) Seen(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.faults[site]; ok {
		return a.seen
	}
	return 0
}

// trigger decides whether the site fires on this pass and snapshots the
// fault if so.
func (p *Plan) trigger(site string) (Fault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.faults[site]
	if !ok {
		return Fault{}, false
	}
	pass := a.seen
	a.seen++
	if pass < a.fault.After {
		return Fault{}, false
	}
	if a.fault.Count > 0 && a.fired >= a.fault.Count {
		return Fault{}, false
	}
	a.fired++
	return a.fault, true
}

// active is the process-wide armed plan (nil = chaos disabled).
var active atomic.Pointer[Plan]

// Activate arms plan process-wide and returns a function restoring the
// previous plan. Tests must call the restore function (defer it); plans
// do not stack — the latest Activate wins until restored.
func Activate(plan *Plan) (restore func()) {
	prev := active.Swap(plan)
	return func() { active.Store(prev) }
}

// Enabled reports whether any plan is armed (tests and assertions; not
// needed before Inject, which is already a no-op when disarmed).
func Enabled() bool { return active.Load() != nil }

// Inject is the production-side hook: it returns nil immediately unless
// a plan arms this site and the fault's trigger window covers this
// pass, in which case it sleeps, runs the callback, and returns the
// fault's error.
func Inject(site string) error {
	plan := active.Load()
	if plan == nil {
		return nil
	}
	f, fire := plan.trigger(site)
	if !fire {
		return nil
	}
	if f.Sleep > 0 {
		time.Sleep(f.Sleep)
	}
	if f.Callback != nil {
		f.Callback()
	}
	return f.Err
}

// Wrap decorates an operation's error with an injected one: the
// injected fault wins, otherwise the real error passes through.
// Convenient at sites shaped like `return chaos.Wrap(site, f())`.
func Wrap(site string, err error) error {
	if ierr := Inject(site); ierr != nil {
		return fmt.Errorf("%s: %w", site, ierr)
	}
	return err
}
