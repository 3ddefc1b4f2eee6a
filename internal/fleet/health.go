package fleet

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	tlog "hbmvolt/internal/telemetry/log"
)

// breaker is one peer's circuit breaker. It is fed from two sides —
// the active health prober and passive forward outcomes — and answers
// one question: is this peer worth an attempt right now?
//
// States:
//
//   - closed: healthy; every forward may try the peer.
//   - open: the peer accumulated FailureThreshold consecutive failures
//     (or failed its half-open trial); forwards skip straight to local
//     compute until Cooldown elapses. Probes keep running regardless —
//     a successful probe closes the circuit immediately, so recovery
//     does not wait out the cooldown.
//   - half-open: the cooldown elapsed; exactly one trial request is
//     admitted. Its success closes the circuit, its failure re-opens
//     (and restarts the cooldown).
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	// now is the clock, injectable in tests.
	now func() time.Time

	state       string // "closed" | "open" | "half-open"
	consecutive int
	openedAt    time.Time
}

const (
	circuitClosed   = "closed"
	circuitOpen     = "open"
	circuitHalfOpen = "half-open"
)

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		state:     circuitClosed,
	}
}

// Allow reports whether a forward may try the peer, transitioning
// open → half-open once the cooldown has elapsed (the caller then runs
// the single trial).
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case circuitClosed:
		return true
	case circuitOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = circuitHalfOpen
			return true
		}
		return false
	default: // half-open: a trial is already in flight
		return false
	}
}

// Success records a healthy interaction, closing the circuit. It
// reports whether this call performed the open/half-open → closed
// recovery transition (so the caller can log it once).
func (b *breaker) Success() (recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered = b.state != circuitClosed
	b.state = circuitClosed
	b.consecutive = 0
	return recovered
}

// Failure records a failed interaction. The circuit opens when the
// consecutive-failure streak reaches the threshold, or immediately if
// a half-open trial failed. It reports whether this call opened a
// previously non-open circuit.
func (b *breaker) Failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == circuitHalfOpen || (b.state == circuitClosed && b.consecutive >= b.threshold) {
		b.state = circuitOpen
		b.openedAt = b.now()
		return true
	}
	return false
}

// State returns the current circuit state.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// jitterInterval maps u ∈ [0,1) onto [0.9d, 1.1d): the ±10% spread
// that keeps N daemons started together from probing in lockstep and
// synchronizing their circuit-breaker transitions.
func jitterInterval(d time.Duration, u float64) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*u))
}

// probeLoop is the active health checker: every ProbeInterval
// (jittered ±10% per tick) each peer in the current membership view is
// probed concurrently (one black-holed peer must not delay the
// others' probes) and the outcome feeds its breaker. Peers added at
// runtime are picked up on the next tick.
func (f *Forwarder) probeLoop() {
	defer f.wg.Done()
	timer := time.NewTimer(jitterInterval(f.opts.ProbeInterval, rand.Float64()))
	defer timer.Stop()
	for {
		select {
		case <-f.stopc:
			return
		case <-timer.C:
		}
		var wg sync.WaitGroup
		for _, p := range f.live.Load().peers {
			wg.Add(1)
			go func(p *peer) {
				defer wg.Done()
				f.probe(p)
			}(p)
		}
		wg.Wait()
		timer.Reset(jitterInterval(f.opts.ProbeInterval, rand.Float64()))
	}
}

// probe checks one peer's liveness. A success closes the peer's
// circuit (recovery); a failure counts toward opening it.
func (f *Forwarder) probe(p *peer) {
	p.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.ProbeTimeout)
	defer cancel()
	if _, err := p.client.Health(ctx); err != nil {
		p.probeFailures.Add(1)
		if p.breaker.Failure() {
			f.log().Warn("peer unhealthy; circuit open",
				tlog.F("subsys", "fleet"), tlog.F("peer", p.name), tlog.Err(err))
		}
		return
	}
	if p.breaker.Success() {
		f.log().Info("peer recovered; circuit closed",
			tlog.F("subsys", "fleet"), tlog.F("peer", p.name))
	}
}
