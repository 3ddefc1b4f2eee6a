package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hbmvolt/internal/service"
	"hbmvolt/internal/stats"
)

// Hedged forwarding: a forward that is slow past the hedge delay races
// the second-choice rendezvous owner — the node the key would move to
// if the owner left — with the loser cancelled. Tail latency drops to
// the faster of two independent nodes, and a primary that *fails*
// (rather than stalls) fails over to the second choice immediately,
// before the serve ever degrades to local compute. Determinism makes
// this safe: both choices produce byte-identical payloads, so whichever
// answer lands first is the answer.

const (
	// hedgeWindowSize bounds the sliding window of forward latencies
	// the adaptive hedge delay derives from.
	hedgeWindowSize = stats.LatencyWindowSize
	// hedgeDelayFloor is the minimum adaptive hedge delay: below this,
	// racing costs more in duplicate compute than it saves in tail
	// latency.
	hedgeDelayFloor = 50 * time.Millisecond
)

// hedgeState is the forwarder's hedging state: the latency window the
// adaptive delay derives from, plus the outcome counters /metrics
// renders. A launched hedge that runs to an outcome counts in exactly
// one of them; one cut short by its request's cancellation counts in
// none.
type hedgeState struct {
	window               stats.LatencyWindow
	wins, losses, failed atomic.Uint64
}

// hedgeDelay picks how long the primary forward may run before the
// second choice is raced: the configured fixed delay, or the sliding-
// window p95 of observed forward latencies floored at 50ms (falling
// back to the full forward timeout while the window is empty, so a
// cold node does not race every first request).
func (f *Forwarder) hedgeDelay() time.Duration {
	if d := f.opts.HedgeDelay; d != 0 {
		return d
	}
	p95 := f.hedge.window.P95()
	if p95 == 0 {
		return f.opts.ForwardTimeout
	}
	if p95 < hedgeDelayFloor {
		return hedgeDelayFloor
	}
	return p95
}

// errOpenCircuit reports that no remote choice was even attemptable:
// the primary's circuit was open and no usable second choice existed.
var errOpenCircuit = errors.New("fleet: owner circuit open")

// raceResult is one contender's outcome in a hedged forward.
type raceResult struct {
	p       *peer
	payload []byte
	err     error
}

// forward serves req from primary, hedging to second (which may be
// nil) when the primary is slow past the hedge delay or fails outright.
// The losing fetch is cancelled; breaker bookkeeping happens here for
// both contenders. It returns the payload and the peer that produced
// it, or an error once every viable choice failed.
func (f *Forwarder) forward(ctx context.Context, req service.SweepRequest, primary, second *peer) ([]byte, *peer, error) {
	if !primary.breaker.Allow() {
		// The owner's circuit is open: no point waiting a hedge delay.
		// Go straight at the second choice when its breaker admits.
		if second == nil || !second.breaker.Allow() {
			return nil, nil, errOpenCircuit
		}
		start := time.Now()
		payload, err := f.fetch(ctx, second, req)
		if err == nil {
			second.breaker.Success()
			f.hedge.window.Observe(time.Since(start))
			return payload, second, nil
		}
		if ctx.Err() == nil {
			second.forwardFailures.Add(1)
			second.breaker.Failure()
		}
		return nil, nil, err
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser (and any laggard on early return)
	resc := make(chan raceResult, 2)
	start := time.Now()
	run := func(p *peer) {
		payload, err := f.fetch(rctx, p, req)
		resc <- raceResult{p, payload, err}
	}
	go run(primary)
	inflight := 1
	hedged := false

	// launchHedge starts the second-choice fetch at most once, breaker
	// permitting. Hedging disabled (negative delay) still fails over on
	// primary *failure* — the timer path just never fires.
	launchHedge := func() {
		if hedged || second == nil || !second.breaker.Allow() {
			return
		}
		hedged = true
		inflight++
		go run(second)
	}

	var timerC <-chan time.Time
	if second != nil && f.opts.HedgeDelay >= 0 {
		timer := time.NewTimer(f.hedgeDelay())
		defer timer.Stop()
		timerC = timer.C
	}

	var firstErr error
	for inflight > 0 {
		select {
		case <-timerC:
			timerC = nil
			launchHedge()
		case r := <-resc:
			inflight--
			if r.err == nil {
				r.p.breaker.Success()
				f.hedge.window.Observe(time.Since(start))
				if hedged {
					if r.p == second {
						f.hedge.wins.Add(1)
					} else {
						f.hedge.losses.Add(1)
					}
				}
				return r.payload, r.p, nil
			}
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			r.p.forwardFailures.Add(1)
			r.p.breaker.Failure()
			if firstErr == nil {
				firstErr = r.err
			} else {
				firstErr = fmt.Errorf("%v; %w", firstErr, r.err)
			}
			// A failed primary does not wait out the hedge delay: fail
			// over to the second choice immediately.
			timerC = nil
			launchHedge()
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	if hedged {
		f.hedge.failed.Add(1)
	}
	return nil, nil, firstErr
}
