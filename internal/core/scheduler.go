package core

// Parallelism for Algorithm 1 sweeps.
//
// A reliability sweep is embarrassingly parallel across voltage points:
// every random draw underneath (cell critical voltages, metastability
// jitter, sparse row realizations, aggregate count draws) is a pure
// function of (seed, PC, address, rep, voltage), never of evaluation
// order. RunReliability exploits that: with cfg.Workers > 1 it
// distributes the grid points over a bounded pool of goroutines that
// all read cfg.Faults, so a full-grid sweep scales with cores instead
// of pinning one; one worker is the sequential sweep. Because the draws
// are keyed rather than streamed, the output is bit-identical at any
// worker count — the determinism tests pin this across worker counts
// and patterns.

import (
	"context"
	"sync"
)

// SweepProgress reports one completed voltage point of a running sweep.
// The JSON field names are the wire format of the sweep service's event
// stream (internal/service), so they are part of the API surface.
type SweepProgress struct {
	// Done is the number of completed points so far (monotone, 1-based);
	// Total is the grid size. Both are omitted from JSON when zero, so
	// terminal service events carry no vestigial counters.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Volts is the completed point's voltage; under a sharded sweep
	// points complete out of grid order.
	Volts float64 `json:"volts,omitempty"`
	// Crashed marks a point below V_critical.
	Crashed bool `json:"crashed,omitempty"`
	// MeanFlips is the point's batch-mean flip count over all ports and
	// patterns. Zero for power-sweep progress.
	MeanFlips float64 `json:"mean_flips,omitempty"`
	// Watts is the measured rail power of a completed power-sweep point.
	// Zero for reliability-sweep progress.
	Watts float64 `json:"watts,omitempty"`
}

// ProgressFunc receives sweep progress. Calls are serialized, so a slow
// callback holds up the sweep's workers.
type ProgressFunc func(SweepProgress)

// progressTracker serializes completion callbacks and owns the monotone
// Done counter.
type progressTracker struct {
	mu    sync.Mutex
	done  int
	total int
	fn    ProgressFunc
}

func (p *progressTracker) completed(pt VoltagePoint) {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.fn(SweepProgress{
		Done:      p.done,
		Total:     p.total,
		Volts:     pt.Volts,
		Crashed:   pt.Crashed,
		MeanFlips: pt.MeanFlips,
	})
}

// runSharded evaluates the grid on workers goroutines. Grid indices
// flow through an unbuffered channel so a cancelled context stops
// dispatch immediately; each worker writes results into its grid slot,
// and the first error cancels the rest of the sweep. The ports of a
// point run in order. rails holds each grid point's rail voltage.
func runSharded(ctx context.Context, cfg *ReliabilityConfig, rails []float64, res *ReliabilityResult, prog *progressTracker, workers int) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(werr error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = werr
		}
		errMu.Unlock()
		cancel()
	}

	tasks := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				pt, perr := runVoltagePoint(ctx, cfg, cfg.Grid[i], rails[i])
				if perr != nil {
					fail(perr)
					return
				}
				res.Points[i] = pt
				prog.completed(pt)
			}
		}()
	}

feed:
	for i := range cfg.Grid {
		select {
		case tasks <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(tasks)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
