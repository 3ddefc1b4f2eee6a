// Package service exposes the repository's Algorithm 1 sweeps as a
// long-lived HTTP service — sweep-as-a-service over the board-fleet
// scheduler (internal/core) instead of one-shot CLI runs.
//
// The API is JSON over HTTP:
//
//	POST   /v1/sweeps             submit a sweep (reliability | power |
//	                              faultmap | ecc-study)
//	GET    /v1/sweeps/{id}        job status (+ result when done)
//	GET    /v1/sweeps/{id}/result raw result payload, byte-stable
//	GET    /v1/sweeps/{id}/events NDJSON stream of SweepProgress events
//	DELETE /v1/sweeps/{id}        cancel (context cancellation mid-sweep)
//	GET    /healthz               liveness ({"status":"ok"})
//	GET    /metrics               every counter, Prometheus text format
//
// Determinism is the service's core contract, inherited from the
// simulation underneath: a sweep's outcome is a pure function of the
// normalized request (every random draw is keyed on the device seed,
// address, repetition and voltage — never on evaluation order, wall
// clock, or worker count). That purity is what makes results cacheable
// at all. Each submitted request is normalized (defaults filled) and
// condensed into a cache key — the fault-model config fingerprint
// (seed × geometry × temperature × per-PC profiles, see
// faults.Config.Fingerprint) hashed together with the voltage grid,
// pattern set, port set, batch size, sampling mode and sweep kind.
// Identical requests, whether concurrent or repeated, coalesce onto a
// single computation; completed payloads are retained in an LRU so a
// repeat after job eviction is still served without recomputation, and
// the response body is byte-identical to the first run's. The fleet
// size (Workers) is deliberately excluded from the key: results are
// bit-identical at every worker count, so requests differing only in
// parallelism hints share one cache entry.
package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"hbmvolt/internal/board"
	"hbmvolt/internal/core"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
	"hbmvolt/internal/report"
)

// Sweep kinds. Reliability and power are Monte-Carlo/measurement sweeps
// over a board instance; faultmap and ecc-study are analytic studies of
// the full-capacity device (the Fig. 4/5/6 atlas and the SEC-DED
// mitigation ablation).
const (
	KindReliability = "reliability"
	KindPower       = "power"
	KindFaultMap    = "faultmap"
	KindECCStudy    = "ecc-study"
)

// Kinds lists every sweep kind the service executes, in documentation
// order.
var Kinds = []string{KindReliability, KindPower, KindFaultMap, KindECCStudy}

// SweepRequest is the POST /v1/sweeps body. The zero value of every
// optional field selects the paper's methodology default.
type SweepRequest struct {
	// Kind is "reliability" (Algorithm 1), "power" (Fig. 2/3),
	// "faultmap" (the Fig. 4/5/6 atlas) or "ecc-study" (SEC-DED
	// ablation).
	Kind string `json:"kind"`
	// Seed selects the device instance (0 = the calibrated paper board).
	Seed uint64 `json:"seed,omitempty"`
	// Scale divides pseudo-channel capacity (power of two; 0 → 1024, the
	// 8 MB test device; 1 = the full 8 GB board).
	Scale uint64 `json:"scale,omitempty"`
	// Exact selects the bit-exact per-cell fault sampler instead of the
	// default sparse enumeration ("mode" in the cache key).
	Exact bool `json:"exact,omitempty"`
	// Shared evaluates every pattern of a voltage point from one
	// pattern-agnostic stuck-cell enumeration, memoized process-wide by
	// (fingerprint × voltage) sub-key — the sweep planner's
	// computation-sharing mode (reliability only). On the sparse sampler
	// shared sweeps are a distinct (statistically identical, separately
	// golden-pinned) realization, so Shared is part of the cache key; on
	// the bit-exact sampler results are bit-identical to the legacy path
	// but the key still separates the two modes for uniformity.
	Shared bool `json:"shared,omitempty"`
	// Grid is the voltage ladder, descending; nil → the paper's
	// 1.20 V → 0.81 V sweep.
	Grid []float64 `json:"grid,omitempty"`
	// Patterns names the test patterns (reliability; see pattern.ByName);
	// nil → {all1, all0}.
	Patterns []string `json:"patterns,omitempty"`
	// Batch is the repetition count (reliability; 0 → 5).
	Batch int `json:"batch,omitempty"`
	// Ports restricts the reliability test to these AXI ports; nil → all 32.
	Ports []int `json:"ports,omitempty"`
	// PortCounts are the power sweep's bandwidth operating points;
	// nil → {0, 8, 16, 24, 32}.
	PortCounts []int `json:"port_counts,omitempty"`
	// Samples is the power sweep's averaged monitor reads per point (0 → 5).
	Samples int `json:"samples,omitempty"`
	// Noise is the relative measurement noise of the monitor chain
	// (power sweeps only; 0 = exact). Noise draws are keyed on the seed
	// and sample counter, so noisy sweeps stay deterministic.
	Noise float64 `json:"noise,omitempty"`
	// Workers is the board-fleet size for sharded reliability sweeps
	// (0 → the server default). A parallelism hint only: results are
	// bit-identical at every worker count, so Workers is excluded from
	// the cache key.
	Workers int `json:"workers,omitempty"`
}

// RequestError marks a client-side (4xx) validation failure, as opposed
// to an internal sweep failure.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// maxGridPoints bounds a single request's voltage grid; the paper's
// full ladder is 40 points, so the cap only rejects abuse.
const maxGridPoints = 512

// maxBatch bounds the repetition count (the paper's methodology uses
// 130).
const maxBatch = 1 << 12

// Normalize fills methodology defaults in place and validates every
// field, so that two requests meaning the same sweep become structurally
// identical before keying. Violations return a *RequestError (HTTP 400).
func (r *SweepRequest) Normalize() error {
	switch r.Kind {
	case KindReliability, KindPower, KindFaultMap, KindECCStudy:
	case "":
		return badRequest("missing kind: want one of %q", Kinds)
	default:
		return badRequest("unknown kind %q: want one of %q", r.Kind, Kinds)
	}
	if r.Kind == KindFaultMap || r.Kind == KindECCStudy {
		// The analytic studies always describe the full-capacity device;
		// a scale would fragment the cache without changing the result.
		if r.Scale > 1 {
			return badRequest("scale applies to kind %q or %q only", KindReliability, KindPower)
		}
		r.Scale = 1
	}
	if r.Scale == 0 {
		r.Scale = 1024
	}
	if r.Scale&(r.Scale-1) != 0 {
		return badRequest("scale %d: must be a power of two", r.Scale)
	}
	if _, err := hbm.Scaled(r.Scale); err != nil {
		return badRequest("scale %d: %v", r.Scale, err)
	}
	// Empty slices normalize exactly like absent ones: a "[]" typo must
	// not validate into a sweep that tests nothing (and then cache that
	// contentless payload as a success).
	if len(r.Grid) == 0 {
		r.Grid = faults.PaperGrid()
	}
	if len(r.Grid) > maxGridPoints {
		return badRequest("grid has %d points: max %d", len(r.Grid), maxGridPoints)
	}
	for _, v := range r.Grid {
		if v < 0.5 || v > board.MaxHBMVoltage {
			return badRequest("grid voltage %v out of [0.5, %v]", v, board.MaxHBMVoltage)
		}
	}
	if r.Workers < 0 || r.Workers > 256 {
		return badRequest("workers %d out of [0, 256]", r.Workers)
	}
	if r.Noise != 0 && r.Kind != KindPower {
		return badRequest("noise applies to kind %q only", KindPower)
	}
	if r.Shared && r.Kind != KindReliability {
		return badRequest("shared applies to kind %q only", KindReliability)
	}
	if r.Noise < 0 || r.Noise > 0.5 {
		return badRequest("noise %v out of [0, 0.5]", r.Noise)
	}
	switch r.Kind {
	case KindReliability:
		if len(r.PortCounts) != 0 || r.Samples != 0 {
			return badRequest("port_counts/samples apply to kind %q only", KindPower)
		}
		if r.Batch == 0 {
			r.Batch = 5
		}
		if r.Batch < 0 || r.Batch > maxBatch {
			return badRequest("batch %d out of [1, %d]", r.Batch, maxBatch)
		}
		if len(r.Patterns) == 0 {
			r.Patterns = []string{"all1", "all0"}
		}
		for _, name := range r.Patterns {
			if _, err := pattern.ByName(name); err != nil {
				return badRequest("%v", err)
			}
		}
		if len(r.Ports) == 0 {
			r.Ports = nil
			for p := 0; p < hbm.MaxPorts; p++ {
				r.Ports = append(r.Ports, p)
			}
		}
		var seen [hbm.MaxPorts]bool
		for _, p := range r.Ports {
			if p < 0 || p >= hbm.MaxPorts {
				return badRequest("port %d out of [0, %d)", p, hbm.MaxPorts)
			}
			if seen[p] {
				return badRequest("port %d listed twice", p)
			}
			seen[p] = true
		}
	case KindPower:
		// Reliability-only fields are rejected, not ignored: a stray
		// "batch" (or an "exact" that cannot change a power measurement)
		// would otherwise fold into the cache key and fragment identical
		// power sweeps into distinct entries.
		if len(r.Patterns) != 0 || len(r.Ports) != 0 || r.Batch != 0 || r.Exact {
			return badRequest("patterns/ports/batch/exact apply to kind %q only", KindReliability)
		}
		if len(r.PortCounts) == 0 {
			r.PortCounts = []int{0, 8, 16, 24, 32}
		}
		for _, n := range r.PortCounts {
			if n < 0 || n > hbm.MaxPorts {
				return badRequest("port count %d out of [0, %d]", n, hbm.MaxPorts)
			}
		}
		if r.Samples == 0 {
			r.Samples = 5
		}
		if r.Samples < 0 || r.Samples > 1000 {
			return badRequest("samples %d out of [1, 1000]", r.Samples)
		}
	case KindFaultMap, KindECCStudy:
		// Only the device instance and the voltage grid parameterize the
		// analytic studies; every Monte-Carlo knob is rejected, not
		// ignored, so a stray field can't fragment the cache.
		if len(r.Patterns) != 0 || len(r.Ports) != 0 || r.Batch != 0 ||
			len(r.PortCounts) != 0 || r.Samples != 0 || r.Exact {
			return badRequest("patterns/ports/batch/port_counts/samples/exact do not apply to kind %q", r.Kind)
		}
	}
	return nil
}

// CacheKey condenses a normalized request into the result-cache key:
// the fault-model fingerprint the request's board would carry (computed
// without building the board) mixed with a canonical serialization of
// every result-affecting field. Workers is zeroed first — parallelism
// never changes results.
func (r SweepRequest) CacheKey() (uint64, error) {
	// board.FaultConfig is the same constructor the job's board.New will
	// run, so the fingerprint here is exactly the one the board's model
	// memoizes its analytic rates under.
	fcfg, err := board.FaultConfig(board.Config{Seed: r.Seed, Scale: r.Scale})
	if err != nil {
		return 0, err
	}
	fp := fcfg.Fingerprint()

	r.Workers = 0
	blob, err := report.Marshal(r)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var fpb [8]byte
	binary.LittleEndian.PutUint64(fpb[:], fp)
	h.Write(fpb[:])
	h.Write(blob)
	return h.Sum64(), nil
}

// Envelope is the cached result payload: self-describing, free of
// per-job identifiers and timestamps, so identical requests always
// yield byte-identical bodies. Exactly one result field is set,
// matching Kind.
type Envelope struct {
	Kind string `json:"kind"`
	// Key is the request's cache key (hex), identifying the request
	// class the payload answers.
	Key string `json:"key"`
	// Request echoes the normalized request (Workers stripped).
	Request     SweepRequest            `json:"request"`
	Reliability *core.ReliabilityResult `json:"reliability,omitempty"`
	Power       *core.PowerSweepResult  `json:"power,omitempty"`
	FaultMap    *core.FaultMapStudy     `json:"faultmap,omitempty"`
	ECC         *core.ECCStudy          `json:"ecc,omitempty"`
}

// DecodeResult parses a result payload (the /v1/sweeps/{id}/result
// body) back into its typed envelope.
func DecodeResult(payload []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, fmt.Errorf("service: decoding result payload: %w", err)
	}
	return &env, nil
}

// FormatKey renders a cache key the way the API does (16 hex digits).
func FormatKey(key uint64) string { return fmt.Sprintf("%016x", key) }

func formatKey(key uint64) string { return FormatKey(key) }
