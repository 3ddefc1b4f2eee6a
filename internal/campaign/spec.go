// Package campaign is the declarative experiment-campaign engine: it
// turns a multi-scenario experiment description — the paper's figure
// suite, an ECC ablation, a seed-sensitivity study — into a plan of
// normalized sweep requests, executes them through the sweep service's
// job manager (internal/service), and emits a deterministic manifest
// plus per-scenario NDJSON artifacts.
//
// A campaign spec names a list of scenarios. Each scenario selects a
// sweep kind (reliability | power | faultmap | ecc-study) and a set of
// axes — device seeds, capacity scales, sampling modes, monitor noise,
// pattern sets — whose cross-product expands into one cell per
// combination. Cells are keyed by the service's fingerprint-based cache
// key, so duplicate cells (within a campaign, across campaigns, or
// across repeated runs against one daemon) coalesce onto a single
// computation, and re-running a campaign yields byte-identical
// artifacts: every payload is a pure function of its normalized
// request, and the manifest orders cells by spec position, never by
// completion order.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"hbmvolt/internal/service"
)

// Spec is a declarative experiment campaign: a named list of scenarios,
// parseable from a JSON file.
type Spec struct {
	// Name labels the campaign (and its manifest). Names must be
	// filename-safe: lowercase letters, digits, '.', '_' and '-'.
	Name string `json:"name"`
	// Description is free-form documentation carried into the manifest.
	Description string `json:"description,omitempty"`
	// Scenarios are executed in order; each expands into one or more
	// cells (see Scenario).
	Scenarios []Scenario `json:"scenarios"`

	// cells caches the expansion Normalize performs for validation, so
	// Expand after Normalize is free. Mutating a normalized spec's
	// scenarios invalidates the spec; re-Normalize it.
	cells []Cell
}

// Scenario is one experiment family within a campaign. Multi-valued
// axis fields cross-multiply: a scenario with 2 seeds × 2 modes expands
// into 4 cells. Empty axes select a single default cell along that
// dimension. Scalar shape fields are shared by every cell.
type Scenario struct {
	// Name labels the scenario and its artifact file (filename-safe,
	// unique within the campaign).
	Name string `json:"name"`
	// Kind is "reliability", "power", "faultmap" or "ecc-study".
	Kind string `json:"kind"`

	// Seeds are the device instances to realize (default {0}, the
	// calibrated paper board).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Scales are the capacity divisors to test (reliability/power;
	// powers of two; default {0} = the service default).
	Scales []uint64 `json:"scales,omitempty"`
	// Modes selects fault-sampling modes, "sparse" and/or "exact"
	// (reliability only; default {"sparse"}).
	Modes []string `json:"modes,omitempty"`
	// Noise lists monitor-chain noise sigmas (power only; default {0}).
	Noise []float64 `json:"noise,omitempty"`
	// PatternSets lists test-pattern sets, one cell per set
	// (reliability only; default one cell with the paper's {all1,all0}).
	PatternSets [][]string `json:"pattern_sets,omitempty"`

	// Grid is the voltage ladder shared by every cell (nil = the
	// paper's 1.20 V → 0.81 V sweep).
	Grid []float64 `json:"grid,omitempty"`
	// Ports restricts reliability cells to these AXI ports (nil = all).
	Ports []int `json:"ports,omitempty"`
	// PortCounts are the power cells' bandwidth operating points.
	PortCounts []int `json:"port_counts,omitempty"`
	// Batch is the reliability repetition count (0 = service default).
	Batch int `json:"batch,omitempty"`
	// Samples is the power sweep's monitor reads per point (0 = default).
	Samples int `json:"samples,omitempty"`
	// Repeat submits every cell this many times (default 1). Repeats
	// coalesce onto one computation through the service's cache key —
	// they exercise the coalescing/cache path, not independent reruns —
	// and the engine guards that the layer returned consistent bytes
	// for each submission.
	Repeat int `json:"repeat,omitempty"`
}

// Cell is one expanded scenario point: a normalized sweep request plus
// its position in the campaign.
type Cell struct {
	// Scenario is the owning scenario's name; Index is the cell's
	// position within it (axis order: seeds × scales × modes × noise ×
	// pattern sets).
	Scenario string `json:"scenario"`
	Index    int    `json:"index"`
	// Repeat is the execution count inherited from the scenario.
	Repeat int `json:"repeat"`
	// Request is the normalized sweep request (Workers always 0; the
	// engine applies its fleet hint on submission only).
	Request service.SweepRequest `json:"request"`
	// Key is the request's service cache key.
	Key uint64 `json:"-"`
}

// SpecError marks an invalid campaign spec.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

func badSpec(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// maxCells bounds a campaign's total cross-product size.
const maxCells = 512

// maxRepeat bounds per-cell repetitions.
const maxRepeat = 8

// nameOK reports whether s is a safe campaign/scenario/artifact name.
func nameOK(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case i > 0 && (c == '-' || c == '_' || c == '.'):
		default:
			return false
		}
	}
	return true
}

// Parse decodes a campaign spec from JSON, rejecting unknown fields so
// a typo'd axis name cannot silently select a default.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, badSpec("parsing campaign spec: %v", err)
	}
	return s, nil
}

// Load reads and parses a campaign spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return Parse(data)
}

// Normalize validates the spec's structure, fills scenario defaults in
// place, and verifies that every cell the spec expands to is a valid,
// normalizable sweep request. After Normalize, Expand cannot fail.
func (s *Spec) Normalize() error {
	if !nameOK(s.Name) {
		return badSpec("campaign name %q: want lowercase letters, digits, '.', '_', '-' (max 64)", s.Name)
	}
	if len(s.Scenarios) == 0 {
		return badSpec("campaign %q has no scenarios", s.Name)
	}
	seen := make(map[string]bool, len(s.Scenarios))
	total := 0
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		if !nameOK(sc.Name) {
			return badSpec("scenario %d name %q: want lowercase letters, digits, '.', '_', '-' (max 64)", i, sc.Name)
		}
		if seen[sc.Name] {
			return badSpec("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.normalize(); err != nil {
			return badSpec("scenario %q: %v", sc.Name, err)
		}
		total += sc.cellCount()
		if total > maxCells {
			return badSpec("campaign expands to more than %d cells", maxCells)
		}
	}
	cells, err := s.expand()
	if err != nil {
		return err
	}
	s.cells = cells
	return nil
}

// normalize fills one scenario's axis defaults and checks axis
// applicability against the kind. Request-level validation (grids,
// patterns, ports, ...) is delegated to service.SweepRequest.Normalize
// during expansion, so the two layers can never disagree.
func (sc *Scenario) normalize() error {
	switch sc.Kind {
	case service.KindReliability:
	case service.KindPower:
		if len(sc.Modes) != 0 {
			return badSpec("modes axis applies to kind %q only", service.KindReliability)
		}
		if len(sc.PatternSets) != 0 {
			return badSpec("pattern_sets axis applies to kind %q only", service.KindReliability)
		}
	case service.KindFaultMap, service.KindECCStudy:
		if len(sc.Modes) != 0 || len(sc.PatternSets) != 0 || len(sc.Scales) != 0 || len(sc.Noise) != 0 {
			return badSpec("seeds and grid are the only axes of kind %q", sc.Kind)
		}
	case "":
		return badSpec("missing kind: want one of %q", service.Kinds)
	default:
		return badSpec("unknown kind %q: want one of %q", sc.Kind, service.Kinds)
	}
	if len(sc.Noise) != 0 && sc.Kind != service.KindPower {
		return badSpec("noise axis applies to kind %q only", service.KindPower)
	}
	for _, m := range sc.Modes {
		if m != "sparse" && m != "exact" {
			return badSpec("mode %q: want \"sparse\" or \"exact\"", m)
		}
	}
	if sc.Repeat == 0 {
		sc.Repeat = 1
	}
	if sc.Repeat < 1 || sc.Repeat > maxRepeat {
		return badSpec("repeat %d out of [1, %d]", sc.Repeat, maxRepeat)
	}
	return nil
}

// Axis accessors return the scenario's cross-product dimensions with
// singleton defaults for empty axes. Defaults are applied here, at
// expansion, never written back into the spec — a normalized spec
// re-marshals to an equally valid spec.
func (sc *Scenario) axisSeeds() []uint64 {
	if len(sc.Seeds) == 0 {
		return []uint64{0}
	}
	return sc.Seeds
}

func (sc *Scenario) axisScales() []uint64 {
	if len(sc.Scales) == 0 {
		return []uint64{0}
	}
	return sc.Scales
}

func (sc *Scenario) axisModes() []string {
	if len(sc.Modes) == 0 {
		return []string{"sparse"}
	}
	return sc.Modes
}

func (sc *Scenario) axisNoise() []float64 {
	if len(sc.Noise) == 0 {
		return []float64{0}
	}
	return sc.Noise
}

func (sc *Scenario) axisPatternSets() [][]string {
	if len(sc.PatternSets) == 0 {
		return [][]string{nil}
	}
	return sc.PatternSets
}

// cellCount is the scenario's cross-product size, saturated at
// maxCells+1. Each axis and the running product are checked against
// maxCells before multiplying, so axes whose product would wrap around
// (four axes of 2^16 entries make 2^64) still fail Normalize's bound.
func (sc *Scenario) cellCount() int {
	n := 1
	for _, axis := range []int{len(sc.axisSeeds()), len(sc.axisScales()), len(sc.axisModes()),
		len(sc.axisNoise()), len(sc.axisPatternSets())} {
		if axis > maxCells || n*axis > maxCells {
			return maxCells + 1
		}
		n *= axis
	}
	return n
}

// CellTotal is the campaign's total cell count.
func (s *Spec) CellTotal() int {
	n := 0
	for i := range s.Scenarios {
		n += s.Scenarios[i].cellCount()
	}
	return n
}

// Executions is the total number of (cell, repeat) executions a
// normalized spec performs.
func (s *Spec) Executions() int {
	n := 0
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		repeat := sc.Repeat
		if repeat < 1 {
			repeat = 1
		}
		n += sc.cellCount() * repeat
	}
	return n
}

// Expand walks the normalized spec's cross-products in deterministic
// axis order (seeds, then scales, modes, noise, pattern sets) and
// returns one normalized, cache-keyed sweep request per cell, in
// campaign order. After Normalize the expansion is served from its
// validation pass rather than recomputed.
func (s *Spec) Expand() ([]Cell, error) {
	if s.cells != nil {
		return s.cells, nil
	}
	return s.expand()
}

func (s *Spec) expand() ([]Cell, error) {
	var cells []Cell
	for si := range s.Scenarios {
		sc := &s.Scenarios[si]
		index := 0
		for _, seed := range sc.axisSeeds() {
			for _, scale := range sc.axisScales() {
				for _, mode := range sc.axisModes() {
					for _, noise := range sc.axisNoise() {
						for _, patterns := range sc.axisPatternSets() {
							req, err := sc.request(seed, scale, mode, noise, patterns)
							if err != nil {
								return nil, badSpec("scenario %q cell %d: %v", sc.Name, index, err)
							}
							key, err := req.CacheKey()
							if err != nil {
								return nil, badSpec("scenario %q cell %d: %v", sc.Name, index, err)
							}
							repeat := sc.Repeat
							if repeat < 1 {
								repeat = 1
							}
							cells = append(cells, Cell{
								Scenario: sc.Name,
								Index:    index,
								Repeat:   repeat,
								Request:  req,
								Key:      key,
							})
							index++
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// request builds and normalizes the sweep request of one cell. Shape
// fields are copied for every kind and left to the service's validation,
// so an inapplicable field (a batch on a power scenario) is rejected
// with the service's own message rather than silently dropped.
func (sc *Scenario) request(seed, scale uint64, mode string, noise float64, patterns []string) (service.SweepRequest, error) {
	req := service.SweepRequest{
		Kind:       sc.Kind,
		Seed:       seed,
		Scale:      scale,
		Exact:      mode == "exact",
		Grid:       sc.Grid,
		Patterns:   patterns,
		Ports:      sc.Ports,
		PortCounts: sc.PortCounts,
		Batch:      sc.Batch,
		Samples:    sc.Samples,
		Noise:      noise,
	}
	if err := req.Normalize(); err != nil {
		return service.SweepRequest{}, err
	}
	return req, nil
}
