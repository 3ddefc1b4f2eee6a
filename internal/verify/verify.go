// Package verify re-derives the source paper's quantitative claims
// from a live campaign run and gates on the result — the hypothesis-
// driven regression net over the physics, where the campaign goldens
// are the regression net over the bytes.
//
// The two nets fail in complementary ways. A refactor of the fault or
// power model can drift the paper's headline numbers (the Fig. 3 power
// reduction, the V_min guardband, the exponential fault onset of
// Fig. 4, the ECC widening of the safe region) while every golden stays
// byte-identical — goldens only pin what was already computed. And an
// intentional re-realization (a new enumeration scheme, a new sampler)
// changes every byte while leaving the physics intact — goldens can
// only be re-blessed on faith. Claims close both gaps: each one binds a
// paper assertion to an extractor over typed campaign results and an
// inclusive tolerance Band, so the physics is re-measured from scratch
// on every run.
//
// A Claim follows the experiment discipline of hypothesis-driven
// FINDINGS ledgers: a falsifiable Hypothesis, a single varied dimension
// (supply voltage, throughout), a directional control (the monotonic
// fault-onset claim — if fault counts stopped growing as voltage drops,
// the model is not measuring undervolting at all), and explicit
// preconditions. Run executes the built-in paper-repro campaign through
// the ordinary engine (same cache keys, same byte-identical artifacts),
// decodes the payloads via the campaign's extraction hooks, evaluates
// every registered claim, and emits two artifacts per run: a
// machine-readable verdicts.json and a human FINDINGS.md. Any REFUTED
// or ERROR verdict fails the gate.
//
// The registered claims live in claims.go; docs/CLAIMS.md is the
// human ledger (citation, extraction method, band rationale per claim)
// and cmd/claimcheck keeps the two in sync.
package verify

import (
	"context"
	"fmt"

	"hbmvolt/internal/campaign"
	"hbmvolt/internal/core"
	"hbmvolt/internal/report"
	"hbmvolt/internal/service"
)

// Evidence is the typed material a campaign run yields for claim
// evaluation: at most one result per sweep kind, selected by
// CollectEvidence. Extractors check for the evidence they need and
// return a *EvalError when it is absent.
type Evidence struct {
	// Reliability is the Algorithm 1 sweep (the campaign's full-grid
	// one, when several are present).
	Reliability *core.ReliabilityResult
	// ReliabilityScale is the capacity divisor the reliability sweep ran
	// at (1 = the full 8 GB board), for findings context.
	ReliabilityScale uint64
	// Power is the Fig. 2/3 measurement matrix.
	Power *core.PowerSweepResult
	// FaultMap is the Fig. 4/5/6 analytic atlas.
	FaultMap *core.FaultMapStudy
	// ECC is the SEC-DED mitigation ablation.
	ECC *core.ECCStudy
}

// CollectEvidence selects claim evidence from decoded campaign
// envelopes. For power, faultmap and ecc-study the first envelope of
// each kind wins (campaign order, so the choice is deterministic); for
// reliability the envelope with the most voltage-grid points wins —
// the paper-repro campaigns carry a full-ladder sweep next to a short
// bit-exact cross-check, and claims about onset and growth need the
// full ladder.
func CollectEvidence(envs []campaign.CellEnvelope) *Evidence {
	ev := &Evidence{}
	for _, ce := range envs {
		env := ce.Envelope
		switch env.Kind {
		case service.KindReliability:
			if env.Reliability == nil {
				continue
			}
			if ev.Reliability == nil || len(env.Reliability.Points) > len(ev.Reliability.Points) {
				ev.Reliability = env.Reliability
				ev.ReliabilityScale = env.Request.Scale
			}
		case service.KindPower:
			if ev.Power == nil {
				ev.Power = env.Power
			}
		case service.KindFaultMap:
			if ev.FaultMap == nil {
				ev.FaultMap = env.FaultMap
			}
		case service.KindECCStudy:
			if ev.ECC == nil {
				ev.ECC = env.ECC
			}
		}
	}
	return ev
}

// Verdict status values.
const (
	// StatusConfirmed: every check landed inside its band.
	StatusConfirmed = "CONFIRMED"
	// StatusRefuted: at least one check landed outside its band.
	StatusRefuted = "REFUTED"
	// StatusError: the extractor could not evaluate the claim (missing
	// evidence, degenerate inputs). Fails the gate like REFUTED.
	StatusError = "ERROR"
)

// Verdict is the outcome of one claim evaluation.
type Verdict struct {
	Claim    string  `json:"claim"`
	Title    string  `json:"title"`
	Citation string  `json:"citation"`
	Status   string  `json:"status"`
	Checks   []Check `json:"checks,omitempty"`
	// Error carries the extractor's *EvalError message for StatusError.
	Error string `json:"error,omitempty"`
}

// Report is a completed verification run.
type Report struct {
	// Campaign names the spec the evidence came from.
	Campaign string `json:"campaign"`
	// Smoke records the campaign profile.
	Smoke bool `json:"smoke"`
	// Claims/Confirmed/Refuted/Errored count the verdicts.
	Claims    int       `json:"claims"`
	Confirmed int       `json:"confirmed"`
	Refuted   int       `json:"refuted"`
	Errored   int       `json:"errored,omitempty"`
	Verdicts  []Verdict `json:"verdicts"`
}

// Failed reports whether the claims gate must trip: any verdict that is
// not CONFIRMED.
func (r *Report) Failed() bool { return r.Refuted > 0 || r.Errored > 0 }

// JSON marshals the report deterministically (compact JSON, trailing
// newline — the service serialization), the verdicts.json artifact.
func (r *Report) JSON() ([]byte, error) { return report.Marshal(r) }

// Evaluate runs every registered claim against the evidence. It never
// panics on degenerate evidence: extractor failures become ERROR
// verdicts carrying the *EvalError message.
func Evaluate(ev *Evidence, campaignName string, smoke bool) *Report {
	rep := &Report{Campaign: campaignName, Smoke: smoke}
	for _, c := range Registry() {
		v := Verdict{Claim: c.ID, Title: c.Title, Citation: c.Citation}
		checks, err := c.Eval(ev)
		switch {
		case err != nil:
			v.Status = StatusError
			v.Error = err.Error()
			rep.Errored++
		case allPass(checks):
			v.Status = StatusConfirmed
			rep.Confirmed++
		default:
			v.Status = StatusRefuted
			rep.Refuted++
		}
		v.Checks = checks
		rep.Claims++
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep
}

func allPass(checks []Check) bool {
	if len(checks) == 0 {
		return false
	}
	for _, c := range checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Options parameterizes Run.
type Options struct {
	// Smoke selects the scaled-down paper-repro campaign profile
	// (seconds instead of the full-capacity methodology).
	Smoke bool
	// Jobs is the campaign engine's concurrent sweep count.
	Jobs int
	// Fleet is the per-sweep worker-count hint.
	Fleet int
	// OnCell forwards campaign progress.
	OnCell func(done, total int)
}

// Run executes the built-in paper-repro campaign through the ordinary
// engine and evaluates every registered claim against its results.
func Run(ctx context.Context, opts Options) (*Report, error) {
	spec := campaign.PaperRepro(opts.Smoke)
	res, err := campaign.Run(ctx, spec, campaign.Options{
		Jobs:   opts.Jobs,
		Fleet:  opts.Fleet,
		OnCell: opts.OnCell,
	})
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	envs, err := res.Envelopes()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return Evaluate(CollectEvidence(envs), res.Spec.Name, opts.Smoke), nil
}
