package hbmvolt

import (
	"context"
	"fmt"
	"io"

	"hbmvolt/internal/campaign"
	"hbmvolt/internal/report"
	"hbmvolt/internal/service"
)

// Campaign re-exports: a campaign is a declarative multi-scenario
// experiment spec executed through the sweep service's job manager. See
// internal/campaign for the spec format and determinism contract.
type (
	// CampaignSpec is a declarative experiment campaign.
	CampaignSpec = campaign.Spec
	// CampaignScenario is one experiment family within a campaign.
	CampaignScenario = campaign.Scenario
	// CampaignOptions parameterizes campaign execution.
	CampaignOptions = campaign.Options
	// CampaignResult is a completed campaign run.
	CampaignResult = campaign.Result
	// CampaignManifest is the deterministic campaign summary.
	CampaignManifest = campaign.Manifest
)

// LoadCampaignSpec reads a campaign spec file, or resolves a built-in
// campaign name ("paper-repro"; smoke selects its smoke-scale variant).
func LoadCampaignSpec(specArg string, smoke bool) (CampaignSpec, error) {
	return campaign.LoadOrBuiltin(specArg, smoke)
}

// PaperReproCampaign returns the built-in campaign regenerating the
// paper's full result family.
func PaperReproCampaign(smoke bool) CampaignSpec { return campaign.PaperRepro(smoke) }

// RunCampaign normalizes and executes a campaign on a private job
// manager. The manifest and artifacts are byte-identical across runs
// and across Jobs/Fleet settings.
func RunCampaign(ctx context.Context, spec CampaignSpec, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Run(ctx, spec, opts)
}

// RenderCampaignResult writes the human-readable figure suite of a
// completed campaign: each cell's payload is decoded and rendered with
// the same renderers the System.RenderFigN methods use, so a campaign
// covering the paper's scenarios reproduces the figure output of the
// legacy entry points byte for byte.
func RenderCampaignResult(w io.Writer, res *CampaignResult) error {
	for _, sr := range res.Scenarios {
		for _, cr := range sr.Cells {
			fmt.Fprintf(w, "===== %s", sr.Name)
			if len(sr.Cells) > 1 {
				fmt.Fprintf(w, " [cell %d]", cr.Cell.Index)
			}
			fmt.Fprintln(w, " =====")
			env, err := service.DecodeResult(cr.Payload)
			if err != nil {
				return fmt.Errorf("scenario %q cell %d: %w", sr.Name, cr.Cell.Index, err)
			}
			if err := renderEnvelope(w, env); err != nil {
				return fmt.Errorf("scenario %q cell %d: %w", sr.Name, cr.Cell.Index, err)
			}
		}
	}
	return nil
}

// renderEnvelope dispatches one decoded result to its figure renderer.
func renderEnvelope(w io.Writer, env *service.Envelope) error {
	switch {
	case env.Power != nil:
		if err := renderFig2(w, env.Request.Grid, env.Request.PortCounts, env.Power); err != nil {
			return err
		}
		return renderFig3(w, env.Request.Grid, env.Request.PortCounts, env.Power)
	case env.FaultMap != nil:
		if err := renderFig4(w, env.FaultMap.Curves); err != nil {
			return err
		}
		if err := renderFig5(w, env.FaultMap.Fig5); err != nil {
			return err
		}
		return renderFig6(w, env.FaultMap.Grid, env.FaultMap.Tolerances, env.FaultMap.Usable)
	case env.ECC != nil:
		return renderECC(w, env.ECC)
	case env.Reliability != nil:
		return RenderReliability(w, env.Reliability)
	default:
		return fmt.Errorf("envelope for kind %q carries no result", env.Kind)
	}
}

// RenderReliability writes an Algorithm 1 sweep as the per-observation
// fault table (ports and patterns with zero flips omitted), after one
// line per crashed point. The CLI's reliability command and the
// campaign renderer both print through it.
func RenderReliability(w io.Writer, res *ReliabilityResult) error {
	tbl := report.NewTable("volts", "port", "pattern", "mean flips", "bit fault rate", "ci low", "ci high")
	for _, pt := range res.Points {
		if pt.Crashed {
			fmt.Fprintf(w, "  %.2fV: DEVICE CRASHED (power cycle performed)\n", pt.Volts)
			continue
		}
		for _, obs := range pt.Observations {
			if obs.MeanFlips == 0 {
				continue
			}
			tbl.AddRow(
				fmt.Sprintf("%.2f", pt.Volts),
				fmt.Sprintf("%d", obs.Port),
				obs.Pattern,
				fmt.Sprintf("%.1f", obs.MeanFlips),
				fmt.Sprintf("%.3g", obs.BitFaultRate),
				fmt.Sprintf("%.1f", obs.Batch.CILow),
				fmt.Sprintf("%.1f", obs.Batch.CIHigh),
			)
		}
	}
	if tbl.Len() == 0 {
		fmt.Fprintln(w, "  no faults observed")
		return nil
	}
	_, err := tbl.WriteTo(w)
	return err
}
