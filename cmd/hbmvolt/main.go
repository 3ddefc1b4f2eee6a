// Command hbmvolt regenerates the tables and figures of "Understanding
// Power Consumption and Reliability of High-Bandwidth Memory with
// Voltage Underscaling" (DATE 2021) from the simulated VCU128 platform,
// and exposes the three-factor trade-off planner interactively.
//
// Usage:
//
//	hbmvolt [flags] <command>
//
// Commands:
//
//	fig2        normalized power vs voltage per bandwidth (Fig. 2)
//	fig3        normalized alpha*CL*f vs voltage (Fig. 3)
//	fig4        faulty fraction per stack vs voltage (Fig. 4)
//	fig5        per-PC fault atlas per pattern (Fig. 5)
//	fig6        usable PCs per tolerable fault rate (Fig. 6)
//	ecc         SEC-DED mitigation ablation (extension)
//	temp        temperature sensitivity study (extension)
//	capacity    row- vs PC-granular capacity recovery (extension)
//	guardband   locate Vmin/Vcritical (analytic + measured)
//	reliability run Algorithm 1 on a scaled board and print fault counts
//	tradeoff    plan an operating point: -tol and -pcs
//	info        platform summary (organization, bandwidth, power anchors)
//	all         fig2..fig6 + ecc + guardband
//	campaign    execute a declarative experiment campaign (-spec names a
//	            built-in campaign or a JSON spec file; -out writes the
//	            manifest and per-scenario NDJSON artifacts; -render
//	            prints the figure suite from the campaign's payloads;
//	            -cache-dir makes the run crash-safe: an interrupted
//	            campaign rerun over the same directory resumes from its
//	            durable cache, and the finished manifest is
//	            byte-identical to an uninterrupted run's; -metrics
//	            dumps the run's telemetry registry as Prometheus text)
//	verify      run the built-in paper-repro campaign and validate every
//	            registered paper claim against its tolerance band
//	            (-smoke for the fast profile; -out names the report
//	            directory, default verify-out; writes FINDINGS.md and
//	            verdicts.json; exits non-zero when any claim is REFUTED
//	            or cannot be evaluated — see docs/CLAIMS.md)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hbmvolt"
	"hbmvolt/internal/report"
	"hbmvolt/internal/telemetry"
	"hbmvolt/internal/verify"
)

var (
	flagSeed  = flag.Uint64("seed", 0, "device instance seed (0 = the calibrated paper board)")
	flagScale = flag.Uint64("scale", 1, "capacity divisor for Monte-Carlo commands (power of two; 1 = the paper's full 8 GB)")
	flagNoise = flag.Float64("noise", 0.005, "relative measurement noise of the monitor chain (0 = exact)")
	flagCSV   = flag.String("csv", "", "also write machine-readable data to this file (fig2/fig5)")
	flagJSON  = flag.String("json", "", "also write machine-readable NDJSON data to this file (fig2/fig5)")
	flagTol   = flag.Float64("tol", 0, "tradeoff: tolerable cell fault rate (e.g. 1e-6 for 0.0001%)")
	flagPCs   = flag.Int("pcs", 32, "tradeoff: minimum pseudo channels required")
	flagBatch = flag.Int("batch", 5, "reliability: batch size (paper uses 130)")
	flagVolts = flag.Float64("volts", 0, "reliability: single test voltage (0 = full 1.20V→0.81V sweep)")
	flagExact = flag.Bool("exact", false, "bit-exact per-cell fault sampling instead of sparse enumeration (slow at full scale; pair with -scale)")
	flagJ     = flag.Int("j", runtime.GOMAXPROCS(0), "reliability: sweep workers — voltage points are sharded across this many goroutines; results are bit-identical at any count (1 = sequential)")

	flagSpec     = flag.String("spec", "paper-repro", "campaign: built-in campaign name or spec file path")
	flagSmoke    = flag.Bool("smoke", false, "campaign: select a built-in campaign's smoke-scale variant")
	flagOut      = flag.String("out", "", "campaign: write manifest.json and per-scenario NDJSON artifacts to this directory")
	flagJobs     = flag.Int("jobs", 2, "campaign: sweeps executing concurrently")
	flagRender   = flag.Bool("render", false, "campaign: also print the human-readable figure suite from the campaign's payloads")
	flagCacheDir = flag.String("cache-dir", "", "campaign: durable result-cache directory; computed cells survive crashes, and an interrupted campaign rerun over the same directory resumes instead of recomputing")
	flagMetrics  = flag.String("metrics", "", "campaign: after the run, write the engine's telemetry registry to this file in Prometheus text exposition format (job, cache, and campaign families)")
)

func main() {
	flag.Usage = usage
	// Accept both "hbmvolt <cmd> [flags]" and "hbmvolt [flags] <cmd>".
	args := os.Args[1:]
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	if cmd == "" {
		if flag.NArg() != 1 {
			usage()
			os.Exit(2)
		}
		cmd = flag.Arg(0)
	}
	if err := validateFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "hbmvolt: %v\n\n", err)
		usage()
		os.Exit(2)
	}
	if err := run(cmd); err != nil {
		fmt.Fprintln(os.Stderr, "hbmvolt:", err)
		os.Exit(1)
	}
}

// validateFlags rejects flag values that would otherwise propagate into
// the board or the sweep as confusing downstream failures (or, worse,
// silently bogus statistics — a zero batch would divide by zero, a
// negative noise sigma is meaningless).
func validateFlags() error {
	if *flagScale == 0 || *flagScale&(*flagScale-1) != 0 {
		return fmt.Errorf("-scale %d: must be a nonzero power of two", *flagScale)
	}
	if *flagBatch < 1 {
		return fmt.Errorf("-batch %d: must be >= 1", *flagBatch)
	}
	if *flagJ < 1 {
		return fmt.Errorf("-j %d: must be >= 1", *flagJ)
	}
	if *flagJobs < 1 {
		return fmt.Errorf("-jobs %d: must be >= 1", *flagJobs)
	}
	if *flagNoise < 0 {
		return fmt.Errorf("-noise %v: must be >= 0", *flagNoise)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: hbmvolt [flags] <fig2|fig3|fig4|fig5|fig6|ecc|temp|capacity|guardband|reliability|tradeoff|info|all|campaign|verify>\n\n")
	flag.PrintDefaults()
}

func newSystem() (*hbmvolt.System, error) {
	return hbmvolt.New(hbmvolt.Config{
		Seed:         *flagSeed,
		Scale:        *flagScale,
		NoiseSigma:   *flagNoise,
		SparseFaults: !*flagExact,
	})
}

func run(cmd string) error {
	if cmd == "campaign" {
		// Campaigns build their own boards per cell; no ambient System.
		return runCampaign()
	}
	if cmd == "verify" {
		// The claim verifier runs its own campaign; no ambient System.
		return runVerify()
	}
	sys, err := newSystem()
	if err != nil {
		return err
	}
	out := os.Stdout
	switch cmd {
	case "fig2":
		res, err := sys.RenderFig2(out)
		if err != nil {
			return err
		}
		if err := maybeWrite(*flagCSV, func(w io.Writer) error { return hbmvolt.WriteFig2CSV(w, res) }); err != nil {
			return err
		}
		return maybeWrite(*flagJSON, func(w io.Writer) error { return sys.WriteFig2JSON(w, res) })
	case "fig3":
		_, err := sys.RenderFig3(out)
		return err
	case "fig4":
		_, err := sys.RenderFig4(out)
		return err
	case "fig5":
		if err := sys.RenderFig5(out); err != nil {
			return err
		}
		if err := maybeWrite(*flagCSV, sys.WriteFig5CSV); err != nil {
			return err
		}
		return maybeWrite(*flagJSON, sys.WriteFig5JSON)
	case "fig6":
		return sys.RenderFig6(out)
	case "ecc":
		_, err := sys.RenderECCStudy(out)
		return err
	case "temp":
		_, err := sys.RenderTempStudy(out)
		return err
	case "capacity":
		_, err := sys.RenderCapacityStudy(out)
		return err
	case "guardband":
		return runGuardband(sys)
	case "reliability":
		return runReliability(sys)
	case "tradeoff":
		return runTradeoff(sys)
	case "info":
		return runInfo(sys)
	case "all":
		for _, c := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "ecc", "temp", "capacity", "guardband"} {
			fmt.Fprintf(out, "\n===== %s =====\n", strings.ToUpper(c))
			if err := run(c); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runCampaign executes the campaign subcommand: resolve the spec, run
// it through the engine, write artifacts (-out), print the manifest
// summary, and optionally render the figure suite (-render).
func runCampaign() error {
	spec, err := hbmvolt.LoadCampaignSpec(*flagSpec, *flagSmoke)
	if err != nil {
		return err
	}
	// -metrics: hand the engine a registry to report into and dump it as
	// Prometheus text after the run — the same families a daemon serves
	// live on /metrics, captured for a one-shot CLI run.
	var reg *telemetry.Registry
	if *flagMetrics != "" {
		reg = telemetry.NewRegistry()
	}
	res, err := hbmvolt.RunCampaign(context.Background(), spec, hbmvolt.CampaignOptions{
		Jobs:     *flagJobs,
		Fleet:    *flagJ,
		CacheDir: *flagCacheDir,
		Metrics:  reg,
		OnCell: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcampaign %s: %d/%d cells   ", spec.Name, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if err != nil {
		return err
	}
	if reg != nil {
		if err := maybeWrite(*flagMetrics, func(w io.Writer) error {
			_, werr := reg.WriteTo(w)
			return werr
		}); err != nil {
			return err
		}
	}
	if *flagOut != "" {
		if err := res.WriteArtifacts(*flagOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *flagOut)
	}
	m := res.Manifest
	fmt.Printf("campaign %s: %d cells (%d unique sweeps), %d scenarios\n",
		m.Campaign, m.Cells, m.UniqueSweeps, len(m.Scenarios))
	if m.Plan != nil {
		fmt.Printf("plan: %d reliability cells in %d physics groups; %d unique enumerations cover %d pattern evaluations\n",
			m.Plan.SharedCells, len(m.Plan.Groups), m.Plan.UniquePhysics, m.Plan.PatternEvals)
	}
	tbl := report.NewTable("scenario", "kind", "cell", "key", "bytes", "sha256")
	for _, sm := range m.Scenarios {
		for _, cm := range sm.Cells {
			tbl.AddRow(sm.Name, sm.Kind, fmt.Sprintf("%d", cm.Index), cm.Key,
				fmt.Sprintf("%d", cm.Bytes), cm.SHA256[:12])
		}
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		return err
	}
	if *flagRender {
		return hbmvolt.RenderCampaignResult(os.Stdout, res)
	}
	return nil
}

// runVerify executes the verify subcommand: run the built-in
// paper-repro campaign through the engine, evaluate every registered
// claim, write FINDINGS.md + verdicts.json into the report directory,
// print the verdict summary, and fail (non-zero exit) when any claim is
// not CONFIRMED.
func runVerify() error {
	outDir := *flagOut
	if outDir == "" {
		outDir = "verify-out"
	}
	rep, err := verify.Run(context.Background(), verify.Options{
		Smoke: *flagSmoke,
		Jobs:  *flagJobs,
		Fleet: *flagJ,
		OnCell: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rverify: %d/%d cells   ", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	blob, err := rep.JSON()
	if err != nil {
		return err
	}
	verdictsPath := outDir + "/verdicts.json"
	if err := os.WriteFile(verdictsPath, blob, 0o644); err != nil {
		return err
	}
	findingsPath := outDir + "/FINDINGS.md"
	f, err := os.Create(findingsPath)
	if err != nil {
		return err
	}
	werr := verify.WriteFindings(f, rep)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}

	tbl := report.NewTable("claim", "citation", "status", "checks")
	for _, v := range rep.Verdicts {
		passed := 0
		for _, c := range v.Checks {
			if c.Pass {
				passed++
			}
		}
		tbl.AddRow(v.Claim, v.Citation, v.Status, fmt.Sprintf("%d/%d", passed, len(v.Checks)))
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("claims: %d confirmed, %d refuted, %d errored\n", rep.Confirmed, rep.Refuted, rep.Errored)
	fmt.Printf("wrote %s and %s\n", verdictsPath, findingsPath)
	if rep.Failed() {
		return fmt.Errorf("%d of %d claims not confirmed (see %s)", rep.Refuted+rep.Errored, rep.Claims, findingsPath)
	}
	return nil
}

// maybeWrite runs the export if its destination flag (-csv or -json)
// was set.
func maybeWrite(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func runGuardband(sys *hbmvolt.System) error {
	g, err := sys.Guardband()
	if err != nil {
		return err
	}
	fmt.Println("analytic:", g)
	// Empirical confirmation through traffic on the scaled board,
	// scanning the edge of the safe region.
	mg, err := sys.MeasureGuardband(0, gridAround(1.00, 0.95))
	if err != nil {
		return err
	}
	fmt.Println("measured:", mg)
	return nil
}

func gridAround(hi, lo float64) []float64 {
	var out []float64
	for mv := int(hi * 1000); mv >= int(lo*1000); mv -= 10 {
		out = append(out, float64(mv)/1000)
	}
	return out
}

func runReliability(sys *hbmvolt.System) error {
	// The default is the paper's whole-HBM methodology: every word of
	// every pseudo channel, across the full voltage ladder. The sweep is
	// sharded across -j workers; -j 1, or a single -volts point, runs
	// on one core. Both produce identical results.
	var grid []float64
	where := "1.20V→0.81V sweep"
	if *flagVolts != 0 {
		grid = []float64{*flagVolts}
		where = fmt.Sprintf("%.2fV", *flagVolts)
	}
	res, err := sys.RunReliability(hbmvolt.ReliabilityConfig{
		Grid:      grid,
		BatchSize: *flagBatch,
		Workers:   *flagJ,
		OnPoint:   progressLine(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 1, %s (batch %d, margin ±%.1f%% @90%%, %d sweep workers):\n",
		where, *flagBatch, res.Margin*100, *flagJ)
	return hbmvolt.RenderReliability(os.Stdout, res)
}

// progressLine returns a sweep progress callback that keeps one status
// line updated on stderr, leaving stdout to the result tables (so
// redirected output stays clean and -j equality is byte-exact).
func progressLine() func(hbmvolt.SweepProgress) {
	return func(p hbmvolt.SweepProgress) {
		state := "ok"
		if p.Crashed {
			state = "CRASH"
		}
		fmt.Fprintf(os.Stderr, "\rreliability: %d/%d points (%.2fV %s)   ", p.Done, p.Total, p.Volts, state)
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func runTradeoff(sys *hbmvolt.System) error {
	plan, err := sys.Plan(*flagTol, *flagPCs)
	if err != nil {
		return err
	}
	fmt.Printf("tolerable rate %.3g, need >= %d PCs:\n  %s\n  PCs: %v\n",
		*flagTol, *flagPCs, plan, plan.PCs)
	return nil
}

// capacity formats a device size in the largest unit it fills: GB for
// the full device, MB or KB for a scaled one (8 MB at -scale 1024).
func capacity(bytes uint64) string {
	switch {
	case bytes >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(bytes)/(1<<30))
	case bytes >= 1<<20:
		return fmt.Sprintf("%d MB", bytes>>20)
	default:
		return fmt.Sprintf("%d KB", bytes>>10)
	}
}

func runInfo(sys *hbmvolt.System) error {
	b := sys.Board
	fmt.Printf("platform: VCU128-class, %d HBM stacks, %d pseudo channels, %s (scale 1/%d)\n",
		len(b.Device.Stacks), b.Org.TotalPCs(), capacity(b.Org.TotalBytes()), *flagScale)
	fmt.Printf("aggregate bandwidth: %.0f GB/s (paper: 310 achieved / 429 theoretical)\n",
		b.AggregateBandwidthGBs())
	w, err := sys.PowerWatts()
	if err != nil {
		return err
	}
	fmt.Printf("power at nominal, full load: %.2f W\n", w)
	g, err := sys.Guardband()
	if err != nil {
		return err
	}
	fmt.Println(g)
	fmt.Printf("fault-free PCs at 0.95V: %d; PCs at <=0.0001%% at 0.90V: %d\n",
		sys.UsablePCs(0.95, 0), sys.UsablePCs(0.90, 1e-6))
	return nil
}
