package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbmvolt/internal/board"
	"hbmvolt/internal/core"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/service"
)

// setFlag mutates a CLI flag for one test and restores the previous
// value afterwards, so tests never leak flag state into each other.
func setFlag[T any](t *testing.T, p *T, v T) {
	t.Helper()
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// silenceStdout redirects os.Stdout to /dev/null for the test and
// restores it afterwards.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunAllCommands(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagScale, 1024)
	setFlag(t, flagNoise, 0)
	setFlag(t, flagBatch, 2)
	setFlag(t, flagVolts, 0.90)
	commands := []string{
		"info", "fig2", "fig3", "fig4", "fig5", "fig6",
		"ecc", "temp", "capacity",
		"tradeoff", "reliability",
	}
	for _, cmd := range commands {
		if err := run(cmd); err != nil {
			t.Fatalf("command %q: %v", cmd, err)
		}
	}
}

// TestInfoCapacity pins the capacity on info's platform line: a scaled
// device prints in MB or KB, which "%.1f GB" would round to 0.0, and the
// full one in GB.
func TestInfoCapacity(t *testing.T) {
	setFlag(t, flagScale, 1024)
	out := captureStdout(t, func() error { return run("info") })
	if want := "32 pseudo channels, 8 MB (scale 1/1024)\n"; !strings.Contains(out, want) {
		t.Fatalf("info platform line lacks %q:\n%s", want, out)
	}
	for _, c := range []struct {
		bytes uint64
		want  string
	}{
		{8 << 30, "8.0 GB"},
		{128 << 20, "128 MB"},
		{32 << 10, "32 KB"},
	} {
		if got := capacity(c.bytes); got != c.want {
			t.Errorf("capacity(%d) = %q, want %q", c.bytes, got, c.want)
		}
	}
}

// TestReliabilityFullSweep exercises the default reliability mode: the
// whole voltage ladder on every port (scaled down here so the unit test
// stays fast; the full-capacity sweep is the CLI default).
func TestReliabilityFullSweep(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagScale, 1024)
	setFlag(t, flagNoise, 0)
	setFlag(t, flagBatch, 2)
	setFlag(t, flagVolts, 0) // full 1.20V→0.81V sweep (the default)
	if err := run("reliability"); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a temp file and
// returns everything fn wrote to it.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	ferr := fn()
	os.Stdout = old
	if ferr != nil {
		t.Fatal(ferr)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestReliabilityWorkerCountEquality pins the -j contract: the sharded
// sweep's stdout (tables included) is byte-identical at every worker
// count — the progress line goes to stderr precisely so this holds.
func TestReliabilityWorkerCountEquality(t *testing.T) {
	setFlag(t, flagScale, 1024)
	setFlag(t, flagNoise, 0)
	setFlag(t, flagBatch, 2)
	setFlag(t, flagVolts, 0) // full 1.20V→0.81V sweep
	run1 := func() string {
		setFlag(t, flagJ, 1)
		return captureStdout(t, func() error { return run("reliability") })
	}
	runN := func(j int) string {
		setFlag(t, flagJ, j)
		return captureStdout(t, func() error { return run("reliability") })
	}
	want := run1()
	if !strings.Contains(want, "Algorithm 1") {
		t.Fatalf("unexpected output: %.80s", want)
	}
	for _, j := range []int{2, 8} {
		got := runN(j)
		// The header names the worker count; everything below it — every
		// table row — must match byte for byte.
		wantBody := want[strings.Index(want, ":\n"):]
		gotBody := got[strings.Index(got, ":\n"):]
		if gotBody != wantBody {
			t.Fatalf("-j %d output differs from -j 1:\n--- j=1 ---\n%s\n--- j=%d ---\n%s",
				j, wantBody, j, gotBody)
		}
	}
}

// TestReliabilityExactMode covers the -exact escape hatch.
func TestReliabilityExactMode(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagScale, 1024)
	setFlag(t, flagBatch, 2)
	setFlag(t, flagVolts, 0.90)
	setFlag(t, flagExact, true)
	if err := run("reliability"); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	silenceStdout(t)
	err := run("bogus")
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunCSVExport(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagScale, 1024)
	setFlag(t, flagNoise, 0)
	path := filepath.Join(t.TempDir(), "fig2.csv")
	setFlag(t, flagCSV, path)
	if err := run("fig2"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "volts,ports,") {
		t.Fatalf("csv content: %.60s", data)
	}
}

func TestRunJSONExport(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagScale, 1024)
	setFlag(t, flagNoise, 0)
	path := filepath.Join(t.TempDir(), "fig2.ndjson")
	setFlag(t, flagJSON, path)
	if err := run("fig2"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"volts":`) {
		t.Fatalf("json content: %.60s", data)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is not a JSON object: %q", i, line)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		set  func(t *testing.T)
		want string // substring of the error; "" means valid
	}{
		{"defaults", func(t *testing.T) {}, ""},
		{"scale zero", func(t *testing.T) { setFlag(t, flagScale, 0) }, "power of two"},
		{"scale not pow2", func(t *testing.T) { setFlag(t, flagScale, 3) }, "power of two"},
		{"scale pow2 ok", func(t *testing.T) { setFlag(t, flagScale, 4096) }, ""},
		{"batch zero", func(t *testing.T) { setFlag(t, flagBatch, 0) }, "-batch"},
		{"batch negative", func(t *testing.T) { setFlag(t, flagBatch, -2) }, "-batch"},
		{"j zero", func(t *testing.T) { setFlag(t, flagJ, 0) }, "-j"},
		{"noise negative", func(t *testing.T) { setFlag(t, flagNoise, -0.1) }, "-noise"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.set(t)
			err := validateFlags()
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestVoltageAboveVoutMaxRejected: the regulator clamps VOUT_COMMAND to
// VOUT_MAX, so a voltage above it must fail at every layer that takes
// one (the board, both core sweeps, request normalization and the
// CLI's -volts) instead of recording the requested voltage next to
// measurements taken at the clamped one. VOUT_MAX itself is accepted.
func TestVoltageAboveVoutMaxRejected(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagScale, 1024)
	setFlag(t, flagNoise, 0)
	setFlag(t, flagBatch, 1)
	setFlag(t, flagJ, 1)
	ctx := context.Background()
	newBoard := func(t *testing.T) *board.Board {
		b, err := board.New(board.Config{SparseFaults: true})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	layers := []struct {
		name string
		try  func(t *testing.T, v float64) error
	}{
		{"board", func(t *testing.T, v float64) error { return newBoard(t).SetHBMVoltage(v) }},
		{"core.RunReliability", func(t *testing.T, v float64) error {
			_, err := core.RunReliability(ctx, core.ReliabilityConfig{
				Faults: newBoard(t).Faults, Grid: []float64{v}, Ports: []hbm.PortID{0}, BatchSize: 1,
			})
			return err
		}},
		{"core.RunPowerSweep", func(t *testing.T, v float64) error {
			_, err := core.RunPowerSweep(ctx, core.PowerSweepConfig{
				Board: newBoard(t), Grid: []float64{v}, PortCounts: []int{32}, Samples: 1,
			})
			return err
		}},
		{"Normalize", func(t *testing.T, v float64) error {
			req := service.SweepRequest{Kind: service.KindPower, Grid: []float64{v}}
			err := req.Normalize()
			var reqErr *service.RequestError
			if err != nil && !errors.As(err, &reqErr) {
				t.Fatalf("err = %v (%T), want a *RequestError (HTTP 400)", err, err)
			}
			return err
		}},
		{"cli -volts", func(t *testing.T, v float64) error {
			setFlag(t, flagVolts, v)
			return run("reliability")
		}},
	}
	for _, c := range []struct {
		volts float64
		ok    bool
	}{{board.MaxHBMVoltage, true}, {1.31, false}, {1.45, false}, {5.0, false}} {
		for _, l := range layers {
			t.Run(fmt.Sprintf("%s/%.2fV", l.name, c.volts), func(t *testing.T) {
				err := l.try(t, c.volts)
				if c.ok && err != nil {
					t.Fatalf("%vV refused: %v", c.volts, err)
				}
				if !c.ok && err == nil {
					t.Fatalf("%vV accepted above VOUT_MAX %vV", c.volts, board.MaxHBMVoltage)
				}
			})
		}
	}
}

func TestTradeoffInfeasible(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagScale, 1024)
	setFlag(t, flagTol, 0)
	setFlag(t, flagPCs, 33)
	if err := run("tradeoff"); err == nil {
		t.Fatal("impossible plan accepted")
	}
}

func TestGridAround(t *testing.T) {
	g := gridAround(1.00, 0.95)
	if len(g) != 6 {
		t.Fatalf("grid length %d", len(g))
	}
	if g[0] != 1.00 || g[5] != 0.95 {
		t.Fatalf("grid endpoints %v..%v", g[0], g[5])
	}
}

// TestCampaignCommand runs the campaign subcommand end to end on a
// small spec file: artifacts land in -out, rerunning reproduces them
// byte for byte, and -render prints the figure suite from the payloads.
func TestCampaignCommand(t *testing.T) {
	silenceStdout(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	spec := `{
		"name": "cli-test",
		"scenarios": [
			{"name": "rel", "kind": "reliability", "grid": [0.90, 0.89],
			 "ports": [18], "batch": 2},
			{"name": "ecc", "kind": "ecc-study", "grid": [0.95, 0.90]}
		]
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out1 := filepath.Join(dir, "out1")
	setFlag(t, flagSpec, specPath)
	setFlag(t, flagOut, out1)
	setFlag(t, flagJobs, 2)
	setFlag(t, flagRender, true)
	if err := run("campaign"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json", "rel.ndjson", "ecc.ndjson"} {
		if _, err := os.Stat(filepath.Join(out1, name)); err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
	}

	out2 := filepath.Join(dir, "out2")
	setFlag(t, flagOut, out2)
	setFlag(t, flagJ, 8)
	if err := run("campaign"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json", "rel.ndjson", "ecc.ndjson"} {
		a, err := os.ReadFile(filepath.Join(out1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(out2, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs across runs", name)
		}
	}
}

// TestCampaignBadSpec covers the unknown-spec error path.
func TestCampaignBadSpec(t *testing.T) {
	silenceStdout(t)
	setFlag(t, flagSpec, "no-such-campaign")
	if err := run("campaign"); err == nil {
		t.Fatal("unknown campaign accepted")
	}
}
