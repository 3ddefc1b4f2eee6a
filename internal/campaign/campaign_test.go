package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hbmvolt/internal/report"
	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// tinySpec is a fast multi-scenario spec exercising every kind and a
// cross-product, used by the execution tests.
func tinySpec() Spec {
	return Spec{
		Name: "tiny",
		Scenarios: []Scenario{
			{
				Name:        "rel",
				Kind:        "reliability",
				Modes:       []string{"sparse", "exact"},
				PatternSets: [][]string{{"all1"}, {"all0"}},
				Grid:        []float64{0.90, 0.89},
				Ports:       []int{18},
				Batch:       2,
			},
			{
				Name:       "pow",
				Kind:       "power",
				Grid:       []float64{1.20, 0.90},
				PortCounts: []int{0, 32},
				Samples:    2,
			},
			{Name: "fmap", Kind: "faultmap", Grid: []float64{0.95, 0.90}},
			{Name: "ecc", Kind: "ecc-study", Grid: []float64{0.95, 0.90}},
		},
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `{
		"name": "round-trip",
		"description": "doc",
		"scenarios": [
			{"name": "a", "kind": "reliability", "seeds": [0, 7], "modes": ["sparse"],
			 "grid": [0.9], "ports": [3], "batch": 2, "repeat": 2},
			{"name": "b", "kind": "power", "noise": [0, 0.01], "samples": 3}
		]
	}`
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Scenarios[0].Repeat; got != 2 {
		t.Fatalf("repeat = %d", got)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Axis defaults apply at expansion without being written back:
	// scenario b expands along its noise axis only, from seed 0.
	if n := len(cells); n != 2+2 {
		t.Fatalf("expanded to %d cells, want 4", n)
	}
	if cells[2].Request.Seed != 0 || cells[2].Request.Noise != 0 || cells[3].Request.Noise != 0.01 {
		t.Fatalf("scenario b cells = %+v / %+v", cells[2].Request, cells[3].Request)
	}
	if len(spec.Scenarios[1].Seeds) != 0 {
		t.Fatalf("Normalize materialized default seeds: %v", spec.Scenarios[1].Seeds)
	}

	// A normalized spec marshals and re-parses to the same expansion.
	blob, err := report.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec2.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells2, err := spec2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(cells2) {
		t.Fatalf("re-parsed expansion %d cells, want %d", len(cells2), len(cells))
	}
	for i := range cells {
		if cells[i].Key != cells2[i].Key {
			t.Fatalf("cell %d key drifted across round trip: %x vs %x", i, cells[i].Key, cells2[i].Key)
		}
	}
}

func TestExpandCounts(t *testing.T) {
	spec := Spec{
		Name: "counts",
		Scenarios: []Scenario{
			{
				Name:        "rel",
				Kind:        "reliability",
				Seeds:       []uint64{0, 1},
				Scales:      []uint64{1024, 2048},
				Modes:       []string{"sparse", "exact"},
				PatternSets: [][]string{{"all1"}, {"all0"}, {"all1", "all0"}},
				Grid:        []float64{0.9},
				Ports:       []int{0},
				Batch:       1,
			},
			{Name: "one", Kind: "ecc-study"},
		},
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := 2*2*2*3 + 1
	if len(cells) != want {
		t.Fatalf("expanded to %d cells, want %d", len(cells), want)
	}
	// Cells are in deterministic axis order and indexed per scenario.
	for i := 0; i < 24; i++ {
		if cells[i].Scenario != "rel" || cells[i].Index != i {
			t.Fatalf("cell %d = %s/%d", i, cells[i].Scenario, cells[i].Index)
		}
	}
	if last := cells[24]; last.Scenario != "one" || last.Index != 0 {
		t.Fatalf("last cell = %s/%d", last.Scenario, last.Index)
	}
	// The first half of the seed axis all share seed 0.
	for i := 0; i < 12; i++ {
		if cells[i].Request.Seed != 0 {
			t.Fatalf("cell %d seed = %d", i, cells[i].Request.Seed)
		}
	}
	if cells[12].Request.Seed != 1 {
		t.Fatalf("cell 12 seed = %d", cells[12].Request.Seed)
	}
}

func TestInvalidSpecs(t *testing.T) {
	cases := map[string]Spec{
		"empty name":    {Scenarios: []Scenario{{Name: "a", Kind: "power"}}},
		"bad name":      {Name: "Bad Name", Scenarios: []Scenario{{Name: "a", Kind: "power"}}},
		"no scenarios":  {Name: "c"},
		"dup scenario":  {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "power"}, {Name: "a", Kind: "power"}}},
		"missing kind":  {Name: "c", Scenarios: []Scenario{{Name: "a"}}},
		"unknown kind":  {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "thermal"}}},
		"bad mode":      {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "reliability", Modes: []string{"fuzzy"}}}},
		"modes on pow":  {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "power", Modes: []string{"exact"}}}},
		"noise on rel":  {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "reliability", Noise: []float64{0.01}}}},
		"axes on fmap":  {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "faultmap", Scales: []uint64{8}}}},
		"repeat range":  {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "power", Repeat: 99}}},
		"bad pattern":   {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "reliability", PatternSets: [][]string{{"zebra"}}}}},
		"bad grid":      {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "power", Grid: []float64{9.9}}}},
		"batch on pow":  {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "power", Batch: 7}}},
		"scale not 2^n": {Name: "c", Scenarios: []Scenario{{Name: "a", Kind: "reliability", Scales: []uint64{3}}}},
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			if err := spec.Normalize(); err == nil {
				t.Fatalf("Normalize accepted invalid spec %q", name)
			}
		})
	}
}

func TestCellCapEnforced(t *testing.T) {
	seeds := make([]uint64, maxCells+1)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	spec := Spec{Name: "big", Scenarios: []Scenario{{Name: "a", Kind: "ecc-study", Seeds: seeds}}}
	if err := spec.Normalize(); err == nil {
		t.Fatal("Normalize accepted an over-cap campaign")
	}
}

// TestCellCountOverflowRejected: four axes of 2^16 entries each
// multiply to 2^64, which wraps an int to 0. Normalize must still
// refuse the spec with a *SpecError, promptly, instead of expanding it.
func TestCellCountOverflowRejected(t *testing.T) {
	const n = 1 << 16
	sc := Scenario{Name: "a", Kind: "reliability",
		Seeds: make([]uint64, n), Scales: make([]uint64, n),
		Modes: make([]string, n), PatternSets: make([][]string, n)}
	for i := range n {
		sc.Seeds[i], sc.Scales[i] = uint64(i), 1024
		sc.Modes[i], sc.PatternSets[i] = "sparse", []string{"all1"}
	}
	spec := Spec{Name: "overflow", Scenarios: []Scenario{sc}}
	errc := make(chan error, 1)
	go func() { errc <- spec.Normalize() }()
	select {
	case err := <-errc:
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("Normalize = %v, want a *SpecError", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Normalize still running after 1s on a spec whose cell count overflows")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","scenarios":[{"name":"a","kind":"power","voltages":[0.9]}]}`)); err == nil {
		t.Fatal("Parse accepted an unknown scenario field")
	}
}

// TestRunDeterminism pins the campaign acceptance contract: manifests
// and artifacts are byte-identical across runs and across concurrency
// settings (jobs × fleet).
func TestRunDeterminism(t *testing.T) {
	ctx := context.Background()
	run := func(jobs, fleet int) ([]byte, map[string][]byte) {
		t.Helper()
		res, err := Run(ctx, tinySpec(), Options{Jobs: jobs, Fleet: fleet})
		if err != nil {
			t.Fatal(err)
		}
		manifest, err := res.ManifestJSON()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := res.WriteArtifacts(dir); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return manifest, files
	}

	m1, f1 := run(1, 1)
	m8, f8 := run(4, 8)
	if !bytes.Equal(m1, m8) {
		t.Fatalf("manifest differs between (jobs=1,fleet=1) and (jobs=4,fleet=8):\n%s\nvs\n%s", m1, m8)
	}
	if len(f1) != len(f8) {
		t.Fatalf("artifact sets differ: %d vs %d files", len(f1), len(f8))
	}
	for name, data := range f1 {
		if !bytes.Equal(data, f8[name]) {
			t.Fatalf("artifact %s differs across concurrency settings", name)
		}
	}
	if len(f1) != len(tinySpec().Scenarios)+1 {
		t.Fatalf("wrote %d files, want one per scenario + manifest", len(f1))
	}
}

// TestCoalescing verifies duplicate cells — repeats and cross-scenario
// duplicates — coalesce onto single sweeps through the shared manager.
func TestCoalescing(t *testing.T) {
	spec := Spec{
		Name: "dup",
		Scenarios: []Scenario{
			{Name: "a", Kind: "ecc-study", Repeat: 3},
			{Name: "b", Kind: "ecc-study"}, // identical request to scenario a's cell
			{Name: "c", Kind: "faultmap"},
		},
	}
	mgr := openManager(t, service.Config{Workers: 2, QueueDepth: 16})
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), mgr, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Cells != 3 {
		t.Fatalf("cells = %d", res.Manifest.Cells)
	}
	if res.Manifest.UniqueSweeps != 2 {
		t.Fatalf("unique sweeps = %d, want 2", res.Manifest.UniqueSweeps)
	}
	if runs := mgr.Runs(); runs != 2 {
		t.Fatalf("manager executed %d sweeps, want 2 (coalescing failed)", runs)
	}
	// Duplicate cells carry identical payload hashes.
	ha := res.Manifest.Scenarios[0].Cells[0].SHA256
	hb := res.Manifest.Scenarios[1].Cells[0].SHA256
	if ha != hb {
		t.Fatalf("identical cells hash differently: %s vs %s", ha, hb)
	}
}

// TestExecuteBackpressure runs a campaign whose cell count exceeds the
// manager's queue depth; submission must apply backpressure rather than
// fail.
func TestExecuteBackpressure(t *testing.T) {
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	spec := Spec{
		Name:      "backpressure",
		Scenarios: []Scenario{{Name: "a", Kind: "ecc-study", Seeds: seeds, Grid: []float64{0.95, 0.90}}},
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	mgr := openManager(t, service.Config{Workers: 1, QueueDepth: 2})
	res, err := Execute(context.Background(), mgr, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Cells != len(seeds) {
		t.Fatalf("cells = %d, want %d", res.Manifest.Cells, len(seeds))
	}
}

// TestSubmitCellRetriesAfterDrain forces the queue-full race: a submit
// fails on a full queue, and by the time the engine scans for a pending
// execution of its own the worker has drained them all. The engine must
// retry the submit once rather than report the queue full; a second full
// queue with nothing of ours pending is other clients' load, and fails.
func TestSubmitCellRetriesAfterDrain(t *testing.T) {
	mgr := openManager(t, service.Config{Workers: 1, QueueDepth: 1})
	req := func(v float64) service.SweepRequest {
		return service.SweepRequest{
			Kind: service.KindReliability, Scale: 1024, Ports: []int{0},
			Patterns: []string{"all1"}, Grid: []float64{v}, Batch: 1,
		}
	}
	drained, _, _, err := mgr.SubmitOpts(req(0.90), service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := drained.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("drained execution: state %s, err %v", st, err)
	}
	execs := []execution{{cell: 0, job: drained}}

	t.Run("retry after drain succeeds", func(t *testing.T) {
		calls := 0
		j, err := submitCell(t.Context(), execs, func() (*service.Job, error) {
			if calls++; calls == 1 {
				return nil, service.ErrQueueFull
			}
			j, _, _, err := mgr.SubmitOpts(req(0.91), service.SubmitOptions{})
			return j, err
		})
		if err != nil {
			t.Fatalf("submit after the queue drained: %v", err)
		}
		if j == nil || calls != 2 {
			t.Fatalf("job %v after %d submits, want a job after 2", j, calls)
		}
	})
	t.Run("second full queue fails", func(t *testing.T) {
		calls := 0
		_, err := submitCell(t.Context(), execs, func() (*service.Job, error) {
			calls++
			return nil, service.ErrQueueFull
		})
		if !errors.Is(err, service.ErrQueueFull) {
			t.Fatalf("err = %v, want ErrQueueFull", err)
		}
		if calls != 2 {
			t.Fatalf("%d submits, want 2 (one retry)", calls)
		}
	})
}

// TestCancelStopsSubmittedCells pins Execute's cleanup contract: when
// the campaign's context is cancelled, every sweep it submitted to the
// shared manager is cancelled too, so an abandoned campaign stops
// consuming the worker pool.
func TestCancelStopsSubmittedCells(t *testing.T) {
	seeds := make([]uint64, 6)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	spec := Spec{
		Name: "cancelme",
		Scenarios: []Scenario{{
			Name:  "rel",
			Kind:  "reliability",
			Seeds: seeds,
			Ports: []int{18},
			Batch: 2,
		}},
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	mgr := openManager(t, service.Config{Workers: 1, QueueDepth: 16})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Execute(ctx, mgr, spec, Options{
		OnCell: func(done, total int) {
			if done == 1 {
				cancel() // abandon the campaign after its first cell
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
	// Every submitted sweep must drain (cancelled or already done) —
	// nothing may stay queued or running on the shared manager.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jobs := telemetrytest.Scrape(t, mgr.Metrics().Handler())
		if jobs[`hbmvolt_jobs{state="queued"}`] == 0 && jobs[`hbmvolt_jobs{state="running"}`] == 0 {
			if jobs[`hbmvolt_jobs{state="cancelled"}`] == 0 {
				t.Fatal("no sweeps were cancelled")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeps still active after campaign cancellation: %v queued, %v running",
				jobs[`hbmvolt_jobs{state="queued"}`], jobs[`hbmvolt_jobs{state="running"}`])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBuiltinPaperRepro(t *testing.T) {
	for _, smoke := range []bool{false, true} {
		spec, err := Builtin("paper-repro", smoke)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatalf("smoke=%v: %v", smoke, err)
		}
		cells, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) < 4 {
			t.Fatalf("smoke=%v: only %d cells", smoke, len(cells))
		}
	}
	if _, err := Builtin("nope", false); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// TestAdmissionBucketSharedWithSweeps: sweep and campaign submissions
// spend tokens from one per-client bucket, so a client cannot dodge its
// rate by wrapping sweeps in a campaign.
func TestAdmissionBucketSharedWithSweeps(t *testing.T) {
	srv, err := service.Open(service.Config{Workers: 1, RatePerSec: 0.001, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	mux := http.NewServeMux()
	NewAPI(srv.Manager()).Register(mux)
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(path, client, body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 2; i++ {
		if code := post("/v1/sweeps", "alice", `{"kind":"faultmap","grid":[0.90]}`); code >= 300 {
			t.Fatalf("sweep %d: HTTP %d", i, code)
		}
	}
	if code := post("/v1/campaigns", "alice", `{}`); code != http.StatusTooManyRequests {
		t.Fatalf("campaign after the sweeps spent alice's burst: HTTP %d, want 429", code)
	}
	// A fresh client is admitted, then refused for the empty body.
	if code := post("/v1/campaigns", "bob", `{}`); code != http.StatusBadRequest {
		t.Fatalf("bob's campaign: HTTP %d, want 400", code)
	}
}

// TestHTTPCampaignAPI drives the daemon-facing routes end to end and
// checks the HTTP path produces the same manifest as a direct run.
func TestHTTPCampaignAPI(t *testing.T) {
	mgr := openManager(t, service.Config{Workers: 2, QueueDepth: 32})
	mux := http.NewServeMux()
	NewAPI(mgr).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	spec := tinySpec()
	body, err := json.Marshal(SubmitBody{Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: status %d, %+v", resp.StatusCode, st)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		r, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still running: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != "done" || st.Manifest == nil {
		t.Fatalf("campaign finished %q (err %q), manifest %v", st.State, st.Error, st.Manifest != nil)
	}

	// The HTTP path's manifest matches a direct engine run byte for byte.
	direct, err := Run(context.Background(), tinySpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := report.Marshal(st.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP manifest differs from direct run:\n%s\nvs\n%s", got, want)
	}

	// List includes the run; bad submissions and unknown IDs error.
	r, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
	for name, bad := range map[string]string{
		"empty":        `{}`,
		"both":         `{"builtin":"paper-repro","spec":{"name":"x","scenarios":[{"name":"a","kind":"power"}]}}`,
		"bad builtin":  `{"builtin":"nope"}`,
		"invalid spec": `{"spec":{"name":"x","scenarios":[{"name":"a","kind":"thermal"}]}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	r, err = http.Get(ts.URL + "/v1/campaigns/cmp-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", r.StatusCode)
	}
}

// openManager opens a service manager and closes it with the test.
func openManager(t *testing.T, cfg service.Config) *service.Manager {
	t.Helper()
	mgr, err := service.OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr
}
