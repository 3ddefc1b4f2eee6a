package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hbmvolt/internal/chaos"
	tlog "hbmvolt/internal/telemetry/log"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// logCapture collects the tier's structured JSON log lines so tests
// assert on fields (event, key, subsys), not message substrings.
type logCapture struct {
	buf bytes.Buffer
}

// records decodes every captured line.
func (c *logCapture) records(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(c.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// withEvent filters records to those whose "event" field matches.
func (c *logCapture) withEvent(t *testing.T, event string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, rec := range c.records(t) {
		if rec["event"] == event {
			out = append(out, rec)
		}
	}
	return out
}

func collectLogs(t *testing.T) (*tlog.Logger, *logCapture) {
	t.Helper()
	cap := &logCapture{}
	return tlog.New(&cap.buf, tlog.LevelDebug), cap
}

func newTestDiskTier(t *testing.T, maxBytes int64) (*DiskTier, *logCapture) {
	t.Helper()
	logger, logs := collectLogs(t)
	d, err := NewDiskTier(t.TempDir(), maxBytes, logger)
	if err != nil {
		t.Fatal(err)
	}
	return d, logs
}

func TestDiskTierRoundTrip(t *testing.T) {
	d, _ := newTestDiskTier(t, 0)
	payload := []byte(`{"kind":"reliability","data":[1,2,3]}` + "\n")
	d.Put(42, payload)
	got, ok := d.Get(42)
	if !ok {
		t.Fatal("entry missing after Put")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	if d.Len() != 1 || d.Bytes() != int64(len(payload)) {
		t.Fatalf("len=%d bytes=%d", d.Len(), d.Bytes())
	}
	// First write wins; a duplicate Put never rewrites the file.
	before, err := os.ReadFile(d.path(42))
	if err != nil {
		t.Fatal(err)
	}
	d.Put(42, []byte("different"))
	after, err := os.ReadFile(d.path(42))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("duplicate Put rewrote the entry file")
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(d.Dir())
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}

func TestDiskTierRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	logger, _ := collectLogs(t)
	d, err := NewDiskTier(dir, 0, logger)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[uint64][]byte{
		1: []byte("payload-one"),
		2: []byte("payload-two"),
		3: []byte("payload-three"),
	}
	for k, p := range payloads {
		d.Put(k, p)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Sabotage between "runs": corrupt entry 2's payload bits, truncate
	// entry 3 mid-payload (a torn write), drop a stray temp file.
	corrupt, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%016x.cache", uint64(2))))
	if err != nil {
		t.Fatal(err)
	}
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x.cache", uint64(2))), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, fmt.Sprintf("%016x.cache", uint64(3))), int64(len("hbmvolt"))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-12345"), []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}

	logger2, logs := collectLogs(t)
	d2, err := NewDiskTier(dir, 0, logger2)
	if err != nil {
		t.Fatal(err)
	}
	st := d2.Stats()
	if st.Recovered != 1 || st.Discarded != 3 {
		t.Fatalf("recovery stats = %+v, want 1 recovered / 3 discarded", st)
	}
	if got, ok := d2.Get(1); !ok || !bytes.Equal(got, payloads[1]) {
		t.Fatal("healthy entry not recovered byte-identical")
	}
	for _, k := range []uint64{2, 3} {
		if _, ok := d2.Get(k); ok {
			t.Fatalf("corrupt/torn entry %d served after recovery", k)
		}
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("%016x.cache", k))); !os.IsNotExist(err) {
			t.Fatalf("corrupt/torn entry %d file not deleted", k)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-12345")); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived recovery")
	}
	// The discards were reported as structured records naming their
	// event and subsystem — two corrupt/torn entries plus one temp file.
	if got := len(logs.withEvent(t, "discarded")); got != 2 {
		t.Fatalf("want 2 structured 'discarded' records, got %d: %v", got, logs.records(t))
	}
	if got := len(logs.withEvent(t, "torn_temp_removed")); got != 1 {
		t.Fatalf("want 1 'torn_temp_removed' record, got %d", got)
	}
	for _, rec := range logs.records(t) {
		if rec["subsys"] != "disktier" || rec["level"] != "warn" {
			t.Fatalf("record missing subsys/level fields: %v", rec)
		}
	}
}

func TestDiskTierReadVerification(t *testing.T) {
	d, logs := newTestDiskTier(t, 0)
	d.Put(7, []byte("some payload bytes"))

	// Flip one payload byte under the tier's feet.
	path := d.path(7)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-3] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(7); ok {
		t.Fatal("corrupted entry served instead of discarded")
	}
	if st := d.Stats(); st.Discarded != 1 || d.Len() != 0 {
		t.Fatalf("stats after corrupt read = %+v, %d entries", st, d.Len())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not unlinked")
	}
	// The discard is a structured record carrying the entry key, not a
	// substring in prose.
	discards := logs.withEvent(t, "discarded")
	if len(discards) != 1 {
		t.Fatalf("want 1 structured 'discarded' record, got %v", logs.records(t))
	}
	if discards[0]["key"] != FormatKey(7) || discards[0]["err"] == "" {
		t.Fatalf("discard record missing key/err fields: %v", discards[0])
	}
	// Re-Put recomputed bytes: the entry is servable again.
	d.Put(7, []byte("some payload bytes"))
	if _, ok := d.Get(7); !ok {
		t.Fatal("entry not servable after recompute")
	}
}

func TestDiskTierByteBoundEviction(t *testing.T) {
	d, _ := newTestDiskTier(t, 25)
	d.Put(1, make([]byte, 10))
	d.Put(2, make([]byte, 10))
	d.Get(1) // refresh 1; 2 becomes LRU
	d.Put(3, make([]byte, 10))
	if _, ok := d.Get(2); ok {
		t.Fatal("LRU entry survived byte-pressure eviction")
	}
	if _, err := os.Stat(d.path(2)); !os.IsNotExist(err) {
		t.Fatal("evicted entry's file not unlinked")
	}
	if st := d.Stats(); st.Evicted != 1 || d.Len() != 2 || d.Bytes() != 20 {
		t.Fatalf("stats = %+v, %d entries, %d bytes", st, d.Len(), d.Bytes())
	}
}

func TestDiskTierWriteFaultInjection(t *testing.T) {
	d, logs := newTestDiskTier(t, 0)
	defer chaos.Activate(chaos.NewPlan().Set("disktier.write", chaos.Fault{
		Err: errors.New("injected ENOSPC"), Count: 1,
	}))()
	d.Put(9, []byte("lost to the injected write error"))
	if _, ok := d.Get(9); ok {
		t.Fatal("entry served though its write failed")
	}
	if got := logs.withEvent(t, "write_failed"); len(got) != 1 || got[0]["key"] != FormatKey(9) {
		t.Fatalf("failed write not logged as structured record: %v", logs.records(t))
	}
	// The tier keeps working after the fault clears.
	d.Put(9, []byte("second attempt"))
	if got, ok := d.Get(9); !ok || string(got) != "second attempt" {
		t.Fatal("tier did not recover after write fault")
	}
}

func TestTieredCacheWriteThroughAndPromotion(t *testing.T) {
	mem := NewMemoryTier(2, 1<<20)
	logger, _ := collectLogs(t)
	disk, err := NewDiskTier(t.TempDir(), 0, logger)
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(nil, mem, disk)

	c.Put(1, []byte("one"))
	if disk.Len() != 1 {
		t.Fatal("Put did not write through to disk")
	}
	// Overflow the memory tier; entry 1 ages out of memory but stays on
	// disk.
	c.Put(2, []byte("two"))
	c.Put(3, []byte("three"))
	if mem.Len() != 2 || disk.Len() != 3 {
		t.Fatalf("mem=%d disk=%d", mem.Len(), disk.Len())
	}
	if _, ok := mem.Get(1); ok {
		t.Fatal("entry 1 still in memory tier")
	}
	got, tier, ok := c.Get(1)
	if !ok || string(got) != "one" || tier != "disk" {
		t.Fatalf("disk-tier hit failed: tier %q", tier)
	}
	if c.diskHit.Value() != 1 {
		t.Fatalf("disk hits = %d, want 1", c.diskHit.Value())
	}
	// The hit promoted the entry back into memory.
	if _, ok := mem.Get(1); !ok {
		t.Fatal("disk hit not promoted to memory tier")
	}
	hits, misses := c.memHit.Value()+c.diskHit.Value(), c.diskMiss.Value()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if _, _, ok := c.Get(99); ok {
		t.Fatal("phantom entry")
	}
	if m := c.diskMiss.Value(); m != 1 {
		t.Fatalf("miss not counted: %d", m)
	}
}

// TestManagerDiskTierSurvivesRestart is the tentpole invariant at the
// manager level: a manager with a cache dir computes a sweep once; a
// fresh manager over the same dir — a new process after SIGKILL, as far
// as the cache is concerned — serves the byte-identical payload without
// recomputing.
func TestManagerDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := SweepRequest{Kind: KindReliability, Scale: 1024, Ports: []int{0}, Patterns: []string{"all1"}, Grid: []float64{0.90}, Batch: 1}

	m1, err := OpenManager(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, _, _, err := m1.SubmitOpts(req, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := j.Wait(t.Context()); st != StateDone {
		t.Fatalf("job state %s", st)
	}
	first := j.Payload()
	if m1.Runs() != 1 {
		t.Fatalf("runs = %d", m1.Runs())
	}
	m1.Close()

	m2, err := OpenManager(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := telemetrytest.Scrape(t, m2.Metrics().Handler())["hbmvolt_disk_recovered_entries_total"]; got != 1 {
		t.Fatalf("restart recovered %v entries, want 1", got)
	}
	j2, _, cacheHit, err := m2.SubmitOpts(req, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cacheHit {
		t.Fatal("restarted manager recomputed a durable entry")
	}
	if st, _ := j2.Wait(t.Context()); st != StateDone {
		t.Fatalf("job state %s", st)
	}
	if !bytes.Equal(first, j2.Payload()) {
		t.Fatal("restart re-read is not byte-identical")
	}
	if m2.Runs() != 0 {
		t.Fatalf("restarted manager ran %d sweeps, want 0", m2.Runs())
	}
}

// FuzzDiskTierLoad feeds arbitrary bytes to the entry parser as the
// content of one cache file. load must either reject the file or return
// a payload whose length and SHA-256 match the header's size and
// checksum fields, and a key equal to the header's key field: an entry
// the parser accepts is exactly what the header promises.
func FuzzDiskTierLoad(f *testing.F) {
	d, err := NewDiskTier(f.TempDir(), 0, tlog.New(io.Discard, tlog.LevelError))
	if err != nil {
		f.Fatal(err)
	}
	path := d.path(0x0123456789abcdef)
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		key, payload, err := d.load(path)
		if err != nil {
			return
		}
		header, rest, ok := bytes.Cut(blob, []byte("\n"))
		if !ok {
			t.Fatalf("accepted a file without a header line")
		}
		fields := strings.Fields(string(header))
		if len(fields) != 5 {
			t.Fatalf("accepted header %q", header)
		}
		if !bytes.Equal(payload, rest) {
			t.Fatalf("payload is not the bytes after the header")
		}
		if size, err := strconv.Atoi(fields[4]); err != nil || size != len(payload) {
			t.Fatalf("payload is %d bytes, header says %q", len(payload), fields[4])
		}
		if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != fields[3] {
			t.Fatalf("payload SHA-256 %x, header says %q", sum, fields[3])
		}
		if !strings.EqualFold(fmt.Sprintf("%016x", key), fields[2]) {
			t.Fatalf("key %016x, header says %q", key, fields[2])
		}
	})
}
