package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"hbmvolt/internal/chaos"
	"hbmvolt/internal/lru"
	tlog "hbmvolt/internal/telemetry/log"
)

// DiskTier is the crash-durable cache tier: one file per payload under a
// cache directory, written atomically and verified on every read.
//
// On-disk layout (documented in README "Resilience"):
//
//	<dir>/<16-hex-key>.cache
//
// Each file is a one-line header followed by the raw payload bytes:
//
//	hbmvolt-cache 1 <16-hex-key> <64-hex-sha256-of-payload> <payload-size>\n
//	<payload bytes>
//
// Durability discipline:
//
//   - Writes go to a ".tmp-*" file in the same directory, are fsynced,
//     then renamed into place (atomic on POSIX), then the directory is
//     fsynced — a crash at any point leaves either the old state or the
//     complete new entry, never a half-visible one.
//   - Every read re-verifies the header's SHA-256 against the payload
//     bytes; a mismatch (bit rot, torn write that survived rename,
//     manual tampering) is logged, the entry is discarded, and the read
//     reports a miss — corrupt bytes are recomputed, never served.
//   - Boot runs a recovery scan: every ".cache" file is verified and
//     repopulates the index; torn or corrupt files and stray temp files
//     are deleted and counted.
//
// The index is byte-bounded (MaxBytes; 0 = unbounded): least recently
// used entries are evicted and their files unlinked under pressure.
type DiskTier struct {
	dir string

	mu    sync.Mutex
	index *lru.Cache[uint64, int64] // key → payload size

	recovered int
	discarded int
	evicted   int

	// log carries the tier's structured discard/eviction reports, with
	// subsys=disktier pre-bound; every record names its event and entry.
	log *tlog.Logger
}

// DiskStats snapshots the disk tier's counters, which the
// hbmvolt_disk_* and hbmvolt_cache_evictions_total families sample.
type DiskStats struct {
	// Recovered counts entries the boot scan verified and repopulated.
	Recovered int
	// Discarded counts torn/corrupt entries dropped (boot scan and
	// read-time verification failures).
	Discarded int
	// Evicted counts capacity evictions (files unlinked under MaxBytes
	// pressure).
	Evicted int
}

// diskHeaderMagic identifies (and versions) the entry file format.
const diskHeaderMagic = "hbmvolt-cache 1"

// NewDiskTier opens (creating if needed) a disk tier rooted at dir and
// runs the recovery scan. maxBytes bounds total retained payload bytes
// (0 = unbounded). logger receives a structured JSON record for every
// discarded entry; nil falls back to a stderr logger, so corruption
// reports stay loud by default.
func NewDiskTier(dir string, maxBytes int64, logger *tlog.Logger) (*DiskTier, error) {
	if logger == nil {
		logger = tlog.New(os.Stderr, tlog.LevelInfo)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk cache tier: %w", err)
	}
	d := &DiskTier{
		dir:   dir,
		index: lru.New[uint64, int64](0, maxBytes),
		log:   logger.With(tlog.F("subsys", "disktier")),
	}
	d.index.OnEvict(func(key uint64, _ int64) {
		// Called with d.mu held (every index mutation is under it).
		d.evicted++
		if err := os.Remove(d.path(key)); err != nil && !os.IsNotExist(err) {
			d.log.Warn("unlinking evicted entry failed",
				tlog.F("event", "evict_unlink_failed"), tlog.F("key", FormatKey(key)), tlog.Err(err))
		}
	})
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// Dir returns the tier's root directory.
func (d *DiskTier) Dir() string { return d.dir }

func (d *DiskTier) path(key uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("%016x.cache", key))
}

// recover scans the cache directory, verifying every entry end to end:
// verified entries repopulate the index, torn/corrupt entries and stray
// temp files are deleted. Scan order is name order, i.e. key order —
// deterministic, so a bounded tier's post-recovery population does not
// depend on directory iteration order.
func (d *DiskTier) recover() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("disk cache tier: recovery scan: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ent := range entries {
		name := ent.Name()
		full := filepath.Join(d.dir, name)
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".tmp-") {
			// A write the crash interrupted before rename; the entry was
			// never visible, so removal loses nothing.
			os.Remove(full)
			d.discarded++
			d.log.Warn("recovery removed torn temp file",
				tlog.F("event", "torn_temp_removed"), tlog.F("file", name))
			continue
		}
		if !strings.HasSuffix(name, ".cache") {
			continue // not ours; leave it alone
		}
		key, payload, err := d.load(full)
		if err != nil {
			os.Remove(full)
			d.discarded++
			d.log.Warn("recovery discarded corrupt entry",
				tlog.F("event", "discarded"), tlog.F("file", name), tlog.Err(err))
			continue
		}
		if fmt.Sprintf("%016x.cache", key) != name {
			os.Remove(full)
			d.discarded++
			d.log.Warn("recovery discarded entry: header key does not match filename",
				tlog.F("event", "discarded"), tlog.F("file", name), tlog.F("header_key", FormatKey(key)))
			continue
		}
		d.index.Add(key, int64(len(payload)), int64(len(payload)))
		d.recovered++
	}
	return nil
}

// load reads and fully verifies one entry file, returning its header
// key and payload.
func (d *DiskTier) load(path string) (uint64, []byte, error) {
	if err := chaos.Inject("disktier.read"); err != nil {
		return 0, nil, err
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	nl := -1
	for i, b := range blob {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return 0, nil, fmt.Errorf("no header line")
	}
	header := string(blob[:nl])
	fields := strings.Fields(header)
	if len(fields) != 5 || fields[0]+" "+fields[1] != diskHeaderMagic {
		return 0, nil, fmt.Errorf("malformed header %q", header)
	}
	key, err := strconv.ParseUint(fields[2], 16, 64)
	if err != nil || len(fields[2]) != 16 {
		return 0, nil, fmt.Errorf("malformed header key %q", fields[2])
	}
	shaHex := fields[3]
	if len(shaHex) != 64 {
		return 0, nil, fmt.Errorf("malformed header checksum %q", shaHex)
	}
	size, err := strconv.Atoi(fields[4])
	if err != nil || size < 0 {
		return 0, nil, fmt.Errorf("malformed header size %q", fields[4])
	}
	payload := blob[nl+1:]
	if len(payload) != size {
		return 0, nil, fmt.Errorf("payload is %d bytes, header says %d (torn write)", len(payload), size)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != shaHex {
		return 0, nil, fmt.Errorf("payload SHA-256 mismatch (corruption)")
	}
	return key, payload, nil
}

// Get returns the payload for key after re-verifying its checksum. Any
// verification or read failure is logged, the entry is discarded, and
// the result is a miss: the caller recomputes instead of trusting
// corrupt bytes.
func (d *DiskTier) Get(key uint64) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.index.Get(key); !ok {
		return nil, false
	}
	gotKey, payload, err := d.load(d.path(key))
	if err == nil && gotKey != key {
		err = fmt.Errorf("header key %016x does not match requested %016x", gotKey, key)
	}
	if err != nil {
		d.index.Remove(key)
		if rmErr := os.Remove(d.path(key)); rmErr != nil && !os.IsNotExist(rmErr) {
			d.log.Warn("removing corrupt entry failed",
				tlog.F("event", "discard_unlink_failed"), tlog.F("key", FormatKey(key)), tlog.Err(rmErr))
		}
		d.discarded++
		d.log.Warn("discarded entry on read; will recompute",
			tlog.F("event", "discarded"), tlog.F("key", FormatKey(key)), tlog.Err(err))
		return nil, false
	}
	return payload, true
}

// Put durably stores a payload: temp file, fsync, rename, directory
// fsync. An existing entry only has its recency refreshed (first write
// wins, like every tier). Write failures are logged and leave the tier
// without the entry — the cache stays correct, merely less durable.
func (d *DiskTier) Put(key uint64, payload []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.index.Get(key); ok {
		return
	}
	if err := d.write(key, payload); err != nil {
		d.log.Warn("writing entry failed; entry not persisted",
			tlog.F("event", "write_failed"), tlog.F("key", FormatKey(key)), tlog.Err(err))
		return
	}
	d.index.Add(key, int64(len(payload)), int64(len(payload)))
}

// write performs the atomic entry write (d.mu held).
func (d *DiskTier) write(key uint64, payload []byte) error {
	if err := chaos.Inject("disktier.write"); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %016x %s %d\n", diskHeaderMagic, key, hex.EncodeToString(sum[:]), len(payload))
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	if _, err := tmp.WriteString(header); err != nil {
		cleanup()
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return d.syncDir()
}

// syncDir fsyncs the cache directory so renames are durable.
func (d *DiskTier) syncDir() error {
	dir, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Len returns the live entry count.
func (d *DiskTier) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.index.Len()
}

// Bytes returns the total payload bytes retained on disk (header bytes
// excluded — the bound is about payload retention, like the memory
// tier's).
func (d *DiskTier) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.index.Bytes()
}

// Stats snapshots the tier's counters.
func (d *DiskTier) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Recovered: d.recovered,
		Discarded: d.discarded,
		Evicted:   d.evicted,
	}
}

// Close flushes the tier: entry writes are already synchronous, so this
// is a final directory fsync.
func (d *DiskTier) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncDir()
}
