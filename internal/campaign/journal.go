package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"hbmvolt/internal/chaos"
	"hbmvolt/internal/report"
	"hbmvolt/internal/service"
)

// The campaign checkpoint journal is an append-only NDJSON file that
// makes an interrupted campaign resumable without breaking the
// byte-identical manifest contract. The first line binds the journal to
// one campaign realization (name, normalized-spec hash, cell count,
// planner mode); every following line records one completed cell: its
// campaign-order index, cache key, and payload SHA-256. Records are
// fsynced as they are appended, so a crash — power loss, SIGKILL, OOM
// — loses at most the record being written, never a completed one.
//
// On resume the engine replays the journal: a journaled cell whose
// payload is still in the manager's cache (the durable disk tier,
// normally) with a matching checksum is served from it and skipped;
// everything else — unjournaled cells, journaled cells whose cache
// entry was lost or corrupted — is recomputed. Either way the finished
// manifest is byte-identical to an uninterrupted run's, because every
// payload is a pure function of its normalized request.

// journalHeader is the first line, binding the file to one campaign
// realization. Resuming with a different spec, or the same spec under a
// different planner mode (which changes cell requests and keys), is
// refused rather than silently mixed.
type journalHeader struct {
	V                 int    `json:"v"`
	Campaign          string `json:"campaign"`
	SpecSHA256        string `json:"spec_sha256"`
	Cells             int    `json:"cells"`
	SharedEnumeration bool   `json:"shared_enumeration,omitempty"`
}

// journalRecord is one completed cell.
type journalRecord struct {
	Cell   int    `json:"cell"`
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// journal is an open checkpoint file positioned for appending.
type journal struct {
	f    *os.File
	path string
	// done maps campaign-order cell index → its journaled completion.
	done map[int]journalRecord
	// replayed counts records recovered from an existing file.
	replayed int
}

// specHash fingerprints the normalized spec deterministically.
func specHash(spec *Spec) (string, error) {
	blob, err := report.Marshal(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// openJournal opens (creating if absent) the checkpoint journal at
// path for the given campaign realization. An existing journal is
// replayed: the header must match, valid records populate done, and a
// torn final record — the crash caught mid-append — is truncated away
// so subsequent appends start on a clean line boundary.
func openJournal(path string, spec *Spec, cellCount int, shared bool) (*journal, error) {
	hash, err := specHash(spec)
	if err != nil {
		return nil, fmt.Errorf("campaign journal: hashing spec: %w", err)
	}
	header := journalHeader{
		V:                 1,
		Campaign:          spec.Name,
		SpecSHA256:        hash,
		Cells:             cellCount,
		SharedEnumeration: shared,
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign journal: %w", err)
	}
	j := &journal{f: f, path: path, done: make(map[int]journalRecord)}

	validBytes, err := j.replay(header, cellCount)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop any torn trailing record (or torn header — then the whole file)
	// and position at the end of the valid prefix; replay read through a
	// buffered reader, so the raw offset must be restored regardless.
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign journal: truncating torn record: %w", err)
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign journal: %w", err)
	}
	if validBytes == 0 {
		// Fresh (or fully torn) journal: write and sync the binding header.
		if err := j.writeLine(header); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign journal: writing header: %w", err)
		}
	}
	return j, nil
}

// replay scans an existing journal, verifying the header and loading
// completed-cell records. It returns the byte length of the valid
// prefix (0 for an empty file). Scanning stops at the first torn or
// malformed line: the file is append-only, so everything before it is
// trustworthy and everything after it is the tail of a crash.
func (j *journal) replay(want journalHeader, cellCount int) (int64, error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("campaign journal: %w", err)
	}
	rd := bufio.NewReader(j.f)
	var valid int64
	first := true
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			// No trailing newline (or a read error): whatever was read is a
			// torn record; the valid prefix ends before it. A torn first
			// line is only a torn header if it is a prefix of the header
			// this open would write; anything else is not our file, and
			// truncating it would destroy someone's data.
			if first && len(line) > 0 {
				header, merr := json.Marshal(want)
				if merr != nil || !bytes.HasPrefix(append(header, '\n'), line) {
					return 0, fmt.Errorf("campaign journal %s: unreadable header (not a journal?)", j.path)
				}
			}
			return valid, nil
		}
		trimmed := bytes.TrimSpace(line)
		if first {
			first = false
			var got journalHeader
			if json.Unmarshal(trimmed, &got) != nil {
				return 0, fmt.Errorf("campaign journal %s: unreadable header (not a journal?)", j.path)
			}
			if got != want {
				return 0, fmt.Errorf("campaign journal %s: belongs to a different campaign realization (have %s/%s…, want %s/%s…); use a fresh journal path",
					j.path, got.Campaign, shortHash(got.SpecSHA256), want.Campaign, shortHash(want.SpecSHA256))
			}
			valid += int64(len(line))
			continue
		}
		var rec journalRecord
		if json.Unmarshal(trimmed, &rec) != nil || rec.Cell < 0 || rec.Cell >= cellCount {
			// Malformed or out-of-range: treat as the torn tail.
			return valid, nil
		}
		j.done[rec.Cell] = rec
		j.replayed++
		valid += int64(len(line))
	}
}

func shortHash(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}

// writeLine appends one JSON line and fsyncs it.
func (j *journal) writeLine(v any) error {
	if err := chaos.Inject("journal.append"); err != nil {
		return err
	}
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if _, err := j.f.Write(blob); err != nil {
		return err
	}
	return j.f.Sync()
}

// completed returns the journaled record for a cell, if any.
func (j *journal) completed(cell int) (journalRecord, bool) {
	rec, ok := j.done[cell]
	return rec, ok
}

// append records a completed cell durably. The record is fsynced before
// append returns: once the engine moves on, a crash cannot unrecord the
// cell.
func (j *journal) append(cell int, key uint64, payload []byte) error {
	sum := sha256.Sum256(payload)
	rec := journalRecord{
		Cell:   cell,
		Key:    service.FormatKey(key),
		SHA256: hex.EncodeToString(sum[:]),
		Bytes:  len(payload),
	}
	if err := j.writeLine(rec); err != nil {
		return fmt.Errorf("campaign journal: recording cell %d: %w", cell, err)
	}
	j.done[cell] = rec
	return nil
}

// Close closes the journal file (records are already synced).
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
