package main

// CPU-profile attribution for the traced run. runtime/pprof writes a
// gzipped profile.proto; this file decodes the few fields attribution
// needs (sample stacks, values and labels; locations; function names)
// and splits CPU time across the repository's modules.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one profile sample: its stack as function names, innermost
// frame first (inlined frames expanded), its CPU time in nanoseconds,
// and its string labels.
type sample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// pbReader walks protobuf wire format.
type pbReader struct{ b []byte }

var errProto = errors.New("perfbench: malformed profile")

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errProto
}

// field reads the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped and reported as value 0.
func (r *pbReader) field() (num int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		return 0, 0, nil, errProto
	}
	return num, val, data, err
}

// uints appends a repeated integer field, packed (data) or not (val).
func uints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a CPU profile as runtime/pprof writes it.
func parseProfile(data []byte) ([]sample, error) {
	if zr, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("perfbench: decompressing profile: %w", err)
		}
	}
	type rawSample struct {
		locs, vals []uint64
		labels     [][2]uint64 // string-table indices of key and value
	}
	var (
		raws    []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name index
		strtab  []string
		profile = pbReader{data}
	)
	for len(profile.b) > 0 {
		num, _, msg, err := profile.field()
		if err != nil {
			return nil, err
		}
		r := pbReader{msg}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(r.b) > 0 {
				n, v, d, err := r.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					s.vals, err = uints(s.vals, v, d)
				case 3:
					var kv [2]uint64
					lr := pbReader{d}
					for len(lr.b) > 0 {
						ln, lv, _, lerr := lr.field()
						if lerr != nil {
							return nil, lerr
						}
						if ln == 1 || ln == 2 {
							kv[ln-1] = lv
						}
					}
					s.labels = append(s.labels, kv)
				}
				if err != nil {
					return nil, err
				}
			}
			raws = append(raws, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(r.b) > 0 {
				n, v, d, err := r.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					lr := pbReader{d}
					for len(lr.b) > 0 {
						ln, lv, _, lerr := lr.field()
						if lerr != nil {
							return nil, lerr
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(r.b) > 0 {
				n, v, _, err := r.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strtab = append(strtab, string(msg))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		s := sample{}
		if len(rs.vals) > 0 {
			s.nanos = int64(rs.vals[len(rs.vals)-1])
		}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				s.stack = append(s.stack, str(funcs[f]))
			}
		}
		for _, kv := range rs.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// pkgOf returns the import path of a Go symbol name, e.g. "net/http"
// for "net/http.(*conn).serve" and "hbmvolt/internal/lru" for a method
// of a generic type instantiated with a path-bearing type argument.
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// module is the repository layer a package belongs to: the directory
// under internal/ (telemetry/log folds into telemetry), "hbmvolt" for
// the root package, "harness" for this benchmark, "" for code outside
// the repository.
func module(pkg string) string {
	switch {
	case pkg == "hbmvolt":
		return "hbmvolt"
	case pkg == "main" || pkg == "hbmvolt/perfbench":
		return "harness"
	case strings.HasPrefix(pkg, "hbmvolt/internal/"):
		m := strings.TrimPrefix(pkg, "hbmvolt/internal/")
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		return m
	}
	return ""
}

// selfModule attributes a stack to the innermost repository frame's
// module: a module's self time includes the standard-library and
// runtime work it calls directly, but not calls into other modules.
// Stacks with no repository frame (network goroutines, background GC)
// return "".
func selfModule(stack []string) string {
	for _, fn := range stack {
		if m := module(pkgOf(fn)); m != "" {
			return m
		}
	}
	return ""
}

// Functions whose cumulative time the per-layer ledger reports.
const (
	fnKernel      = "hbmvolt/internal/faults.(*Sampler).sparseRowFaults"
	fnPatternPass = "hbmvolt/internal/faults.(*Enumeration).PatternFlips"
	fnMarshal     = "hbmvolt/internal/report.Marshal"
	fnDiskWrite   = "hbmvolt/internal/service.(*DiskTier).write"
)

// frameIndex is the position of fn in stack (innermost first), or -1.
func frameIndex(stack []string, fn string) int {
	for i, f := range stack {
		if f == fn {
			return i
		}
	}
	return -1
}

// isSort reports whether a frame is sorting work: the sort, slices and
// reflectlite (sort.Slice's swapper) packages, or any function named
// for sorting.
func isSort(fn string) bool {
	switch pkgOf(fn) {
	case "sort", "slices", "internal/reflectlite":
		return true
	}
	return strings.Contains(strings.ToLower(fn[strings.LastIndexByte(fn, '/')+1:]), "sort")
}

// isTransport reports whether a stack is network transport: its
// innermost frame outside the runtime is in the net, net/http or
// syscall layers, under a net-package caller (a file fsync is not
// transport).
func isTransport(stack []string) bool {
	inner := ""
	for _, fn := range stack {
		if p := pkgOf(fn); !strings.HasPrefix(p, "runtime") && !strings.HasPrefix(p, "internal/runtime") {
			inner = p
			break
		}
	}
	switch inner {
	case "net", "net/http", "net/http/internal", "net/textproto", "internal/poll", "syscall", "bufio":
	default:
		return false
	}
	for _, fn := range stack {
		if p := pkgOf(fn); p == "net" || p == "net/http" {
			return true
		}
	}
	return false
}

// hasPkg reports whether any frame of stack is in package pkg.
func hasPkg(stack []string, pkg string) bool {
	for _, fn := range stack {
		if pkgOf(fn) == pkg {
			return true
		}
	}
	return false
}

// checkLabel marks the harness's own output checks in the profile, so
// attribution can leave them out of every layer's share.
const checkLabel = "perfbench"

// cpuShares splits a profile's CPU time: per-module self shares under
// "<module>.cpu_share" (report's is cumulative under report.Marshal),
// and the cumulative shares the ledger names.
// Samples labeled as harness checks are excluded from the total and
// reported alone as "harness.check_cpu_share" of all samples.
func cpuShares(samples []sample) map[string]float64 {
	var all, total int64
	acc := map[string]int64{}
	for _, s := range samples {
		all += s.nanos
		if s.labels[checkLabel] != "" {
			acc["harness.check"] += s.nanos
			continue
		}
		total += s.nanos
		// report's share is reported cumulatively under report.Marshal.
		if m := selfModule(s.stack); m != "" && m != "report" {
			acc[m+".cpu_share"] += s.nanos
		}
		if k := frameIndex(s.stack, fnKernel); k >= 0 {
			acc["faults.kernel_cpu_share"] += s.nanos
			for _, fn := range s.stack[:k] {
				if isSort(fn) {
					acc["faults.sort_cpu_share"] += s.nanos
					break
				}
			}
		}
		for name, fn := range map[string]string{
			"faults.pattern_pass_cpu_share": fnPatternPass,
			"report.cpu_share":              fnMarshal,
			"service.disk_write_cpu_share":  fnDiskWrite,
		} {
			if frameIndex(s.stack, fn) >= 0 {
				acc[name] += s.nanos
			}
		}
		if isTransport(s.stack) {
			acc["transport.cpu_share"] += s.nanos
		}
		if hasPkg(s.stack, "encoding/json") {
			acc["json.cpu_share"] += s.nanos
		}
	}
	out := map[string]float64{}
	for k, v := range acc {
		if k == "harness.check" {
			out["harness.check_cpu_share"] = float64(v) / float64(max(all, 1))
			continue
		}
		out[k] = float64(v) / float64(max(total, 1))
	}
	return out
}
