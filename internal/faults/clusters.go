package faults

import (
	"cmp"
	"slices"
	"sort"

	"hbmvolt/internal/prf"
)

// rowRange is a half-open range [Lo, Hi) of row indices belonging to a
// weak-cell cluster.
type rowRange struct {
	Lo, Hi uint64
}

// clusterSet holds the merged, sorted weak-cell clusters of one pseudo
// channel, plus the exact coverage bookkeeping the analytic path needs.
type clusterSet struct {
	ranges []rowRange
	// coveredRows is the total number of distinct rows inside clusters.
	coveredRows uint64
	// prefix[i] is the number of covered rows in ranges[0..i-1]; used for
	// O(log n) covered-row counting within arbitrary row windows.
	prefix []uint64
}

// buildClusters deterministically places cnt clusters covering ~frac of
// rowsPerPC rows. Placement is a pure function of (seed, stack, pc), so
// the same configuration always yields the same physical weak regions.
func buildClusters(seed uint64, stack, pc int, rowsPerPC uint64, frac float64, cnt int) clusterSet {
	if cnt <= 0 || frac <= 0 || rowsPerPC == 0 {
		return clusterSet{prefix: []uint64{0}}
	}
	targetRows := float64(rowsPerPC) * frac
	meanLen := targetRows / float64(cnt)
	if meanLen < 1 {
		meanLen = 1
	}
	src := prf.NewSource(prf.Hash3(seed, uint64(stack)<<8|uint64(pc), saltCluster))
	raw := make([]rowRange, 0, cnt)
	for i := 0; i < cnt; i++ {
		// Length uniform in [0.5, 1.5) x mean keeps cluster sizes "small
		// regions" without degenerate single-row spans.
		length := uint64(meanLen * (0.5 + src.Float64()))
		if length == 0 {
			length = 1
		}
		if length > rowsPerPC {
			length = rowsPerPC
		}
		start := uint64(src.Intn(int(rowsPerPC)))
		end := start + length
		if end > rowsPerPC {
			end = rowsPerPC
		}
		if start < end {
			raw = append(raw, rowRange{start, end})
		}
	}
	slices.SortFunc(raw, func(a, b rowRange) int { return cmp.Compare(a.Lo, b.Lo) })
	// Merge overlaps, in place, so coverage accounting is exact. Ranges
	// with equal Lo merge to the same result in either order.
	merged := raw[:0]
	for _, r := range raw {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	cs := clusterSet{ranges: merged, prefix: make([]uint64, len(merged)+1)}
	for i, r := range merged {
		cs.coveredRows += r.Hi - r.Lo
		cs.prefix[i+1] = cs.coveredRows
	}
	return cs
}

// contains reports whether row lies inside a cluster.
func (c *clusterSet) contains(row uint64) bool {
	i := sort.Search(len(c.ranges), func(i int) bool { return c.ranges[i].Hi > row })
	return i < len(c.ranges) && c.ranges[i].Lo <= row
}

// coveredIn returns how many rows of the window [lo, hi) lie inside
// clusters.
func (c *clusterSet) coveredIn(lo, hi uint64) uint64 {
	if lo >= hi || len(c.ranges) == 0 {
		return 0
	}
	// First range that ends after lo.
	i := sort.Search(len(c.ranges), func(i int) bool { return c.ranges[i].Hi > lo })
	var covered uint64
	for ; i < len(c.ranges) && c.ranges[i].Lo < hi; i++ {
		l, h := c.ranges[i].Lo, c.ranges[i].Hi
		if l < lo {
			l = lo
		}
		if h > hi {
			h = hi
		}
		if l < h {
			covered += h - l
		}
	}
	return covered
}

// coverage returns the fraction of the PC's rows inside clusters.
func (c *clusterSet) coverage(rowsPerPC uint64) float64 {
	if rowsPerPC == 0 {
		return 0
	}
	return float64(c.coveredRows) / float64(rowsPerPC)
}

// Ranges returns a copy of the merged cluster row ranges (for reporting
// and visualization).
func (c *clusterSet) Ranges() []rowRange {
	return append([]rowRange(nil), c.ranges...)
}
