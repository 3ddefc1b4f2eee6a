package faults

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

// builtPCs lists the PCs whose clusters m has built. buildClusters
// always returns a non-nil prefix, so a nil one marks a PC not built.
func builtPCs(m *Model) []int {
	var out []int
	for i := range m.pcs {
		if m.pcs[i].set.prefix != nil {
			out = append(out, i)
		}
	}
	return out
}

// TestLazyClustersMatchEagerBuild: whatever reader touches a PC first,
// and in whatever order the PCs are touched, every PC's clusters are
// the ones buildClusters places for it, for several seeds and
// geometries, 3-word rows included.
func TestLazyClustersMatchEagerBuild(t *testing.T) {
	geoms := []Geometry{DefaultGeometry, {WordsPerPC: 4096, WordsPerRow: 8}, {WordsPerPC: 3 << 10, WordsPerRow: 3}}
	readers := []func(m *Model, stack, pc int){
		func(m *Model, stack, pc int) { m.NewBatchSampler(stack, pc, 0.89, 1) },
		func(m *Model, stack, pc int) { m.ClusteredFaultShare(stack, pc, 0.90) },
		func(m *Model, stack, pc int) { m.ExpectedFaults(stack, pc, 0.90, AnyFlip, 5, 700) },
		func(m *Model, stack, pc int) { m.RegionRates(stack, pc, 0.88, ZeroToOne) },
		func(m *Model, stack, pc int) { m.ClusterCoverage(stack, pc) },
	}
	rnd := prf.NewSource(0x1a2b)
	for _, seed := range []uint64{1, 7, 99} {
		for _, g := range geoms {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Geometry = seed, g
			m := MustNew(cfg)
			if b := builtPCs(m); len(b) != 0 {
				t.Fatalf("New built PCs %v", b)
			}
			order := make([]int, NumPCs)
			for i := range order {
				order[i] = i
			}
			for i := len(order) - 1; i > 0; i-- {
				j := rnd.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			for k, idx := range order {
				readers[k%len(readers)](m, idx/PCsPerStack, idx%PCsPerStack)
			}
			rows := g.RowsPerPC()
			for idx := 0; idx < NumPCs; idx++ {
				stack, pc := idx/PCsPerStack, idx%PCsPerStack
				p := m.cfg.Profiles[idx]
				want := buildClusters(seed, stack, pc, rows, p.ClusterFraction, p.ClusterCount)
				got := m.ClusterRanges(stack, pc)
				if len(got) != len(want.ranges) {
					t.Fatalf("seed %d %+v PC%d: %d ranges, want %d", seed, g, idx, len(got), len(want.ranges))
				}
				for i, r := range want.ranges {
					if got[i] != [2]uint64{r.Lo, r.Hi} {
						t.Fatalf("seed %d %+v PC%d range %d = %v, want %v", seed, g, idx, i, got[i], r)
					}
				}
				if c, w := m.ClusterCoverage(stack, pc), want.coverage(rows); c != w {
					t.Fatalf("seed %d %+v PC%d coverage %v, want %v", seed, g, idx, c, w)
				}
			}
		}
	}
}

// TestClustersBuiltOnFirstUse pins the laziness: a CountFlips on one
// port of a fresh Model builds that port's clusters and no other PC's.
func TestClustersBuiltOnFirstUse(t *testing.T) {
	m := sparseModel(t, 3, 1<<14)
	pats := []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros()}
	out := make([]PatternCount, len(pats))
	m.CountFlips(1, 2, 0.89, 0, 1<<14, pats, out)
	if got, want := builtPCs(m), []int{pcIndex(1, 2)}; !slices.Equal(got, want) {
		t.Fatalf("built PCs %v after one CountFlips, want %v", got, want)
	}
}

// TestModelConcurrentFirstUse races first reads of one fresh Model
// (under -race in CI): CountFlips on one shared port and on distinct
// ports, and RateVector, which reads every PC. Each call must return
// what it returns on a fresh Model of its own.
func TestModelConcurrentFirstUse(t *testing.T) {
	const words = 1 << 14
	// A seed no other test uses, so the rate atlas starts cold and
	// RateVector builds clusters concurrently with the samplers.
	const seed = 0x1a2c
	pats := []pattern.Pattern{pattern.AllOnes(), pattern.AllZeros(), pattern.Checkerboard()}
	count := func(m *Model, port int) []PatternCount {
		out := make([]PatternCount, len(pats))
		m.CountFlips(port/PCsPerStack, port%PCsPerStack, 0.88, 1, words, pats, out)
		return out
	}
	ports := []int{18, 18, 18, 4, 5, 20, 31}
	wantCounts := make([][]PatternCount, len(ports))
	for i, port := range ports {
		wantCounts[i] = count(sparseModel(t, seed, words), port)
	}
	if wantCounts[0][0].Flips.Total() == 0 {
		t.Fatal("no flips on the shared port; the counts compare nothing")
	}
	volts := []float64{0.895, 0.875}
	wantRates := make([][NumPCs]float64, len(volts))
	for i, v := range volts {
		wantRates[i] = sparseModel(t, seed, words).computeRates(v, AnyFlip).pcs
	}

	m := sparseModel(t, seed, words)
	var wg sync.WaitGroup
	errs := make(chan string, len(ports)+len(volts))
	for i, port := range ports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := count(m, port); !slices.Equal(got, wantCounts[i]) {
				errs <- fmt.Sprintf("port %d: concurrent CountFlips %v, want %v", port, got, wantCounts[i])
			}
		}()
	}
	for i, v := range volts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := m.RateVector(v, AnyFlip); got != wantRates[i] {
				errs <- fmt.Sprintf("%.3f V: concurrent RateVector differs from a fresh Model's", v)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
