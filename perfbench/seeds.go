package main

// Input generation. Every device seed the benchmark hands the program is
// a pure function of the workload seed, a named stream and an index, so
// one --seed always yields the same inputs. Streams never share a seed,
// so no op reuses the physics of another op or of set-up, and the
// process-wide memos (the rate atlas and the enum store) never serve a
// later op.

import (
	"hash/fnv"

	"hbmvolt/internal/service"
)

// Fleet node names. They are stable URLs rather than listener addresses
// so that key ownership, and with it the serve-miss input schedule, does
// not depend on which ports the kernel hands out; the harness's HTTP
// transport dials each name's real loopback listener.
const (
	nodeA = "http://node-a"
	nodeB = "http://node-b"
)

// mix is the SplitMix64 finalizer, a bijection on 64-bit words.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deviceSeed derives one device seed of a stream from the workload seed
// and the item's indices. It is never 0: that is the calibrated default
// device the campaign set-up pins against its golden manifest.
func deviceSeed(seed uint64, stream string, idx ...uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	s := mix(seed ^ h.Sum64())
	for _, i := range idx {
		s = mix(s + i)
	}
	if s == 0 {
		s = 1
	}
	return s
}

// smallSweep is the request bench_test.go's benchSweepRequest builds for
// the service benchmarks: one sensitive port, one pattern, two grid
// points, batch 2, on the 1/1024-scale board.
func smallSweep(seed uint64) service.SweepRequest {
	return service.SweepRequest{
		Kind:     service.KindReliability,
		Seed:     seed,
		Scale:    1024,
		Grid:     []float64{0.90, 0.89},
		Patterns: []string{"all1"},
		Ports:    []int{18},
		Batch:    2,
	}
}

// fillerSweep is the cheapest request that still occupies a job record
// and a cache entry: one nominal-voltage point on one port of the
// smallest board the service accepts.
func fillerSweep(seed uint64) service.SweepRequest {
	return service.SweepRequest{
		Kind:     service.KindReliability,
		Seed:     seed,
		Scale:    1 << 14,
		Grid:     []float64{1.20},
		Patterns: []string{"all1"},
		Ports:    []int{0},
		Batch:    1,
	}
}

// keyed normalizes req and returns it with its cache key.
func keyed(req service.SweepRequest) (service.SweepRequest, uint64, error) {
	if err := req.Normalize(); err != nil {
		return req, 0, err
	}
	key, err := req.CacheKey()
	return req, key, err
}

// missOwner is the node that owns serve-miss op i: node B for every
// fourth op, node A otherwise, so a quarter of the ops take the fleet
// forward.
func missOwner(i int) string {
	if i%4 == 3 {
		return nodeB
	}
	return nodeA
}

// ownedSweep returns the small sweep of item i of stream whose cache key
// owner routes to want: the first of the item's candidate device seeds
// that lands there. owner is the fleet's rendezvous router
// (Forwarder.Owner).
func ownedSweep(seed uint64, stream string, i int, want string, owner func(uint64) string) (service.SweepRequest, uint64, error) {
	for c := uint64(0); ; c++ {
		req, key, err := keyed(smallSweep(deviceSeed(seed, stream, uint64(i), c)))
		if err != nil {
			return req, 0, err
		}
		if owner(key) == want {
			return req, key, nil
		}
	}
}
