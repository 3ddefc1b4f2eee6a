package fleet

import "sync/atomic"

// Hot-payload replication: when a forward succeeds, the requester
// already holds the owner's payload, verified against the SHA-256 the
// wire carried (X-Hbmvolt-Payload-Sha256, checked by service.Client).
// Admitting it for write-through to the requester's own durable cache
// tier turns a later owner loss into a local disk hit — sweep_runs
// stays 0 — instead of a full recompute, which is the single biggest
// degraded-serve win available (the physics evaluation dominates sweep
// cost).
//
// The forwarder decides admission (it sees the payload and owns the
// budget); the service manager performs the write (it owns the cache
// tiers), honoring ServeInfo.Replicated: admitted payloads go through
// every tier, the rest stay memory-only.

// replicator is the admission ledger: a byte budget and the counters
// the hbmvolt_fleet_replicated_* families render.
type replicator struct {
	// budget is the total bytes of remote payloads this node will admit
	// for durable write-through (<0 = replication disabled).
	budget   int64
	bytes    atomic.Int64
	payloads atomic.Uint64
	skipped  atomic.Uint64
}

// admit charges n bytes against the budget, reporting whether the
// payload should be written through to the durable tier. First-come,
// first-admitted; a payload that would overflow the budget is skipped
// (smaller later payloads may still fit the remainder).
func (r *replicator) admit(n int64) bool {
	if r.budget < 0 {
		r.skipped.Add(1)
		return false
	}
	for {
		cur := r.bytes.Load()
		if cur+n > r.budget {
			r.skipped.Add(1)
			return false
		}
		if r.bytes.CompareAndSwap(cur, cur+n) {
			r.payloads.Add(1)
			return true
		}
	}
}
