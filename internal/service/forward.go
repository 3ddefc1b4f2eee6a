package service

import "context"

// ServeInfo records which fleet node produced a job's payload and
// whether the fleet degraded to local compute to produce it. The zero
// value means "no fleet configured" — a plain single-node execution.
type ServeInfo struct {
	// ServedBy is the node whose compute produced the bytes: the remote
	// owner on a successful forward, this node otherwise.
	ServedBy string
	// Degraded is true when the key's owner is a remote peer that could
	// not serve it (open circuit, unreachable, slow past the hedging
	// deadline, corrupt transfer) and the payload was computed locally
	// instead. By the determinism contract the bytes are identical
	// either way; Degraded only marks that availability, not
	// correctness, took the hit.
	Degraded bool
	// Replicated is true when the payload came from a remote peer and
	// the forwarder admitted it (within its replica byte budget) for
	// write-through to this node's durable cache tier. The Manager honors
	// it in runJob: admitted payloads go through every cache tier, so a
	// later owner failure serves the key from local disk without a sweep;
	// non-admitted remote payloads stay memory-only.
	Replicated bool
}

// Forwarder routes sweep executions across a fleet sharing one logical
// cache: each cache key has a single owner node, forwards go to the
// owner, and any failure to reach it degrades — byte-identically — to
// the local compute path. internal/fleet provides the implementation;
// the interface lives here so the Manager can consult it without the
// service depending on fleet topology.
//
// Implementations must be safe for concurrent use: the Manager calls
// ExecuteSweep from every worker goroutine.
type Forwarder interface {
	// ExecuteSweep produces the payload for req (cache key key): fetched
	// from the remote owner when one is healthy, computed via local
	// otherwise. The returned ServeInfo says which happened.
	ExecuteSweep(ctx context.Context, key uint64, req SweepRequest, local func(context.Context) ([]byte, error)) ([]byte, ServeInfo, error)
	// Self returns this node's name (its advertised base URL).
	Self() string
}

// SubmitOptions carries per-submission flags that are not part of the
// sweep request (and therefore never part of the cache key).
type SubmitOptions struct {
	// NoForward pins execution to this node even when a fleet forwarder
	// is configured. Set for requests that were already forwarded once
	// (the X-Hbmvolt-No-Forward header), so a misconfigured ring — two
	// nodes that each believe the other owns a key — degrades to an
	// extra local compute instead of a forwarding loop.
	NoForward bool
	// TraceID is the submission's trace (minted or adopted at the HTTP
	// edge from X-Hbmvolt-Trace-Id). Observability only: it rides the
	// job's run context across fleet forwards and into span recorders,
	// and is never part of the cache key.
	TraceID string
}
