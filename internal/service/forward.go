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
	// Health returns the fleet block /healthz embeds: per-peer circuit
	// state and probe/forward/degraded counters.
	Health() FleetHealth
}

// PeerHealth is one peer's entry in the /healthz fleet block.
type PeerHealth struct {
	Peer string `json:"peer"`
	// Circuit is "closed" (healthy), "open" (failing; forwards skip
	// straight to local compute until the cooldown) or "half-open"
	// (cooldown elapsed; one trial in flight).
	Circuit string `json:"circuit"`
	// ConsecutiveFailures is the current failure streak feeding the
	// breaker (reset by any success).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Probes/ProbeFailures count the active health checker's /healthz
	// probes of this peer.
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	// Forwards/ForwardFailures count forward attempts to this peer
	// (failures fail over to the second choice, then local compute).
	Forwards        uint64 `json:"forwards"`
	ForwardFailures uint64 `json:"forward_failures"`
}

// HedgeHealth is the hedged-forwarding block of /healthz: how often a
// slow or failing forward was raced against the second-choice owner,
// and who won.
type HedgeHealth struct {
	// Launched counts hedges started (delay elapsed or primary failed
	// with a viable second choice). Launched = Wins + Losses + Failed
	// once all in-flight hedges settle.
	Launched uint64 `json:"launched"`
	// Wins: the second-choice owner's payload served the request.
	Wins uint64 `json:"wins"`
	// Losses: the primary answered first after the hedge launched.
	Losses uint64 `json:"losses"`
	// Failed: both choices failed and the serve degraded to local.
	Failed uint64 `json:"failed"`
}

// ReplicationHealth is the hot-payload replication block of /healthz.
type ReplicationHealth struct {
	// BudgetBytes is the byte budget for write-through of forwarded
	// payloads to the local durable tier (<0 = replication disabled).
	BudgetBytes int64 `json:"budget_bytes"`
	// Payloads/Bytes count remote payloads admitted within the budget.
	Payloads uint64 `json:"payloads"`
	Bytes    int64  `json:"bytes"`
	// Skipped counts forwarded payloads past the budget (memory-only).
	Skipped uint64 `json:"skipped"`
}

// FleetHealth is the /healthz fleet block.
type FleetHealth struct {
	// Self is this node's canonical name; Nodes the fleet size
	// (peers + self) in the current membership view.
	Self  string `json:"self"`
	Nodes int    `json:"nodes"`
	// MembershipVersion stamps the copy-on-write membership view; it
	// bumps on every AddPeer/RemovePeer (admin API or -join).
	MembershipVersion uint64 `json:"membership_version"`
	// LocalOwned counts executions this node owned and computed;
	// Forwarded, executions served by a remote peer (hedge wins
	// included); and DegradedServes, remote-owned executions served from
	// local compute because no remote choice was reachable — each
	// byte-identical to what the owner would have returned.
	LocalOwned     uint64 `json:"local_owned"`
	Forwarded      uint64 `json:"forwarded"`
	DegradedServes uint64 `json:"degraded_serves"`
	// Hedge reports the second-choice racing counters.
	Hedge HedgeHealth `json:"hedge"`
	// Replication reports hot-payload replication: forwarded payloads
	// written through to this node's durable cache tier under the byte
	// budget.
	Replication ReplicationHealth `json:"replication"`
	// Peers reports each peer's circuit and counters, sorted by name.
	Peers []PeerHealth `json:"peers"`
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
