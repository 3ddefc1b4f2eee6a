package fleet

import (
	"testing"
	"time"

	"hbmvolt/internal/service"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// The replication ledger's series, and the disk tier's population.
const (
	replPayloads = "hbmvolt_fleet_replicated_payloads_total"
	replBytes    = "hbmvolt_fleet_replicated_bytes_total"
	replSkipped  = "hbmvolt_fleet_replica_skipped_total"
	diskEntries  = `hbmvolt_cache_entries{tier="disk"}`
)

func TestReplicatorAdmit(t *testing.T) {
	r := replicator{budget: 100}
	if !r.admit(60) || !r.admit(40) {
		t.Fatal("payloads within the budget must be admitted")
	}
	if r.admit(1) {
		t.Fatal("a payload past the exhausted budget must be skipped")
	}
	if r.payloads.Load() != 2 || r.bytes.Load() != 100 || r.skipped.Load() != 1 {
		t.Fatalf("ledger = %d payloads / %d bytes / %d skipped, want 2/100/1",
			r.payloads.Load(), r.bytes.Load(), r.skipped.Load())
	}

	// A too-large payload is skipped but smaller later ones still fit.
	partial := replicator{budget: 100}
	if partial.admit(101) {
		t.Fatal("an over-budget payload must be skipped")
	}
	if !partial.admit(100) {
		t.Fatal("the remaining budget must stay available after a skip")
	}

	disabled := replicator{budget: -1}
	if disabled.admit(1) || disabled.skipped.Load() != 1 {
		t.Fatal("negative budget must skip everything, counting the skips")
	}
}

// TestReplicatedPayloadServedFromDiskAfterOwnerDeath is the tentpole's
// replication proof: a forwarded payload is written through to the
// requester's durable tier, so after the requester restarts (job table
// and memory cache gone) AND the owner dies, the key still serves from
// local disk — byte-identical, with sweep_runs staying 0.
func TestReplicatedPayloadServedFromDiskAfterOwnerDeath(t *testing.T) {
	dir := t.TempDir()
	lns, urls := listenN(t, 2)
	nodes := startNodesOn(t, lns, urls, func(i int, o *Options) {
		o.ForwardTimeout = 500 * time.Millisecond
	}, func(i int, c *service.Config) {
		if i == 0 {
			c.CacheDir = dir
		}
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)
	req := smallReq(seed)
	want := localPayload(t, req)

	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[1].url || !info.Replicated {
		t.Fatalf("ServeInfo = %+v, want a forwarded serve admitted for replication", info)
	}
	m := telemetrytest.Scrape(t, nodes[0].srv)
	if m[replPayloads] != 1 || m[replBytes] != float64(len(want)) || m[replSkipped] != 0 {
		t.Fatalf("replication ledger = %v payloads / %v bytes / %v skipped, want exactly this payload's %d bytes admitted",
			m[replPayloads], m[replBytes], m[replSkipped], len(want))
	}

	// Restart the requester's service over the same cache dir — its job
	// table and memory tier die with it — and kill the owner.
	nodes[0].hs.Close()
	nodes[0].srv.Close()
	nodes[1].kill()

	srv2, err := service.Open(service.Config{
		Workers: 2, QueueDepth: 64, CacheDir: dir, Forwarder: nodes[0].fwd,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	j2, _, _, err := srv2.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j2.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("post-restart Wait = %v, %v", st, err)
	}
	if string(j2.Payload()) != string(want) {
		t.Fatal("disk-served payload differs from single-node compute")
	}
	if runs := srv2.Manager().Runs(); runs != 0 {
		t.Fatalf("sweep_runs = %d after owner death, want 0 (replicated key must serve from the disk tier)", runs)
	}
	if got := telemetrytest.Scrape(t, srv2)["hbmvolt_disk_recovered_entries_total"]; got != 1 {
		t.Fatalf("disk tier recovered %v entries, want the replicated payload recovered at boot", got)
	}
}

// TestReplicationBudgetExhaustedStaysOffDisk forwards with a 1-byte
// replica budget: the payload must be skipped (memory-only), the skip
// must be visible in the ledger, and the durable tier must stay empty.
func TestReplicationBudgetExhaustedStaysOffDisk(t *testing.T) {
	dir := t.TempDir()
	lns, urls := listenN(t, 2)
	nodes := startNodesOn(t, lns, urls, func(i int, o *Options) {
		o.ForwardTimeout = 500 * time.Millisecond
		if i == 0 {
			o.ReplicaBudget = 1 // any real payload overflows
		}
	}, func(i int, c *service.Config) {
		if i == 0 {
			c.CacheDir = dir
		}
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[1].url)
	req := smallReq(seed)

	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if info := j.ServeInfo(); info.ServedBy != nodes[1].url || info.Replicated {
		t.Fatalf("ServeInfo = %+v, want a forwarded serve NOT admitted for replication", info)
	}
	m := telemetrytest.Scrape(t, nodes[0].srv)
	if m[replPayloads] != 0 || m[replSkipped] != 1 || nodes[0].fwd.rep.budget != 1 {
		t.Fatalf("replication ledger = %v payloads / %v skipped under budget %d, want the payload skipped under a 1-byte budget",
			m[replPayloads], m[replSkipped], nodes[0].fwd.rep.budget)
	}
	if got, ok := m[diskEntries]; !ok || got != 0 {
		t.Fatalf("disk tier holds %v entries, want none (skipped payloads stay memory-only)", got)
	}
	// The payload is still served hot from memory on a resubmit.
	j2, _, _, err := nodes[0].srv.Manager().SubmitOpts(req, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st2, err := j2.Wait(t.Context()); err != nil || st2 != service.StateDone {
		t.Fatalf("resubmit Wait = %v, %v", st2, err)
	}
	if runs := nodes[0].srv.Manager().Runs(); runs != 0 {
		t.Fatalf("requester ran %d sweeps, want 0 (memory tier serves the skipped payload)", runs)
	}
}

// TestLocalPayloadsBypassReplicationBudget pins the budget's scope:
// locally computed sweeps always write through to the durable tier —
// the budget gates only remote payloads.
func TestLocalPayloadsBypassReplicationBudget(t *testing.T) {
	dir := t.TempDir()
	lns, urls := listenN(t, 2)
	nodes := startNodesOn(t, lns, urls, func(i int, o *Options) {
		if i == 0 {
			o.ReplicaBudget = -1 // replication fully disabled
		}
	}, func(i int, c *service.Config) {
		if i == 0 {
			c.CacheDir = dir
		}
	})
	seed := seedOwnedBy(t, nodes[0].fwd, nodes[0].url)
	j, _, _, err := nodes[0].srv.Manager().SubmitOpts(smallReq(seed), service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := j.Wait(t.Context()); err != nil || st != service.StateDone {
		t.Fatalf("Wait = %v, %v", st, err)
	}
	if got := telemetrytest.Scrape(t, nodes[0].srv)[diskEntries]; got != 1 {
		t.Fatalf("disk tier holds %v entries, want the locally owned payload durable despite replication off", got)
	}
}
