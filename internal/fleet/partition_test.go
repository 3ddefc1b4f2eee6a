package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"hbmvolt/internal/campaign"
	"hbmvolt/internal/chaos"
	"hbmvolt/internal/telemetry/telemetrytest"
)

// The partition suite pins the fleet's headline guarantee: a campaign
// run against a 3-node fleet produces a manifest byte-identical to a
// single-node run, no matter which node dies, stalls, or severs its
// transfers mid-campaign. The chaos transport injects the partitions;
// the forwarder's degradation path absorbs them; the manifest bytes
// prove correctness never followed availability down.

// forwardSite is the chaos injection site wrapping node 0's fleet
// transport in these tests.
const forwardSite = "fleet.partition.forward"

// partitionSpec is the suite's workload: six distinct cheap
// reliability cells (3 seeds × 2 pattern sets), the same shape the
// crash-recovery suite pins.
func partitionSpec() campaign.Spec {
	return campaign.Spec{
		Name: "partition",
		Scenarios: []campaign.Scenario{{
			Name:        "rel",
			Kind:        "reliability",
			Seeds:       []uint64{0, 1, 2},
			PatternSets: [][]string{{"all1"}, {"all0"}},
			Scales:      []uint64{1024},
			Grid:        []float64{0.90, 0.89},
			Ports:       []int{0},
			Batch:       1,
		}},
	}
}

// goldenManifest runs the spec on a standalone single-node manager —
// no fleet anywhere — and returns its manifest bytes, the reference
// every partitioned fleet run must reproduce exactly.
func goldenManifest(t *testing.T) []byte {
	t.Helper()
	res, err := campaign.Run(t.Context(), partitionSpec(), campaign.Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// startPartitionFleet brings up a 3-node fleet whose (random) port
// draw gives every node ownership of at least one campaign cell, so
// partition scenarios always have remote-owned work to degrade.
// Rendezvous hashing keys on node URLs, so a lopsided draw is re-drawn
// with fresh ports. It returns the nodes plus each node's owned-cell
// count, keyed by URL.
func startPartitionFleet(t *testing.T, tune func(i int, o *Options)) ([]*testNode, map[string]int) {
	t.Helper()
	spec := partitionSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 64; attempt++ {
		lns, urls := listenN(t, 3)
		router, err := New(Options{Self: urls[0], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		owned := make(map[string]int)
		for _, c := range cells {
			owned[router.Owner(c.Key)]++
		}
		router.Close()
		if owned[urls[0]] > 0 && owned[urls[1]] > 0 && owned[urls[2]] > 0 {
			return startNodesOn(t, lns, urls, tune, nil), owned
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
	t.Fatal("no port draw spread cell ownership over all 3 nodes in 64 attempts")
	return nil, nil
}

// runCampaign executes the suite's spec against node's manager and
// returns the manifest bytes.
func runCampaign(t *testing.T, node *testNode, opts campaign.Options) []byte {
	t.Helper()
	spec := partitionSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Execute(t.Context(), node.srv.Manager(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestPartitionedOwnerManifestByteIdentical cuts node 0 off from both
// peers — four different ways — for an entire campaign: every
// remote-owned cell must be served degraded from local compute, the
// manifest must match the single-node golden byte for byte, and the
// degradation must be visible in the node's /metrics.
func TestPartitionedOwnerManifestByteIdentical(t *testing.T) {
	golden := goldenManifest(t)
	scenarios := []struct {
		name  string
		fault chaos.Fault
	}{
		// The owner's process is gone: connections refuse immediately.
		{"owner-down", chaos.Fault{HTTP: chaos.HTTPRefuse}},
		// The owner is alive but slower than the hedging deadline.
		{"owner-slow", chaos.Fault{HTTP: chaos.HTTPSlow, Sleep: 500 * time.Millisecond}},
		// The link black-holes: packets vanish, nothing answers.
		{"owner-blackhole", chaos.Fault{HTTP: chaos.HTTPBlackhole}},
		// Transfers sever mid-body: bytes flow, then the connection dies.
		{"owner-drop-mid-body", chaos.Fault{HTTP: chaos.HTTPDropBody, DropAfter: 64}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			defer chaos.Activate(chaos.NewPlan().Set(forwardSite, sc.fault))()
			nodes, owned := startPartitionFleet(t, func(i int, o *Options) {
				o.ForwardTimeout = 200 * time.Millisecond
				if i == 0 {
					o.HTTPClient = &http.Client{Transport: &chaos.Transport{Site: forwardSite}}
				}
			})
			manifest := runCampaign(t, nodes[0], campaign.Options{})
			if !bytes.Equal(manifest, golden) {
				t.Fatalf("partitioned fleet manifest differs from single-node golden:\n fleet: %s\ngolden: %s", manifest, golden)
			}

			local, remote := owned[nodes[0].url], owned[nodes[1].url]+owned[nodes[2].url]
			m := telemetrytest.Scrape(t, nodes[0].srv)
			if m[servesLocal] != float64(local) || m[servesForwarded] != 0 || m[servesDegraded] != float64(remote) {
				t.Fatalf("serves = %v, want %d local, 0 forwarded, %d degraded", m.Family("hbmvolt_fleet_serves_total"), local, remote)
			}
			if peers := m.Family("hbmvolt_fleet_peer_circuit_state"); len(peers) != 2 {
				t.Fatalf("%d peer circuit series, want 2", len(peers))
			}
		})
	}
}

// TestJoinLeaveMidCampaign churns membership while a campaign runs: a
// fourth node joins through the admin API after the second cell, and a
// founding peer is removed after the fourth. Rendezvous routing moves
// only the affected keys, every serve stays byte-identical, and the
// manifest cannot tell the churn happened.
func TestJoinLeaveMidCampaign(t *testing.T) {
	golden := goldenManifest(t)

	// A 3-node founding fleet with cell ownership spread over all three,
	// plus a 4th listener for the joiner.
	spec := partitionSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*testNode
	var urls []string
	for attempt := 0; ; attempt++ {
		if attempt == 64 {
			t.Fatal("no port draw spread cell ownership over all 3 founding nodes in 64 attempts")
		}
		var lns []net.Listener
		lns, urls = listenN(t, 4)
		router, err := New(Options{Self: urls[0], Peers: urls[:3]})
		if err != nil {
			t.Fatal(err)
		}
		owned := make(map[string]int)
		for _, c := range cells {
			owned[router.Owner(c.Key)]++
		}
		router.Close()
		if owned[urls[0]] > 0 && owned[urls[1]] > 0 && owned[urls[2]] > 0 {
			tune := func(i int, o *Options) { o.ForwardTimeout = 300 * time.Millisecond }
			nodes = startNodesOn(t, lns[:3], urls[:3], tune, nil)
			// The joiner knows the whole fleet; the founders learn of it
			// only through the admin API mid-campaign.
			joiner := startNodesOn(t, lns[3:], urls[3:], func(i int, o *Options) {
				o.Peers = urls
				o.ForwardTimeout = 300 * time.Millisecond
			}, nil)
			nodes = append(nodes, joiner[0])
			break
		}
		for _, ln := range lns {
			ln.Close()
		}
	}

	adminPost := func(nodeURL, peer string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"peer": peer})
		resp, err := http.Post(nodeURL+"/v1/fleet/peers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/fleet/peers = HTTP %d", resp.StatusCode)
		}
	}
	adminDelete := func(nodeURL, peer string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, nodeURL+"/v1/fleet/peers?peer="+url.QueryEscape(peer), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE /v1/fleet/peers = HTTP %d", resp.StatusCode)
		}
	}

	manifest := runCampaign(t, nodes[0], campaign.Options{
		OnCell: func(done, total int) {
			switch done {
			case 2:
				adminPost(nodes[0].url, urls[3])
			case 4:
				adminDelete(nodes[0].url, urls[1])
			}
		},
	})
	if !bytes.Equal(manifest, golden) {
		t.Fatalf("manifest with join+leave mid-campaign differs from single-node golden:\n fleet: %s\ngolden: %s", manifest, golden)
	}
	if v := nodes[0].fwd.MembershipVersion(); v != 3 {
		t.Fatalf("membership version = %d, want 3 (boot + join + leave)", v)
	}
	m := nodes[0].fwd.Membership()
	if len(m.Nodes) != 3 {
		t.Fatalf("membership = %+v, want 3 nodes (4th joined, founder left)", m)
	}
	if m := telemetrytest.Scrape(t, nodes[0].srv); m.Sum("hbmvolt_fleet_serves_total") != 6 {
		t.Fatalf("serves = %v, want counters summing to the campaign's 6 cells", m.Family("hbmvolt_fleet_serves_total"))
	}
}

// TestKillEachPeerMidCampaign kills one real node — listener and all —
// after the campaign's first cell completes, for each peer in turn.
// (Node 0 itself being cut off from everyone is the scenario above.)
// Cells the victim served before dying were forwarded; cells after
// degrade to local compute; the manifest must not be able to tell.
func TestKillEachPeerMidCampaign(t *testing.T) {
	golden := goldenManifest(t)
	for _, victim := range []int{1, 2} {
		t.Run(fmt.Sprintf("kill-node%d", victim), func(t *testing.T) {
			nodes, _ := startPartitionFleet(t, func(i int, o *Options) {
				o.ForwardTimeout = 300 * time.Millisecond
			})
			var once sync.Once
			manifest := runCampaign(t, nodes[0], campaign.Options{
				OnCell: func(done, total int) {
					once.Do(nodes[victim].kill)
				},
			})
			if !bytes.Equal(manifest, golden) {
				t.Fatalf("manifest with node %d killed mid-campaign differs from single-node golden", victim)
			}
			if m := telemetrytest.Scrape(t, nodes[0].srv); m.Sum("hbmvolt_fleet_serves_total") != 6 {
				t.Fatalf("serves = %v, want counters summing to the campaign's 6 cells", m.Family("hbmvolt_fleet_serves_total"))
			}
		})
	}
}
