package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
)

// FuzzPeerAdmin drives arbitrary membership mutations through the admin
// API: a POST with body arg, or (del) a DELETE with ?peer=arg, each
// against a fresh two-node forwarder. The only answers are 200 and 400;
// a 200 carries the updated view (sorted nodes including self, version
// unchanged or bumped by one, matching the forwarder); a 400 never
// bumps the version.
func FuzzPeerAdmin(f *testing.F) {
	const self = "http://n1:1"
	f.Fuzz(func(t *testing.T, del bool, arg string) {
		fwd, err := New(Options{Self: self, Peers: []string{"http://n2:1"}})
		if err != nil {
			t.Fatal(err)
		}
		defer fwd.Close()
		before := fwd.MembershipVersion()

		var req *http.Request
		if del {
			req = httptest.NewRequest(http.MethodDelete, "/v1/fleet/peers?peer="+url.QueryEscape(arg), nil)
		} else {
			req = httptest.NewRequest(http.MethodPost, "/v1/fleet/peers", strings.NewReader(arg))
		}
		rec := httptest.NewRecorder()
		fwd.AdminHandler().ServeHTTP(rec, req)
		after := fwd.MembershipVersion()

		switch rec.Code {
		case http.StatusOK:
			var m Membership
			if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
				t.Fatalf("200 body %q is not a Membership: %v", rec.Body.Bytes(), err)
			}
			if m.Self != self || !slices.IsSorted(m.Nodes) || !slices.Contains(m.Nodes, self) {
				t.Fatalf("200 view %+v: want self %s among sorted nodes", m, self)
			}
			if after != before && after != before+1 {
				t.Fatalf("version %d -> %d, want unchanged or +1", before, after)
			}
			if m.Version != after {
				t.Fatalf("body version %d, forwarder at %d", m.Version, after)
			}
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("400 bumped the version %d -> %d", before, after)
			}
		default:
			t.Fatalf("HTTP %d for del=%v arg=%q, want 200 or 400", rec.Code, del, arg)
		}
	})
}
