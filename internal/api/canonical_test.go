package api

import (
	"testing"

	"escape/internal/sg"
)

// canonicalGolden pins the bytes and hash NewIntent stores for graphs as a
// client posts them. Hashes already written to WALs are compared against
// re-POSTed graphs, so an encoding that drifted would turn an identical
// re-POST after an upgrade into a 409 instead of a 200.
var canonicalGolden = []struct {
	name, posted, canon, hash string
}{
	{
		name:   "params with markup characters",
		posted: `{"name":"web","saps":[{"id":"sap1"},{"id":"sap2"}],"nfs":[{"id":"fw","type":"firewall","params":{"rules":"deny \"a<b\" & c>d","z":"1"}}],"links":[{"id":"l1","src":{"node":"sap1"},"dst":{"node":"fw","port":"in"}},{"id":"l2","src":{"node":"fw","port":"out"},"dst":{"node":"sap2"}}]}`,
		canon:  `{"name":"acme/web","saps":[{"id":"sap1"},{"id":"sap2"}],"nfs":[{"id":"fw","type":"firewall","params":{"rules":"deny \"a\u003cb\" \u0026 c\u003ed","z":"1"}}],"links":[{"id":"l1","src":{"node":"sap1"},"dst":{"node":"fw","port":"in"}},{"id":"l2","src":{"node":"fw","port":"out"},"dst":{"node":"sap2"}}]}`,
		hash:   `f127e132f7ac8f0889a26239ab3ac87cb0ed4824de86aecd019da11367836167`,
	},
	{
		name: "explicit stitch tags",
		posted: `{
		  "links": [{"id": "l1", "src": {"node": "sap1"}, "dst": {"node": "m", "port": "in"}, "ingress_tag": 3001},
		            {"id": "l2", "src": {"node": "m", "port": "out"}, "dst": {"node": "sap2"}, "egress_tag": 3002, "bandwidth": 1e6}],
		  "nfs": [{"type": "monitor", "id": "m"}],
		  "saps": [{"id": "sap1"}, {"id": "sap2"}],
		  "name": "tagged"
		}`,
		canon: `{"name":"acme/tagged","saps":[{"id":"sap1"},{"id":"sap2"}],"nfs":[{"id":"m","type":"monitor"}],"links":[{"id":"l1","src":{"node":"sap1"},"dst":{"node":"m","port":"in"},"ingress_tag":3001},{"id":"l2","src":{"node":"m","port":"out"},"dst":{"node":"sap2"},"bandwidth":1000000,"egress_tag":3002}]}`,
		hash:  `7e794393a2f56dd3e03475733a3f23ec52ecfead0d56f058f82dd3a24ea3a249`,
	},
	{
		name:   "sub-graph requirements",
		posted: `{"name":"req","saps":[{"id":"a"},{"id":"b"}],"nfs":[{"id":"n1","type":"monitor"},{"id":"n2","type":"monitor"}],"links":[{"id":"l1","src":{"node":"a"},"dst":{"node":"n1","port":"in"},"max_delay":5000000},{"id":"l2","src":{"node":"n1","port":"out"},"dst":{"node":"n2","port":"in"}},{"id":"l3","src":{"node":"n2","port":"out"},"dst":{"node":"b"}}],"reqs":[{"id":"r1","from":"a","to":"b","max_delay":20000000,"bandwidth":2500000.5}]}`,
		canon:  `{"name":"acme/req","saps":[{"id":"a"},{"id":"b"}],"nfs":[{"id":"n1","type":"monitor"},{"id":"n2","type":"monitor"}],"links":[{"id":"l1","src":{"node":"a"},"dst":{"node":"n1","port":"in"},"max_delay":5000000},{"id":"l2","src":{"node":"n1","port":"out"},"dst":{"node":"n2","port":"in"}},{"id":"l3","src":{"node":"n2","port":"out"},"dst":{"node":"b"}}],"reqs":[{"id":"r1","from":"a","to":"b","max_delay":20000000,"bandwidth":2500000.5}]}`,
		hash:   `e4e795fc11c84513af260b56814f24effe62f851a5671c82a673bb7fa256b0c4`,
	},
	{
		name:   "fractional cpu",
		posted: `{"name":"frac","saps":[{"id":"sap1"},{"id":"sap2"}],"nfs":[{"id":"c","type":"compressor","cpu":0.25,"mem":64},{"id":"d","type":"decompressor","cpu":1.000001}],"links":[{"id":"l1","src":{"node":"sap1"},"dst":{"node":"c","port":"in"}},{"id":"l2","src":{"node":"c","port":"out"},"dst":{"node":"d","port":"in"}},{"id":"l3","src":{"node":"d","port":"out"},"dst":{"node":"sap2"}}]}`,
		canon:  `{"name":"acme/frac","saps":[{"id":"sap1"},{"id":"sap2"}],"nfs":[{"id":"c","type":"compressor","cpu":0.25,"mem":64},{"id":"d","type":"decompressor","cpu":1.000001}],"links":[{"id":"l1","src":{"node":"sap1"},"dst":{"node":"c","port":"in"}},{"id":"l2","src":{"node":"c","port":"out"},"dst":{"node":"d","port":"in"}},{"id":"l3","src":{"node":"d","port":"out"},"dst":{"node":"sap2"}}]}`,
		hash:   `724a3b6d3c2d766fc74052411316d633b272acfcac23e9773394146ac5fcec57`,
	},
}

func TestNewIntentCanonicalGolden(t *testing.T) {
	for _, tc := range canonicalGolden {
		t.Run(tc.name, func(t *testing.T) {
			g, err := sg.FromJSON([]byte(tc.posted))
			if err != nil {
				t.Fatal(err)
			}
			in, err := NewIntent("acme", g)
			if err != nil {
				t.Fatal(err)
			}
			if string(in.Graph) != tc.canon {
				t.Errorf("canonical graph:\n got %s\nwant %s", in.Graph, tc.canon)
			}
			if in.Hash != tc.hash {
				t.Errorf("hash = %s, want %s", in.Hash, tc.hash)
			}
			// The stored form is a fixpoint: canonicalizing it again, as a
			// re-POST of the stored graph does, changes nothing.
			_, again, hash, err := CanonicalGraph(in.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != tc.canon || hash != tc.hash {
				t.Errorf("CanonicalGraph(stored) = %s %s, want the stored form", again, hash)
			}
		})
	}
}
