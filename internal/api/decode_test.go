package api

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"escape/internal/sg"
)

// TestDecodeIntentBodyMatchesTwoPass checks the one-pass POST body decode
// against the two passes it replaced: the body into a struct with a
// json.RawMessage graph, then sg.FromJSON of that. Both must refuse the
// same bodies for the same reason and accept the same graph.
func TestDecodeIntentBodyMatchesTwoPass(t *testing.T) {
	const chain = `{"name":"web","saps":[{"id":"a"},{"id":"b"}],"links":[{"id":"l","src":{"node":"a"},"dst":{"node":"b"}}]}`
	twoPass := func(body string) (*sg.Graph, string) {
		var req struct {
			Graph json.RawMessage `json:"graph"`
		}
		if err := decodeBody(strings.NewReader(body), 4<<20, &req); err != nil {
			return nil, "body"
		}
		if len(req.Graph) == 0 {
			return nil, "missing"
		}
		g, err := sg.FromJSON(req.Graph)
		if err != nil {
			return nil, "graph"
		}
		return g, ""
	}
	onePass := func(body string) (*sg.Graph, string) {
		g, graphErr, err := decodeIntentBody(strings.NewReader(body), 4<<20)
		switch {
		case err != nil:
			return nil, "body"
		case g == nil:
			return nil, "missing"
		}
		if graphErr == nil {
			graphErr = g.Validate()
		}
		if graphErr != nil {
			return nil, "graph"
		}
		return g, ""
	}
	for _, body := range []string{
		`{"graph":` + chain + `}`,
		`{"GRAPH":` + chain + `}`,
		`{"other":[1,{"x":2}],"graph":` + chain + `,"more":null}`,
		`{"graph":{"name":"partial"},"graph":` + chain + `}`,
		`{"graph":` + chain + `,"graph":{"saps":[]}}`,
		`{"graph":5,"graph":` + chain + `}`,
		`{"graph":` + chain + `,"graph":5}`,
		`{"graph":{"name":"x","nfs":"no"}}`,
		`{"graph":null}`,
		`{}`,
		`null`,
		`[1]`,
		`"graph"`,
		`{"graph":` + chain + `} {}`,
		`{"graph":` + chain + `}` + "\n\t ",
		`{"graph":` + chain,
		`{"graph" ` + chain + `}`,
		``,
	} {
		want, wantErr := twoPass(body)
		got, gotErr := onePass(body)
		if gotErr != wantErr {
			t.Errorf("%s: one pass refuses with %q, two passes with %q", body, gotErr, wantErr)
			continue
		}
		if want == nil {
			continue
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one pass decodes %s, two passes %s", body, b, a)
		}
	}
}
