package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"escape/internal/core"
)

func writeTopo(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTopoValid(t *testing.T) {
	path := writeTopo(t, `{
  "switches": ["s1", "s2"],
  "hosts": {"h1": "s1", "h2": "s2"},
  "ees": {"ee1": {"switch": "s1", "cpu": 2, "mem": 512}},
  "trunks": [{"a": "s1", "b": "s2", "bandwidth": 1e9}]
}`)
	spec, err := core.LoadTopo(path)
	if err != nil {
		t.Fatal(err)
	}
	want := core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs:      map[string]core.EESpec{"ee1": {Switch: "s1", CPU: 2, Mem: 512}},
		Trunks:   []core.TrunkSpec{{A: "s1", B: "s2", Bandwidth: 1e9}},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("loaded %+v\nwant   %+v", spec, want)
	}
}

// TestLoadTopoRejectsUnknownKeys: a key the format does not have fails
// the load and the error names it, at the top level and inside an EE or
// trunk entry alike.
func TestLoadTopoRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ name, body, key string }{
		{"deleted steering mode", `{"switches": ["s1"], "steering": "per-hop"}`, "steering"},
		{"misspelt trunks", `{"switches": ["s1", "s2"], "trunk": [{"a": "s1", "b": "s2"}]}`, "trunk"},
		{"misspelt EE field", `{"switches": ["s1"], "ees": {"ee1": {"switch": "s1", "cpus": 2}}}`, "cpus"},
		{"misspelt trunk field", `{"switches": ["s1", "s2"], "trunks": [{"a": "s1", "bb": "s2"}]}`, "bb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.LoadTopo(writeTopo(t, tc.body))
			if err == nil {
				t.Fatal("topology with an unknown key loaded")
			}
			if !strings.Contains(err.Error(), `"`+tc.key+`"`) {
				t.Errorf("error %q does not name the key %q", err, tc.key)
			}
		})
	}
}

func TestLoadTopoRejectsTrailingData(t *testing.T) {
	if _, err := core.LoadTopo(writeTopo(t, `{"switches": ["s1"]} {"switches": ["s2"]}`)); err == nil {
		t.Error("topology followed by a second object loaded")
	}
}
