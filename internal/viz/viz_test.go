package viz

import (
	"strings"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

func TestServiceGraphDOT(t *testing.T) {
	g := sg.NewChainGraph("svc", "firewall")
	g.Links[0].Bandwidth = 5e6
	g.Links[1].MaxDelay = 10 * time.Millisecond
	dot := ServiceGraphDOT(g)
	for _, want := range []string{
		`digraph "svc"`, `"sap1" [shape=circle`, "(firewall)",
		`"sap1" -> "nf1"`, "5Mbps", "≤10ms",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("ServiceGraphDOT missing %q:\n%s", want, dot)
		}
	}
}

func TestMappingDOT(t *testing.T) {
	g := sg.NewChainGraph("svc", "monitor")
	m := &core.Mapping{
		Graph:      g,
		Placements: map[string]string{"nf1": "ee1"},
		Routes: map[string][]string{
			"l1": {"s1"},
			"l2": {"s1", "s2"},
		},
		Catalog: catalog.Default(),
	}
	dot := MappingDOT(m)
	for _, want := range []string{
		"subgraph cluster_0", `label="ee1"`, `"nf1" [shape=box]`,
		`"nf1" -> "sap2"`, "s1→s2",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("MappingDOT missing %q:\n%s", want, dot)
		}
	}
}
