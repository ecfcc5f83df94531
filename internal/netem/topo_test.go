package netem

import "testing"

func countKind(n *Network, k NodeKind) int {
	return len(n.NodeNames(k))
}

func TestFatTree(t *testing.T) {
	topo, err := FatTree(4, Sizing{EECPU: 1, EEMem: 64})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := newStartedNet(t, topo)
	// k=4: 4 core + 8 agg + 8 edge = 20 switches, one host and one EE
	// per edge switch.
	if sw := countKind(n, KindSwitch); sw != 20 {
		t.Errorf("switches = %d, want 20", sw)
	}
	if h := countKind(n, kindHost); h != 8 {
		t.Errorf("hosts = %d, want 8", h)
	}
	if ee := countKind(n, kindEE); ee != 8 {
		t.Errorf("EEs = %d, want 8", ee)
	}
	// links: core-agg 16 + agg-edge 16 + host-edge 8 = 40.
	if l := len(n.Links()); l != 40 {
		t.Errorf("links = %d, want 40", l)
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		if _, err := FatTree(k, Sizing{}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

// TestBuildRefusesInvalidTopo: a description with a dangling reference
// or a node name used twice is refused before anything is built.
func TestBuildRefusesInvalidTopo(t *testing.T) {
	for name, topo := range map[string]*Topo{
		"duplicate switch":     {Switches: []string{"s1", "s1"}},
		"host on no switch":    {Switches: []string{"s1"}, Hosts: []HostSpec{{Name: "h1", Switch: "s2"}}},
		"EE named like a host": {Switches: []string{"s1"}, Hosts: []HostSpec{{Name: "x", Switch: "s1"}}, EEs: []EESpec{{Name: "x", Switch: "s1"}}},
		"link to no switch":    {Switches: []string{"s1"}, Links: []LinkSpec{{A: "s1", B: "s2"}}},
	} {
		if n, err := Build(topo, Options{}); err == nil {
			n.Stop()
			t.Errorf("%s: built", name)
		}
	}
}
