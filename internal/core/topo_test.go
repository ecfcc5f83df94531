package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"escape/internal/netem"
)

// scanView is the reference for ViewFromSpec: it reads a view off a
// built network, as the orchestrator once did — switches and their
// DPIDs from the nodes, inter-switch links with their ports and shaping
// and host attachments from the links, EEs from eeSwitch (EE name →
// attachment switch) and the nodes' configuration.
func scanView(n *netem.Network, eeSwitch map[string]string) (*ResourceView, error) {
	rv := newResourceView()
	for _, name := range n.NodeNames(netem.KindSwitch) {
		rv.Switches[name] = n.Node(name).(*netem.SwitchNode).DPID()
	}
	for eeName, swName := range eeSwitch {
		ee, ok := n.Node(eeName).(*netem.EE)
		if !ok {
			return nil, fmt.Errorf("core: %q is not an EE", eeName)
		}
		if _, ok := rv.Switches[swName]; !ok {
			return nil, fmt.Errorf("core: EE %q attached to unknown switch %q", eeName, swName)
		}
		cfg := ee.Config()
		rv.EEs[eeName] = &EERes{Name: eeName, CPU: cfg.CPU, Mem: cfg.Mem, Switch: swName}
	}
	for _, l := range n.Links() {
		an, bn := l.A.Node, l.B.Node
		switch {
		case an.Kind() == netem.KindSwitch && bn.Kind() == netem.KindSwitch:
			cfg := l.Config()
			rv.Links = append(rv.Links, &LinkRes{
				A: an.NodeName(), B: bn.NodeName(),
				PortA: l.A.No, PortB: l.B.No,
				Bandwidth: cfg.Bandwidth, Delay: cfg.Delay,
			})
		case isHost(an) && bn.Kind() == netem.KindSwitch:
			rv.SAPs[an.NodeName()] = &SAPRes{
				ID: an.NodeName(), Host: an.NodeName(),
				Switch: bn.NodeName(), Port: l.B.No,
			}
		case an.Kind() == netem.KindSwitch && isHost(bn):
			rv.SAPs[bn.NodeName()] = &SAPRes{
				ID: bn.NodeName(), Host: bn.NodeName(),
				Switch: an.NodeName(), Port: l.A.No,
			}
		}
	}
	return rv, nil
}

// requireScannedView scans n and requires it to equal the derived view:
// every switch's DPID, every SAP's switch and port, every EE's switch,
// CPU and memory, and every trunk's ports, bandwidth and delay, in order.
func requireScannedView(t *testing.T, n *netem.Network, topo *netem.Topo, derived *ResourceView) {
	t.Helper()
	eeSwitch := map[string]string{}
	for _, e := range topo.EEs {
		eeSwitch[e.Name] = e.Switch
	}
	scanned, err := scanView(n, eeSwitch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(derived.Switches, scanned.Switches) {
		t.Errorf("switch DPIDs: derived %v, built %v", derived.Switches, scanned.Switches)
	}
	if len(derived.SAPs) != len(scanned.SAPs) || len(derived.EEs) != len(scanned.EEs) {
		t.Errorf("derived %d SAPs and %d EEs, built %d and %d",
			len(derived.SAPs), len(derived.EEs), len(scanned.SAPs), len(scanned.EEs))
	}
	for id, s := range scanned.SAPs {
		if d := derived.SAPs[id]; d == nil || *d != *s {
			t.Errorf("SAP %q: derived %+v, built %+v", id, d, *s)
		}
	}
	for name, s := range scanned.EEs {
		if d := derived.EEs[name]; d == nil || *d != *s {
			t.Errorf("EE %q: derived %+v, built %+v", name, d, *s)
		}
	}
	if len(derived.Links) != len(scanned.Links) {
		t.Fatalf("derived %d trunks, built %d", len(derived.Links), len(scanned.Links))
	}
	for i, l := range derived.Links {
		if *l != *scanned.Links[i] {
			t.Errorf("trunk %d: derived %+v, built %+v", i, *l, *scanned.Links[i])
		}
	}
}

// TestViewFromSpecMatchesBuiltNetwork: the one view derivation agrees
// with the one builder — on a generated fat-tree description, and on a
// map-keyed TopoSpec taken through StartEnvironment (whose view the
// orchestrator maps and steers with).
func TestViewFromSpecMatchesBuiltNetwork(t *testing.T) {
	t.Run("fattree-k4", func(t *testing.T) {
		topo, err := netem.FatTree(4, netem.Sizing{TrunkBW: 10e9, EECPU: 16, EEMem: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for i := range topo.Links {
			topo.Links[i].Delay = time.Duration(i+1) * time.Microsecond
		}
		derived, err := ViewFromSpec(topo)
		if err != nil {
			t.Fatal(err)
		}
		n, err := netem.Build(topo, netem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		requireScannedView(t, n, topo, derived)
	})
	t.Run("start-environment", func(t *testing.T) {
		spec := TopoSpec{
			Switches: []string{"s2", "s1", "s3"},
			Hosts:    map[string]string{"hz": "s1", "ha": "s3", "hm": "s1", "h2": "s2"},
			EEs: map[string]EESpec{
				"ee3": {Switch: "s3", CPU: 2.5, Mem: 512},
				"ee1": {Switch: "s1", CPU: 4, Mem: 2048},
				"ee2": {Switch: "s2", CPU: 1, Mem: 1024},
			},
			Trunks: []TrunkSpec{
				{A: "s1", B: "s2", Bandwidth: 1e9, Delay: time.Millisecond},
				{A: "s3", B: "s2", Bandwidth: 5e8, Delay: 3 * time.Millisecond},
			},
		}
		env := startEnv(t, spec)
		requireScannedView(t, env.Net, spec.Topo(), env.View)
		if got := slices.Sorted(maps.Keys(env.View.SAPs)); !slices.Equal(got, []string{"h2", "ha", "hm", "hz"}) {
			t.Errorf("SAPs = %v", got)
		}
	})
}

// FuzzLoadTopo: whatever bytes a topology file holds, the loader refuses
// them or returns a spec whose description validates, derives a view and
// builds into a network that view describes. It never panics.
func FuzzLoadTopo(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := parseTopo(data)
		if err != nil {
			return
		}
		topo := spec.Topo()
		if err := topo.Validate(); err != nil {
			t.Fatalf("loaded a description that does not validate: %v", err)
		}
		derived, err := ViewFromSpec(topo)
		if err != nil {
			t.Fatalf("loaded a description with no view: %v", err)
		}
		n, err := netem.Build(topo, netem.Options{})
		if err != nil {
			t.Fatalf("loaded a description that does not build: %v", err)
		}
		defer n.Stop()
		requireScannedView(t, n, topo, derived)
	})
}

// isHost reports whether n is an emulated host.
func isHost(n netem.Node) bool {
	_, ok := n.(*netem.Host)
	return ok
}
