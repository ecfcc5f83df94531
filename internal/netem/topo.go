package netem

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// HostSpec attaches one host (a SAP) to a switch.
type HostSpec struct {
	Name   string
	Switch string
}

// EESpec declares one execution environment (VNF container) with its
// compute capacity and attachment switch.
type EESpec struct {
	Name   string
	Switch string
	CPU    float64
	Mem    int
}

// LinkSpec is one undirected switch-to-switch link with its shaping.
type LinkSpec struct {
	A, B      string
	Bandwidth float64 // bits per second; 0 = uncapacitated
	Delay     time.Duration
	Loss      float64
}

// Topo is an ordered topology description, the analogue of Mininet's
// Topo: Build turns it into an emulated network and core.ViewFromSpec
// into the orchestrator's resource view, without building anything.
// Order matters, because Build numbers in declaration order: switches
// get datapath ids 1, 2, … and ports are allocated switch-switch links
// first, then host attachments (hosts also take their IPs and MACs in
// that order).
type Topo struct {
	Name     string
	Switches []string
	Hosts    []HostSpec
	EEs      []EESpec
	Links    []LinkSpec
}

// Validate checks that node names are unique and that every host, EE
// and link attaches to a declared switch: a valid description builds.
func (t *Topo) Validate() error {
	isSwitch := make(map[string]bool, len(t.Switches)+len(t.Hosts)+len(t.EEs)) // every node so far
	declare := func(name string, sw bool) error {
		if _, dup := isSwitch[name]; dup {
			return fmt.Errorf("netem: duplicate node %q", name)
		}
		isSwitch[name] = sw
		return nil
	}
	attach := func(kind, name, sw string) error {
		if !isSwitch[sw] {
			return fmt.Errorf("netem: %s %q attaches to unknown switch %q", kind, name, sw)
		}
		return declare(name, false)
	}
	var err error
	for _, name := range t.Switches {
		err = errors.Join(err, declare(name, true))
	}
	for _, h := range t.Hosts {
		err = errors.Join(err, attach("host", h.Name, h.Switch))
	}
	for _, e := range t.EEs {
		err = errors.Join(err, attach("EE", e.Name, e.Switch))
	}
	for _, l := range t.Links {
		if !isSwitch[l.A] || !isSwitch[l.B] {
			err = errors.Join(err, fmt.Errorf("netem: link %s-%s references unknown switch", l.A, l.B))
		}
	}
	return err
}

// SAPNames returns the description's host (SAP) names sorted.
func (t *Topo) SAPNames() []string {
	out := make([]string, 0, len(t.Hosts))
	for _, h := range t.Hosts {
		out = append(out, h.Name)
	}
	slices.Sort(out)
	return out
}

// Build creates a fresh network from a description. It is the one place
// a description becomes nodes and links, in one order: switches,
// switch-switch links, hosts with their attachment links (unshaped), then
// EEs. The network is not started; on error nothing is left running.
func Build(t *Topo, opts Options) (*Network, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := New(t.Name, opts)
	var err error
	check := func(_ any, e error) { err = errors.Join(err, e) }
	for _, name := range t.Switches {
		check(n.AddSwitch(name))
	}
	for _, l := range t.Links {
		check(n.AddLink(l.A, l.B, LinkConfig{Bandwidth: l.Bandwidth, Delay: l.Delay, Loss: l.Loss}))
	}
	for _, h := range t.Hosts {
		check(n.AddHost(h.Name))
		check(n.AddLink(h.Name, h.Switch, LinkConfig{}))
	}
	for _, e := range t.EEs {
		check(n.AddEE(e.Name, EEConfig{CPU: e.CPU, Mem: e.Mem}))
	}
	if err != nil {
		n.Stop()
		return nil, err
	}
	return n, nil
}

// Sizing is what a generator gives the description it returns: every
// switch-switch link TrunkBW bit/s (0 = unshaped) and, when EECPU > 0,
// every switch that has hosts one EE "ee-<switch>" of EECPU cores and
// EEMem MB. The zero Sizing is Mininet's: unshaped, no EEs.
type Sizing struct {
	TrunkBW float64
	EECPU   float64
	EEMem   int
}

// Topology generators after Mininet's built-in topologies (--topo
// linear) plus a k-ary fat-tree.

// Linear is n switches in a chain with one host per switch:
// h1—s1—s2—…—sn—hn.
func Linear(n int, s Sizing) (*Topo, error) {
	if n < 1 {
		return nil, fmt.Errorf("netem: linear topology needs ≥1 switch")
	}
	t := &Topo{Name: fmt.Sprintf("linear-%d", n)}
	for i := 1; i <= n; i++ {
		sw := fmt.Sprintf("s%d", i)
		t.Switches = append(t.Switches, sw)
		t.Hosts = append(t.Hosts, HostSpec{Name: fmt.Sprintf("h%d", i), Switch: sw})
		if i > 1 {
			t.Links = append(t.Links, LinkSpec{A: fmt.Sprintf("s%d", i-1), B: sw, Bandwidth: s.TrunkBW})
		}
	}
	s.addEEs(t)
	return t, nil
}

// FatTree is a k-ary fat-tree (Al-Fares et al.; k even, ≥ 2): (k/2)²
// core switches c1…, k pods of k/2 aggregation (p<i>a<j>) and k/2 edge
// (p<i>e<j>) switches, aggregation switch j uplinked to core group j,
// and one host p<i>e<j>h1 per edge switch. k=4 yields 20 switches, 32
// trunks and 8 hosts.
func FatTree(k int, s Sizing) (*Topo, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("netem: fat-tree needs even k ≥ 2, got %d", k)
	}
	t := &Topo{Name: fmt.Sprintf("fattree-%d", k)}
	half := k / 2
	for i := 1; i <= half*half; i++ {
		t.Switches = append(t.Switches, fmt.Sprintf("c%d", i))
	}
	for p := 0; p < k; p++ {
		for j := 1; j <= half; j++ {
			t.Switches = append(t.Switches, fmt.Sprintf("p%da%d", p, j))
		}
		for j := 1; j <= half; j++ {
			edge := fmt.Sprintf("p%de%d", p, j)
			t.Switches = append(t.Switches, edge)
			t.Hosts = append(t.Hosts, HostSpec{Name: edge + "h1", Switch: edge})
		}
		for a := 1; a <= half; a++ {
			agg := fmt.Sprintf("p%da%d", p, a)
			for c := 1; c <= half; c++ {
				t.Links = append(t.Links, LinkSpec{A: agg, B: fmt.Sprintf("c%d", (a-1)*half+c), Bandwidth: s.TrunkBW})
			}
			for e := 1; e <= half; e++ {
				t.Links = append(t.Links, LinkSpec{A: agg, B: fmt.Sprintf("p%de%d", p, e), Bandwidth: s.TrunkBW})
			}
		}
	}
	s.addEEs(t)
	return t, nil
}

// addEEs gives every switch with hosts one EE, in host order (each
// generator lists a switch's hosts together).
func (s Sizing) addEEs(t *Topo) {
	if s.EECPU <= 0 {
		return
	}
	for i, h := range t.Hosts {
		if i == 0 || t.Hosts[i-1].Switch != h.Switch {
			t.EEs = append(t.EEs, EESpec{Name: "ee-" + h.Switch, Switch: h.Switch, CPU: s.EECPU, Mem: s.EEMem})
		}
	}
}
