package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"escape/internal/catalog"
	"escape/internal/netem"
	"escape/internal/pox"
	"escape/internal/steering"
	"escape/internal/vnfagent"
)

// EESpec sizes one VNF container in a TopoSpec.
type EESpec struct {
	Switch string
	CPU    float64
	Mem    int
}

// TrunkSpec is one inter-switch link.
type TrunkSpec struct {
	A, B      string
	Bandwidth float64
	Delay     time.Duration
}

// TopoSpec declares a complete test topology: ESCAPE's "define VNF
// containers and the rest of the topology" demo step as a value.
type TopoSpec struct {
	Switches []string
	// Hosts maps host (SAP) names to their switch.
	Hosts map[string]string
	// EEs maps container names to placement and sizing.
	EEs map[string]EESpec
	// Trunks are switch-to-switch links.
	Trunks []TrunkSpec
	// HostLink shapes host-switch links (zero = unshaped).
	HostLink netem.LinkConfig
	// Mapper overrides the default (KSP) algorithm.
	Mapper Mapper
}

// Environment is a running ESCAPE instance: emulated network, controller
// with l2_learning + steering, one NETCONF agent per EE, and the
// orchestrator on top. It packages the whole service-chaining environment
// the paper's intro promises to set up for the developer.
type Environment struct {
	Net      *netem.Network
	Ctrl     *pox.Controller
	Steering *steering.Steering
	Orch     *Orchestrator
	View     *ResourceView
	Agents   map[string]*vnfagent.Agent
	Catalog  *catalog.Catalog
}

// StartEnvironment builds and starts everything described by spec.
func StartEnvironment(spec TopoSpec) (*Environment, error) {
	ctrl := pox.NewController()
	st := steering.New(ctrl)
	ctrl.Register(pox.NewL2Learning())
	ctrl.Register(st)
	n := netem.New("escape", netem.Options{Controller: ctrl})

	cleanup := func() {
		n.Stop()
		ctrl.Close()
	}
	for _, sw := range spec.Switches {
		if _, err := n.AddSwitch(sw); err != nil {
			cleanup()
			return nil, err
		}
	}
	// Hosts and EEs are wired in name order, so one spec gives every host
	// the same switch port, IP and MAC on every run.
	for _, host := range slices.Sorted(maps.Keys(spec.Hosts)) {
		if _, err := n.AddHost(host); err != nil {
			cleanup()
			return nil, err
		}
		if _, err := n.AddLink(host, spec.Hosts[host], spec.HostLink); err != nil {
			cleanup()
			return nil, err
		}
	}
	eeNames := slices.Sorted(maps.Keys(spec.EEs))
	eeSwitch := map[string]string{}
	for _, name := range eeNames {
		ee := spec.EEs[name]
		if _, err := n.AddEE(name, netem.EEConfig{CPU: ee.CPU, Mem: ee.Mem}); err != nil {
			cleanup()
			return nil, err
		}
		eeSwitch[name] = ee.Switch
	}
	for _, tr := range spec.Trunks {
		cfg := netem.LinkConfig{Bandwidth: tr.Bandwidth, Delay: tr.Delay}
		if _, err := n.AddLink(tr.A, tr.B, cfg); err != nil {
			cleanup()
			return nil, err
		}
	}
	if err := n.Start(); err != nil {
		cleanup()
		return nil, err
	}

	view, err := BuildResourceView(n, eeSwitch)
	if err != nil {
		cleanup()
		return nil, err
	}

	cat := catalog.Default()
	agents := map[string]*vnfagent.Agent{}
	agentAddrs := map[string]string{}
	for _, name := range eeNames {
		ee := n.Node(name).(*netem.EE)
		a := vnfagent.New(ee, n, cat)
		// The dedicated control network: every agent management endpoint
		// is reachable out-of-band from the orchestrator.
		if err := a.ListenAndServe("127.0.0.1:0"); err != nil {
			cleanup()
			return nil, fmt.Errorf("core: starting agent for %q: %w", name, err)
		}
		agents[name] = a
		agentAddrs[name] = a.Addr()
	}

	orch, err := New(Config{
		Controller: ctrl,
		Steering:   st,
		Catalog:    cat,
		View:       view,
		Agents:     agentAddrs,
		Mapper:     spec.Mapper,
	})
	if err != nil {
		cleanup()
		return nil, err
	}
	return &Environment{
		Net:      n,
		Ctrl:     ctrl,
		Steering: st,
		Orch:     orch,
		View:     view,
		Agents:   agents,
		Catalog:  cat,
	}, nil
}

// Host returns a host node by name, or nil.
func (e *Environment) Host(name string) *netem.Host {
	h, _ := e.Net.Node(name).(*netem.Host)
	return h
}

// Close tears the whole environment down. The orchestrator is drained
// first (Shutdown): deploys still in flight cancel and roll back rather
// than racing the substrate teardown below.
func (e *Environment) Close() {
	e.Orch.Shutdown()
	for _, a := range e.Agents {
		a.Close()
	}
	e.Net.Stop()
	e.Ctrl.Close()
}
