package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
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

// TopoSpec declares a complete test topology keyed by name: ESCAPE's
// "define VNF containers and the rest of the topology" demo step as a
// value, and the JSON topology file LoadTopo reads (MiniEdit's
// "resources and topology" pane).
type TopoSpec struct {
	Switches []string `json:"switches"`
	// Hosts maps host (SAP) names to their switch.
	Hosts map[string]string `json:"hosts"`
	// EEs maps container names to placement and sizing.
	EEs map[string]EESpec `json:"ees"`
	// Trunks are switch-to-switch links.
	Trunks []TrunkSpec `json:"trunks"`
	// Mapper overrides the default (KSP) algorithm.
	Mapper Mapper `json:"-"`
}

// Topo sorts the spec into the ordered description netem.Build and
// ViewFromSpec read: switches and trunks as declared, hosts and EEs in
// name order, so one spec gives every host the same switch port, IP and
// MAC on every run.
func (spec TopoSpec) Topo() *netem.Topo {
	t := &netem.Topo{Name: "escape", Switches: spec.Switches}
	for _, tr := range spec.Trunks {
		t.Links = append(t.Links, netem.LinkSpec{A: tr.A, B: tr.B, Bandwidth: tr.Bandwidth, Delay: tr.Delay})
	}
	for _, host := range slices.Sorted(maps.Keys(spec.Hosts)) {
		t.Hosts = append(t.Hosts, netem.HostSpec{Name: host, Switch: spec.Hosts[host]})
	}
	for _, name := range slices.Sorted(maps.Keys(spec.EEs)) {
		ee := spec.EEs[name]
		t.EEs = append(t.EEs, netem.EESpec{Name: name, Switch: ee.Switch, CPU: ee.CPU, Mem: ee.Mem})
	}
	return t
}

// LoadTopo reads a topology file. A key the format does not have, at any
// depth, is an error naming it: a misspelt key must not quietly deploy a
// different topology. So is data after the topology object, and a
// topology whose description does not validate.
func LoadTopo(path string) (TopoSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TopoSpec{}, err
	}
	spec, err := parseTopo(data)
	if err != nil {
		return TopoSpec{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return spec, nil
}

func parseTopo(data []byte) (TopoSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec TopoSpec
	if err := dec.Decode(&spec); err != nil {
		return TopoSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return TopoSpec{}, errors.New("data after the topology object")
	}
	if err := spec.Topo().Validate(); err != nil {
		return TopoSpec{}, err
	}
	return spec, nil
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
	topo := spec.Topo()
	view, err := ViewFromSpec(topo)
	if err != nil {
		return nil, err
	}
	ctrl := pox.NewController()
	st := steering.New(ctrl)
	ctrl.Register(pox.NewL2Learning())
	ctrl.Register(st)
	n, err := netem.Build(topo, netem.Options{Controller: ctrl})
	if err != nil {
		ctrl.Close()
		return nil, err
	}
	cleanup := func() {
		n.Stop()
		ctrl.Close()
	}
	if err := n.Start(); err != nil {
		cleanup()
		return nil, err
	}

	cat := catalog.Default()
	agents := map[string]*vnfagent.Agent{}
	agentAddrs := map[string]string{}
	for _, e := range topo.EEs {
		a := vnfagent.New(n.Node(e.Name).(*netem.EE), n, cat)
		// The dedicated control network: every agent management endpoint
		// is reachable out-of-band from the orchestrator.
		if err := a.ListenAndServe("127.0.0.1:0"); err != nil {
			cleanup()
			return nil, fmt.Errorf("core: starting agent for %q: %w", e.Name, err)
		}
		agents[e.Name] = a
		agentAddrs[e.Name] = a.Addr()
	}

	orch, err := newOrchestrator(config{
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
	e.Orch.shutdown()
	for _, a := range e.Agents {
		a.Close()
	}
	e.Net.Stop()
	e.Ctrl.Close()
}
