package domain

import (
	"fmt"
	"sort"
	"time"

	"escape/internal/core"
)

// DomainSpec declares one orchestration domain of a multi-domain
// topology. Node names must be globally unique across domains.
type DomainSpec struct {
	Name     string
	Switches []string
	// Hosts maps SAP names to their attachment switch.
	Hosts map[string]string
	// EEs maps container names to placement and sizing.
	EEs map[string]core.EESpec
	// Trunks are intra-domain switch-to-switch links.
	Trunks []core.TrunkSpec
}

// InterLink is one inter-domain gateway trunk joining border switches of
// two domains. At most one trunk per domain pair.
type InterLink struct {
	ADomain, ASwitch string
	BDomain, BSwitch string
	Bandwidth        float64
	Delay            time.Duration
}

// Spec declares a complete multi-domain environment.
type Spec struct {
	Domains []DomainSpec
	Inter   []InterLink
	// GlobalMapper maps service graphs onto the domain abstraction
	// (default KSPMapper) — the same Mapper interface domains use
	// internally, run one level up.
	GlobalMapper core.Mapper
	// DomainMapper overrides the per-domain mapping algorithm (default
	// KSPMapper).
	DomainMapper core.Mapper
}

// Environment is a running multi-domain ESCAPE instance. The embedded
// core.Environment owns the shared infrastructure (one emulated network,
// one controller, one steering component, one NETCONF agent per EE) and
// its Orch is a *flat* orchestrator over the full topology — the
// single-domain baseline of E10's ablation. Global is the hierarchical
// orchestrator over the same infrastructure.
type Environment struct {
	*core.Environment
	Global *GlobalOrchestrator
}

// Close shuts the hierarchy down, then the shared infrastructure.
func (e *Environment) Close() {
	e.Global.Close()
	e.Environment.Close()
}

// validate checks spec well-formedness and returns ownership indexes.
func validate(spec Spec) (switchDom map[string]string, err error) {
	if len(spec.Domains) == 0 {
		return nil, fmt.Errorf("domain: spec needs at least one domain")
	}
	switchDom = map[string]string{}
	domains := map[string]bool{}
	names := map[string]string{} // any node name → kind, for uniqueness
	claim := func(name, kind string) error {
		if prev, dup := names[name]; dup {
			return fmt.Errorf("domain: name %q used by both %s and %s", name, prev, kind)
		}
		names[name] = kind
		return nil
	}
	for _, d := range spec.Domains {
		if d.Name == "" {
			return nil, fmt.Errorf("domain: domain with empty name")
		}
		if domains[d.Name] {
			return nil, fmt.Errorf("domain: duplicate domain %q", d.Name)
		}
		domains[d.Name] = true
		if len(d.Switches) == 0 {
			return nil, fmt.Errorf("domain: %q has no switches", d.Name)
		}
		for _, sw := range d.Switches {
			if err := claim(sw, "switch"); err != nil {
				return nil, err
			}
			switchDom[sw] = d.Name
		}
		for h, sw := range d.Hosts {
			if err := claim(h, "host"); err != nil {
				return nil, err
			}
			if switchDom[sw] != d.Name {
				return nil, fmt.Errorf("domain: host %q attached to foreign switch %q", h, sw)
			}
		}
		for ee, espec := range d.EEs {
			if err := claim(ee, "EE"); err != nil {
				return nil, err
			}
			if switchDom[espec.Switch] != d.Name {
				return nil, fmt.Errorf("domain: EE %q attached to foreign switch %q", ee, espec.Switch)
			}
		}
		for _, tr := range d.Trunks {
			if switchDom[tr.A] != d.Name || switchDom[tr.B] != d.Name {
				return nil, fmt.Errorf("domain: trunk %s–%s leaves domain %q (use Inter for gateway links)", tr.A, tr.B, d.Name)
			}
		}
	}
	pairs := map[gwKey]bool{}
	for _, il := range spec.Inter {
		if il.ADomain == il.BDomain {
			return nil, fmt.Errorf("domain: inter-link %s–%s stays inside %q", il.ASwitch, il.BSwitch, il.ADomain)
		}
		if switchDom[il.ASwitch] != il.ADomain || switchDom[il.BSwitch] != il.BDomain {
			return nil, fmt.Errorf("domain: inter-link %s–%s endpoints not owned by %s/%s",
				il.ASwitch, il.BSwitch, il.ADomain, il.BDomain)
		}
		k := gwKey{il.ADomain, il.BDomain}
		if il.ADomain > il.BDomain {
			k = gwKey{il.BDomain, il.ADomain}
		}
		if pairs[k] {
			return nil, fmt.Errorf("domain: multiple gateway trunks between %s and %s", il.ADomain, il.BDomain)
		}
		pairs[k] = true
	}
	return switchDom, nil
}

// StartEnvironment builds and starts everything described by spec: the
// flattened physical topology through core.StartEnvironment (sharing its
// controller, steering, agents and flat orchestrator), then the
// per-domain resource views, domain orchestrators and the global
// orchestrator on top.
func StartEnvironment(spec Spec) (*Environment, error) {
	if _, err := validate(spec); err != nil {
		return nil, err
	}

	// Flatten into one physical TopoSpec: gateway trunks are ordinary
	// links at the infrastructure layer.
	flat := core.TopoSpec{
		Hosts: map[string]string{},
		EEs:   map[string]core.EESpec{},
	}
	for _, d := range spec.Domains {
		flat.Switches = append(flat.Switches, d.Switches...)
		for h, sw := range d.Hosts {
			flat.Hosts[h] = sw
		}
		for ee, espec := range d.EEs {
			flat.EEs[ee] = espec
		}
		flat.Trunks = append(flat.Trunks, d.Trunks...)
	}
	for _, il := range spec.Inter {
		flat.Trunks = append(flat.Trunks, core.TrunkSpec{
			A: il.ASwitch, B: il.BSwitch, Bandwidth: il.Bandwidth, Delay: il.Delay,
		})
	}
	env, err := core.StartEnvironment(flat)
	if err != nil {
		return nil, err
	}

	global, err := buildHierarchy(spec, env)
	if err != nil {
		env.Close()
		return nil, err
	}
	return &Environment{Environment: env, Global: global}, nil
}

// buildHierarchy derives per-domain views, domain orchestrators and the
// global orchestrator from a started flat environment.
func buildHierarchy(spec Spec, env *core.Environment) (*GlobalOrchestrator, error) {
	g := &GlobalOrchestrator{
		mapper:    spec.GlobalMapper,
		domains:   map[string]*Domain{},
		gateways:  map[gwKey]string{},
		sapDomain: map[string]string{},
		tags:      newTagAllocator(),
		services:  map[string]*GlobalService{},
	}
	if g.mapper == nil {
		g.mapper = &core.KSPMapper{Catalog: env.Catalog}
	}

	views := map[string]*core.ResourceView{}
	for _, d := range spec.Domains {
		dv := core.NewResourceView()
		for _, sw := range d.Switches {
			dpid, ok := env.View.Switches[sw]
			if !ok {
				return nil, fmt.Errorf("domain: switch %q missing from flat view", sw)
			}
			dv.Switches[sw] = dpid
		}
		for ee := range d.EEs {
			res := env.View.EEs[ee]
			if res == nil {
				return nil, fmt.Errorf("domain: EE %q missing from flat view", ee)
			}
			cp := *res
			dv.EEs[ee] = &cp
		}
		for h := range d.Hosts {
			sap := env.View.SAPs[h]
			if sap == nil {
				return nil, fmt.Errorf("domain: SAP %q missing from flat view", h)
			}
			cp := *sap
			dv.SAPs[h] = &cp
			g.sapDomain[h] = d.Name
		}
		for _, l := range env.View.Links {
			_, aIn := dv.Switches[l.A]
			_, bIn := dv.Switches[l.B]
			if aIn && bIn {
				cp := *l
				dv.Links = append(dv.Links, &cp)
			}
		}
		views[d.Name] = dv
		g.order = append(g.order, d.Name)
	}
	sort.Strings(g.order)

	// Gateway pseudo-SAPs: each side of an inter-domain trunk becomes a
	// SAP in its domain's view, bound to the border switch port facing
	// the peer.
	for _, il := range spec.Inter {
		lr := linkFor(env.View, il.ASwitch, il.BSwitch)
		if lr == nil {
			return nil, fmt.Errorf("domain: gateway trunk %s–%s missing from flat view", il.ASwitch, il.BSwitch)
		}
		aPort, bPort := lr.PortA, lr.PortB
		if lr.A != il.ASwitch {
			aPort, bPort = lr.PortB, lr.PortA
		}
		aSAP := GatewaySAP(il.ADomain, il.BDomain)
		bSAP := GatewaySAP(il.BDomain, il.ADomain)
		views[il.ADomain].SAPs[aSAP] = &core.SAPRes{ID: aSAP, Switch: il.ASwitch, Port: aPort}
		views[il.BDomain].SAPs[bSAP] = &core.SAPRes{ID: bSAP, Switch: il.BSwitch, Port: bPort}
		g.gateways[gwKey{il.ADomain, il.BDomain}] = aSAP
		g.gateways[gwKey{il.BDomain, il.ADomain}] = bSAP
	}

	// Domain orchestrators share the controller, steering, catalog and
	// agents of the flat environment; only the view is domain-local.
	for _, d := range spec.Domains {
		agents := map[string]string{}
		for ee := range d.EEs {
			agents[ee] = env.Agents[ee].Addr()
		}
		orch, err := core.New(core.Config{
			Controller: env.Ctrl,
			Steering:   env.Steering,
			Catalog:    env.Catalog,
			View:       views[d.Name],
			Agents:     agents,
			Mapper:     spec.DomainMapper,
		})
		if err != nil {
			return nil, err
		}
		g.domains[d.Name] = &Domain{Name: d.Name, Orch: orch, View: views[d.Name]}
	}

	g.abstract = buildAbstract(spec, views, g.sapDomain)
	return g, nil
}

// buildAbstract constructs the domain-abstraction resource view: one
// pseudo-switch and one aggregated EE per domain, every real SAP bound to
// its domain's pseudo-switch, and one abstract link per gateway trunk.
// This is the "aggregated capacity/delay view" each domain advertises
// upward — deliberately lossy: a request the aggregate admits can still
// be rejected by the domain (no single EE fits), which surfaces as a
// domain-level admission failure and a global rollback.
func buildAbstract(spec Spec, views map[string]*core.ResourceView, sapDomain map[string]string) *core.ResourceView {
	rv := core.NewResourceView()
	for i, d := range spec.Domains {
		rv.Switches[d.Name] = uint64(i + 1)
		var cpu float64
		var mem int
		for _, ee := range views[d.Name].EEs {
			cpu += ee.CPU
			mem += ee.Mem
		}
		rv.EEs[d.Name] = &core.EERes{Name: d.Name, CPU: cpu, Mem: mem, Switch: d.Name}
	}
	for sap, dom := range sapDomain {
		rv.SAPs[sap] = &core.SAPRes{ID: sap, Host: sap, Switch: dom}
	}
	for _, il := range spec.Inter {
		rv.Links = append(rv.Links, &core.LinkRes{
			A: il.ADomain, B: il.BDomain,
			Bandwidth: il.Bandwidth, Delay: il.Delay,
		})
	}
	return rv
}

// linkFor finds the flat-view link joining two switches.
func linkFor(rv *core.ResourceView, a, b string) *core.LinkRes {
	for _, l := range rv.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l
		}
	}
	return nil
}
