package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// Mapping is the result of mapping a service graph onto resources.
type Mapping struct {
	Graph *sg.Graph
	// Placements assigns each NF id to an EE name.
	Placements map[string]string
	// Routes assigns each SG link id the switch-name route from its
	// source attachment switch to its destination attachment switch
	// (inclusive; length 1 when both attach to the same switch).
	Routes map[string][]string
	// Demands is the effective bandwidth demand per SG link id (link
	// demand raised by sub-graph requirements); nil falls back to the
	// links' own Bandwidth fields.
	Demands map[string]sg.BW
	// Catalog resolves NF types for resource demands.
	Catalog *catalog.Catalog
}

// linkDemand resolves the committed bandwidth for one SG link.
func (m *Mapping) linkDemand(l *sg.Link) sg.BW {
	if d, ok := m.Demands[l.ID]; ok {
		return d
	}
	bw, _ := sg.BWOf(l.Bandwidth) // sg.Validate has range-checked it
	return bw
}

// NFDemand is the one defaulting rule for NF resource demands (the SG's
// own CPU/mem, else the catalog type's defaults), shared by mapping-time
// placement, commit/release accounting and the control plane's quota
// pre-check so they can never diverge.
func NFDemand(cat *catalog.Catalog, nf *sg.NF) (sg.CPU, int) {
	cpu, _ := sg.CPUOf(nf.CPU) // sg.Validate has range-checked it
	mem := nf.Mem
	if cat != nil {
		if t, err := cat.Lookup(nf.Type); err == nil {
			if cpu == 0 {
				cpu = t.DefaultCPU
			}
			if mem == 0 {
				mem = t.DefaultMem
			}
		}
	}
	return cpu, mem
}

// GraphDemand sums the mapping's graph-level resource demand: CPU and
// memory over every placed NF (catalog defaults applied) and bandwidth
// over every SG link's effective demand. It is placement-independent —
// healing moves a service without changing it — which is what makes it
// the right unit for per-tenant quota accounting (see CommitGate).
func (m *Mapping) GraphDemand() (cpu sg.CPU, mem int, bw sg.BW) {
	for nfID := range m.Placements {
		if nf := m.Graph.NF(nfID); nf != nil {
			c, mm := NFDemand(m.Catalog, nf)
			cpu += c
			mem += mm
		}
	}
	for linkID := range m.Routes {
		if l := m.Graph.Link(linkID); l != nil {
			bw += m.linkDemand(l)
		}
	}
	return cpu, mem, bw
}

// TotalHops sums route lengths (in links) over all SG links: the
// path-stretch metric reported by experiment E4.
func (m *Mapping) TotalHops() int {
	total := 0
	for _, route := range m.Routes {
		total += len(route) - 1
	}
	return total
}

// Mapper maps service graphs onto the resource view. Implementations must
// not mutate rv; they work on Snapshot() capacities — an O(1)
// copy-on-write view pinned to the epoch of the moment, so Map can run
// lock-free while concurrent admissions commit. Map sees a consistent
// (possibly slightly stale) world; AdmitAndCommit validates the result
// against the live epoch before committing it.
type Mapper interface {
	// MapperName identifies the algorithm ("greedy", "backtrack", …).
	MapperName() string
	// Map computes placements and routes, or an error when the request
	// cannot be satisfied.
	Map(g *sg.Graph, rv *ResourceView) (*Mapping, error)
}

// mapContext bundles shared mapping state and helpers.
type mapContext struct {
	g    *sg.Graph
	rv   *ResourceView
	cat  *catalog.Catalog
	caps *Capacities
	// demands is the effective bandwidth demand per SG link id: the
	// link's own demand raised by any end-to-end requirement covering it.
	demands map[string]sg.BW
	// reqChains pairs each sub-graph requirement with the chains it
	// governs (for post-routing delay checks).
	reqChains []reqChain
	// chains memoizes g.Chains() — computed once per admission, shared
	// by requirement matching, chain-aware placement and NF ordering.
	chains    []*sg.Chain
	chainsErr error
	chainsSet bool
}

// chainList returns the graph's chains, computed once. The graph was
// validated by newMapContext, so the re-validating Chains entry point
// would only repeat work on the admission hot path.
func (mc *mapContext) chainList() ([]*sg.Chain, error) {
	if !mc.chainsSet {
		mc.chains, mc.chainsErr = mc.g.ChainsUnchecked()
		mc.chainsSet = true
	}
	return mc.chains, mc.chainsErr
}

type reqChain struct {
	req   *sg.Requirement
	chain *sg.Chain
}

func newMapContext(g *sg.Graph, rv *ResourceView, cat *catalog.Catalog) (*mapContext, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, s := range g.SAPs {
		if rv.SAPs[s.ID] == nil {
			return nil, fmt.Errorf("core: SAP %q has no infrastructure binding", s.ID)
		}
	}
	if len(rv.EEs) == 0 && len(g.NFs) > 0 {
		return nil, fmt.Errorf("core: no EEs available")
	}
	mc := &mapContext{g: g, rv: rv, cat: cat, caps: rv.Snapshot(), demands: map[string]sg.BW{}}
	for _, l := range g.Links {
		mc.demands[l.ID], _ = sg.BWOf(l.Bandwidth) // validated above
	}
	if len(g.Reqs) > 0 {
		chains, err := mc.chainList()
		if err != nil {
			return nil, err
		}
		for _, r := range g.Reqs {
			matched := false
			for _, c := range chains {
				if c.Nodes[0] != r.From || c.Nodes[len(c.Nodes)-1] != r.To {
					continue
				}
				matched = true
				mc.reqChains = append(mc.reqChains, reqChain{req: r, chain: c})
				if bw, _ := sg.BWOf(r.Bandwidth); bw > 0 {
					for _, l := range c.Links {
						mc.demands[l.ID] = max(mc.demands[l.ID], bw)
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("core: requirement %q matches no chain %s→%s", r.ID, r.From, r.To)
			}
		}
	}
	return mc, nil
}

// routeDelay sums the propagation delay of one switch route.
func (mc *mapContext) routeDelay(route []string) time.Duration {
	var total time.Duration
	for i := 0; i+1 < len(route); i++ {
		if l := mc.rv.linkBetween(route[i], route[i+1]); l != nil {
			total += l.Delay
		}
	}
	return total
}

// checkE2E validates sub-graph delay requirements against routed paths.
func (mc *mapContext) checkE2E(routes map[string][]string) error {
	for _, rc := range mc.reqChains {
		if rc.req.MaxDelay <= 0 {
			continue
		}
		var total time.Duration
		for _, l := range rc.chain.Links {
			total += mc.routeDelay(routes[l.ID])
		}
		if total > rc.req.MaxDelay {
			return fmt.Errorf("core: requirement %q violated: chain %s delay %v > %v",
				rc.req.ID, rc.chain, total, rc.req.MaxDelay)
		}
	}
	return nil
}

// attachSwitch resolves the switch a node (SAP or placed NF) attaches to.
func (mc *mapContext) attachSwitch(node string, placements map[string]string) (string, error) {
	if sap := mc.rv.SAPs[node]; sap != nil {
		return sap.Switch, nil
	}
	ee, placed := placements[node]
	if !placed {
		return "", fmt.Errorf("core: NF %q not yet placed", node)
	}
	return mc.rv.EEs[ee].Switch, nil
}

// routeLinks routes every SG link over caps given complete placements,
// reserving bandwidth as it goes, by the link IDs the path engine hands
// back with each route. Links are routed in sorted id order for
// determinism (a graph whose links are already in that order is not
// copied).
func (mc *mapContext) routeLinks(placements map[string]string, caps *Capacities) (map[string][]string, error) {
	links := mc.g.Links
	byID := func(a, b *sg.Link) int { return strings.Compare(a.ID, b.ID) }
	if !slices.IsSortedFunc(links, byID) {
		links = slices.Clone(links)
		slices.SortFunc(links, byID)
	}
	routes := make(map[string][]string, len(links))
	for _, l := range links {
		src, err := mc.attachSwitch(l.Src.Node, placements)
		if err != nil {
			return nil, err
		}
		dst, err := mc.attachSwitch(l.Dst.Node, placements)
		if err != nil {
			return nil, err
		}
		bw := mc.demands[l.ID]
		route, ids := caps.shortestFeasible(src, dst, bw, l.MaxDelay)
		if route == nil {
			return nil, fmt.Errorf("core: no feasible path for link %q (%s→%s, bw=%d, delay≤%v)",
				l.ID, src, dst, bw, l.MaxDelay)
		}
		caps.takeLinks(ids, bw)
		routes[l.ID] = route
	}
	if err := mc.checkE2E(routes); err != nil {
		return nil, err
	}
	return routes, nil
}

// nfsInChainOrder returns the graph's NFs ordered by their first
// appearance in chains (placement order matters for chain-aware
// algorithms), falling back to declaration order for NFs outside chains.
func (mc *mapContext) nfsInChainOrder() []*sg.NF {
	seen := map[string]bool{}
	var out []*sg.NF
	chains, err := mc.chainList()
	if err == nil {
		for _, c := range chains {
			for _, node := range c.Nodes {
				if nf := mc.g.NF(node); nf != nil && !seen[node] {
					seen[node] = true
					out = append(out, nf)
				}
			}
		}
	}
	for _, nf := range mc.g.NFs {
		if !seen[nf.ID] {
			seen[nf.ID] = true
			out = append(out, nf)
		}
	}
	return out
}
