package domain

import (
	"fmt"
	"sort"

	"escape/internal/core"
	"escape/internal/sg"
)

// deployPlan is the result of splitting one service graph at domain
// boundaries.
type deployPlan struct {
	// subs maps each touched domain to its sub-graph (named
	// "<service>@<domain>").
	subs map[string]*sg.Graph
	// tags are the stitch VLANs allocated for gateway crossings.
	tags []uint16
}

// SubName is the name under which a service's slice is deployed inside
// one domain.
func SubName(service, domain string) string { return service + "@" + domain }

// nodeDomain resolves which domain a service-graph node lives in under
// the abstract mapping: SAPs by infrastructure binding, NFs by placement.
func (g *GlobalOrchestrator) nodeDomain(graph *sg.Graph, am *core.Mapping, node string) (string, error) {
	if graph.IsSAP(node) {
		d, ok := g.sapDomain[node]
		if !ok {
			return "", fmt.Errorf("domain: SAP %q bound to no domain", node)
		}
		return d, nil
	}
	d, ok := am.Placements[node]
	if !ok {
		return "", fmt.Errorf("domain: NF %q has no domain placement", node)
	}
	return d, nil
}

// split decomposes graph into per-domain sub-graphs following the
// abstract mapping: intra-domain SG links are copied verbatim, links
// whose abstract route crosses domains become one segment per visited
// domain, joined through gateway pseudo-SAPs and stitched with a fresh
// VLAN tag per crossing. Transit domains (route passes through, nothing
// placed) receive pure SAP→SAP forwarding sub-graphs. On error all
// allocated tags are released.
func (g *GlobalOrchestrator) split(graph *sg.Graph, am *core.Mapping) (plan *deployPlan, err error) {
	plan = &deployPlan{subs: map[string]*sg.Graph{}}
	defer func() {
		if err != nil {
			g.tags.release(plan.tags)
		}
	}()

	sub := func(d string) *sg.Graph {
		s := plan.subs[d]
		if s == nil {
			s = &sg.Graph{Name: SubName(graph.Name, d)}
			plan.subs[d] = s
		}
		return s
	}
	addSAP := func(d, id string) {
		s := sub(d)
		if s.SAP(id) == nil {
			s.SAPs = append(s.SAPs, &sg.SAP{ID: id})
		}
	}
	addNF := func(d string, nf *sg.NF) {
		s := sub(d)
		if s.NF(nf.ID) == nil {
			cp := *nf
			if nf.Params != nil {
				cp.Params = make(map[string]string, len(nf.Params))
				for k, v := range nf.Params {
					cp.Params[k] = v
				}
			}
			s.NFs = append(s.NFs, &cp)
		}
	}
	// addEndpoint registers a real (non-gateway) endpoint in domain d.
	addEndpoint := func(d string, ep sg.Endpoint) {
		if graph.IsSAP(ep.Node) {
			addSAP(d, ep.Node)
			return
		}
		if nf := graph.NF(ep.Node); nf != nil {
			addNF(d, nf)
		}
	}

	links := append([]*sg.Link(nil), graph.Links...)
	sort.Slice(links, func(i, j int) bool { return links[i].ID < links[j].ID })
	for _, l := range links {
		route := am.Routes[l.ID]
		if len(route) == 0 {
			return nil, fmt.Errorf("domain: link %q has no abstract route", l.ID)
		}
		srcDom, err := g.nodeDomain(graph, am, l.Src.Node)
		if err != nil {
			return nil, err
		}
		dstDom, err := g.nodeDomain(graph, am, l.Dst.Node)
		if err != nil {
			return nil, err
		}
		if route[0] != srcDom || route[len(route)-1] != dstDom {
			return nil, fmt.Errorf("domain: link %q route %v does not join %s→%s",
				l.ID, route, srcDom, dstDom)
		}
		bw := l.Bandwidth
		if d, ok := am.Demands[l.ID]; ok {
			bw = float64(d)
		}
		if len(route) == 1 {
			// Entirely intra-domain: the link survives as-is.
			addEndpoint(srcDom, l.Src)
			addEndpoint(srcDom, l.Dst)
			cp := *l
			cp.Bandwidth = bw
			sub(srcDom).Links = append(sub(srcDom).Links, &cp)
			continue
		}
		// One stitch tag per gateway crossing.
		tags := make([]uint16, len(route)-1)
		for i := range tags {
			t, err := g.tags.alloc()
			if err != nil {
				return nil, err
			}
			plan.tags = append(plan.tags, t)
			tags[i] = t
		}
		for j, d := range route {
			if _, ok := g.gateways[gwKey{d, pick(route, j+1)}]; j < len(route)-1 && !ok {
				return nil, fmt.Errorf("domain: no gateway %s→%s for link %q", d, route[j+1], l.ID)
			}
			seg := &sg.Link{
				ID:        fmt.Sprintf("%s~%d", l.ID, j),
				Bandwidth: bw,
				// Every segment inherits the link's full delay budget:
				// each domain's slice must fit the bound on its own (the
				// gateway-trunk share is checked globally over the
				// abstract route). Per-segment enforcement under-counts
				// the chain total but never lets a single domain exceed
				// what the flat orchestrator would allow.
				MaxDelay: l.MaxDelay,
			}
			if j == 0 {
				seg.Src = l.Src
				addEndpoint(d, l.Src)
			} else {
				in := GatewaySAP(d, route[j-1])
				seg.Src = sg.Endpoint{Node: in}
				addSAP(d, in)
				seg.IngressTag = tags[j-1]
			}
			if j == len(route)-1 {
				seg.Dst = l.Dst
				addEndpoint(d, l.Dst)
			} else {
				out := GatewaySAP(d, route[j+1])
				seg.Dst = sg.Endpoint{Node: out}
				addSAP(d, out)
				seg.EgressTag = tags[j]
			}
			sub(d).Links = append(sub(d).Links, seg)
		}
	}

	// NFs no link references still got placed (and charged) by the
	// abstract mapping; delegate them to their domain so hierarchical
	// deploys realize exactly what flat deploys would.
	for _, nf := range graph.NFs {
		d, ok := am.Placements[nf.ID]
		if !ok {
			return nil, fmt.Errorf("domain: NF %q has no domain placement", nf.ID)
		}
		addNF(d, nf)
	}

	for d, s := range plan.subs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("domain: split for %s invalid: %w", d, err)
		}
	}
	return plan, nil
}

// pick returns route[i] or "" past the end (gateway lookup helper).
func pick(route []string, i int) string {
	if i < len(route) {
		return route[i]
	}
	return ""
}
