// Package domain implements ESCAPE's multi-domain (hierarchical)
// orchestration layer: the recursive step the paper's layered
// architecture promises. A GlobalOrchestrator owns N domains, each backed
// by its own core.Orchestrator over a domain-local ResourceView. Incoming
// service graphs are mapped at the domain abstraction level (every domain
// advertises one aggregated EE and one pseudo-switch, inter-domain
// gateway trunks become abstract links, and the ordinary core.Mapper
// interface runs unchanged on that view), split at inter-domain boundary
// links into per-domain sub-graphs, delegated to the domain orchestrators
// concurrently, and stitched back together at the gateway switches with
// per-crossing VLAN tags (sg.Link.IngressTag/EgressTag →
// steering.Path.IngressVLAN/EgressVLAN).
package domain

import (
	"fmt"
	"sort"
	"sync"

	"escape/internal/core"
	"escape/internal/sg"
	"escape/internal/steering"
)

// Domain is one orchestration domain: a slice of the infrastructure with
// its own resource view and orchestrator.
type Domain struct {
	Name string
	// Orch is the domain-local orchestrator sub-graphs are delegated to.
	Orch *core.Orchestrator
	// View is the domain-local resource view (domain switches, EEs, SAPs
	// plus one gateway pseudo-SAP per inter-domain trunk).
	View *core.ResourceView
}

// gwKey identifies a directed domain adjacency.
type gwKey struct{ from, to string }

// GatewaySAP names the pseudo-SAP through which domain "from" hands
// traffic to domain "to". The "gw:" prefix is reserved: service graphs
// must not use it for their own nodes.
func GatewaySAP(from, to string) string { return "gw:" + from + ":" + to }

// reservedNode reports whether a node id collides with the gateway
// namespace.
func reservedNode(id string) bool {
	return len(id) >= 3 && id[:3] == "gw:"
}

// tagAllocator hands out stitch VLAN ids downward from sg.MaxStitchTag
// to tagFloor. The shared Steering component caps its segment VLANs at
// steering.MaxSegmentVLAN (= tagFloor-1), so the two ranges are disjoint
// by construction and a stitch tag can never collide with a segment tag.
type tagAllocator struct {
	mu   sync.Mutex
	next uint16
	free []uint16
}

// tagFloor sits just above the segment-VLAN cap, keeping the relation a
// compile-time fact rather than a comment.
const tagFloor = steering.MaxSegmentVLAN + 1

func newTagAllocator() *tagAllocator { return &tagAllocator{next: sg.MaxStitchTag} }

func (a *tagAllocator) alloc() (uint16, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		t := a.free[n-1]
		a.free = a.free[:n-1]
		return t, nil
	}
	if a.next < tagFloor {
		return 0, fmt.Errorf("domain: out of stitch VLAN tags")
	}
	t := a.next
	a.next--
	return t, nil
}

func (a *tagAllocator) release(tags []uint16) {
	a.mu.Lock()
	a.free = append(a.free, tags...)
	a.mu.Unlock()
}

// GlobalOrchestrator is the top of the orchestration hierarchy. It maps
// service graphs onto domains, delegates the resulting sub-graphs, and
// tracks the composite services.
type GlobalOrchestrator struct {
	abstract  *core.ResourceView // one pseudo-switch + aggregated EE per domain
	mapper    core.Mapper
	domains   map[string]*Domain
	order     []string          // sorted domain names
	gateways  map[gwKey]string  // directed crossing → exit pseudo-SAP id
	sapDomain map[string]string // real SAP id → owning domain
	tags      *tagAllocator

	mu       sync.Mutex
	services map[string]*GlobalService
}

// GlobalService is one service chain realized across domains.
type GlobalService struct {
	Name  string
	Graph *sg.Graph
	// Mapping is the domain-abstraction mapping: Placements assign NFs to
	// domain names, Routes are domain-name sequences per SG link.
	Mapping *core.Mapping
	// SubGraphs holds the per-domain split (domain name → sub-graph).
	SubGraphs map[string]*sg.Graph
	// Subs holds the realized sub-services (domain name → service).
	Subs map[string]*core.Service

	tags []uint16 // stitch VLANs owned by this service
}

// InterDomainHops counts gateway crossings over all SG links: the
// hierarchical path-stretch metric of experiment E10.
func (s *GlobalService) InterDomainHops() int {
	n := 0
	for _, route := range s.Mapping.Routes {
		n += len(route) - 1
	}
	return n
}

// IntraDomainHops sums switch-level hop counts of all realized
// sub-services.
func (s *GlobalService) IntraDomainHops() int {
	n := 0
	for _, sub := range s.Subs {
		n += sub.Mapping.TotalHops()
	}
	return n
}

// Running reports whether every sub-service is in the Running state.
func (s *GlobalService) Running() bool {
	if len(s.Subs) == 0 {
		return false
	}
	for _, sub := range s.Subs {
		if sub.State() != core.StateRunning {
			return false
		}
	}
	return true
}

// Domains lists the domain names, sorted.
func (g *GlobalOrchestrator) Domains() []string {
	return append([]string(nil), g.order...)
}

// Domain returns one domain by name, or nil.
func (g *GlobalOrchestrator) Domain(name string) *Domain { return g.domains[name] }

// AbstractView exposes the domain-abstraction resource view (one
// aggregated EE per domain); tests and management front ends read it.
func (g *GlobalOrchestrator) AbstractView() *core.ResourceView { return g.abstract }

// Service returns a deployed composite service by name, or nil. A name
// whose Deploy is still in flight (reservation placeholder) reads as not
// deployed: the placeholder has no Mapping/Subs to inspect safely.
func (g *GlobalOrchestrator) Service(name string) *GlobalService {
	g.mu.Lock()
	defer g.mu.Unlock()
	svc := g.services[name]
	if svc == nil || svc.Subs == nil {
		return nil
	}
	return svc
}

// Services lists deployed composite service names, sorted (in-flight
// reservations excluded).
func (g *GlobalOrchestrator) Services() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.services))
	for n, svc := range g.services {
		if svc.Subs != nil {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// reserve claims a composite service name (mirrors core's up-front name
// reservation so racing Deploys with one name cannot both win).
func (g *GlobalOrchestrator) reserve(graph *sg.Graph) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.services[graph.Name]; dup {
		return fmt.Errorf("domain: service %q already deployed", graph.Name)
	}
	g.services[graph.Name] = &GlobalService{Name: graph.Name} // placeholder
	return nil
}

func (g *GlobalOrchestrator) unregister(name string) {
	g.mu.Lock()
	delete(g.services, name)
	g.mu.Unlock()
}

// Deploy maps a service graph at the domain abstraction level, splits it
// at inter-domain boundaries, and delegates the sub-graphs to the domain
// orchestrators concurrently. On any failure everything already realized
// is rolled back and the abstract resources are released.
func (g *GlobalOrchestrator) Deploy(graph *sg.Graph) (*GlobalService, error) {
	for _, nf := range graph.NFs {
		if reservedNode(nf.ID) {
			return nil, fmt.Errorf("domain: node id %q uses the reserved gw: prefix", nf.ID)
		}
	}
	for _, s := range graph.SAPs {
		if reservedNode(s.ID) {
			return nil, fmt.Errorf("domain: node id %q uses the reserved gw: prefix", s.ID)
		}
	}
	if err := g.reserve(graph); err != nil {
		return nil, err
	}

	fail := func(err error) (*GlobalService, error) {
		g.unregister(graph.Name)
		return nil, err
	}

	// Phase 1: domain-level admission — the same optimistic
	// validate-and-commit protocol core uses (AdmitAndCommit on the
	// abstract view's versioned epochs), one level up. Placements come
	// back as domains; concurrent multi-domain deploys that don't
	// contend for the same aggregated capacity never serialize.
	am, err := g.abstract.AdmitAndCommit(g.mapper, graph)
	if err != nil {
		return fail(fmt.Errorf("domain: global mapping %q: %w", graph.Name, err))
	}

	// Phase 2: split at boundary links; allocates one stitch tag per
	// gateway crossing.
	plan, err := g.split(graph, am)
	if err != nil {
		g.abstract.Release(am)
		return fail(err)
	}

	// Phase 3: delegate sub-graphs to domain orchestrators concurrently.
	doms := make([]string, 0, len(plan.subs))
	for d := range plan.subs {
		doms = append(doms, d)
	}
	sort.Strings(doms)
	subs := make(map[string]*core.Service, len(doms))
	errs := make([]error, len(doms))
	var (
		wg    sync.WaitGroup
		subMu sync.Mutex
	)
	for i, d := range doms {
		wg.Add(1)
		go func(i int, d string) {
			defer wg.Done()
			svc, err := g.domains[d].Orch.Deploy(plan.subs[d])
			if err != nil {
				errs[i] = fmt.Errorf("domain: delegating %q to %s: %w", graph.Name, d, err)
				return
			}
			subMu.Lock()
			subs[d] = svc
			subMu.Unlock()
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Roll back the sub-services that did come up. Stitch tags
			// return to the pool only if every teardown confirmed: a tag
			// possibly still matched by a stale gateway rule must never
			// be reissued to another tenant (leaking it is safe).
			clean := true
			for d, svc := range subs {
				if uerr := g.domains[d].Orch.Undeploy(svc.Name); uerr != nil {
					clean = false
				}
			}
			if clean {
				g.tags.release(plan.tags)
			}
			g.abstract.Release(am)
			return fail(err)
		}
	}

	svc := &GlobalService{
		Name:      graph.Name,
		Graph:     graph,
		Mapping:   am,
		SubGraphs: plan.subs,
		Subs:      subs,
		tags:      plan.tags,
	}
	g.mu.Lock()
	g.services[graph.Name] = svc
	g.mu.Unlock()
	return svc, nil
}

// Undeploy tears a composite service down: every domain undeploys its
// sub-service in parallel, stitch tags and abstract resources return to
// their pools. The first error is reported; teardown runs to completion.
func (g *GlobalOrchestrator) Undeploy(name string) error {
	g.mu.Lock()
	svc := g.services[name]
	if svc == nil || svc.Subs == nil {
		g.mu.Unlock()
		return fmt.Errorf("domain: service %q not deployed", name)
	}
	delete(g.services, name)
	g.mu.Unlock()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for d, sub := range svc.Subs {
		wg.Add(1)
		go func(d, subName string) {
			defer wg.Done()
			if err := g.domains[d].Orch.Undeploy(subName); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(d, sub.Name)
	}
	wg.Wait()
	// As in Deploy's rollback: a failed teardown may have left a gateway
	// rule matching one of these tags, so reissue them only on a clean
	// teardown.
	if firstErr == nil {
		g.tags.release(svc.tags)
	}
	g.abstract.Release(svc.Mapping)
	return firstErr
}

// ChainFlowStats sums steered-traffic counters across every domain's
// sub-service: the hierarchical equivalent of core's management view, and
// the check E10 uses to verify gateway stitching end to end.
func (g *GlobalOrchestrator) ChainFlowStats(name string) (packets, bytes uint64, err error) {
	svc := g.Service(name)
	if svc == nil || svc.Subs == nil {
		return 0, 0, fmt.Errorf("domain: service %q not deployed", name)
	}
	for d, sub := range svc.Subs {
		p, b, err := g.domains[d].Orch.ChainFlowStats(sub.Name)
		if err != nil {
			return 0, 0, fmt.Errorf("domain: flow stats in %s: %w", d, err)
		}
		packets += p
		bytes += b
	}
	return packets, bytes, nil
}

// Close shuts down every domain orchestrator's management sessions.
func (g *GlobalOrchestrator) Close() {
	for _, d := range g.domains {
		d.Orch.Close()
	}
}
