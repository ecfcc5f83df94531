// Package core implements ESCAPE's Orchestrator layer: the paper's
// primary contribution. It builds a global resource view of the emulated
// infrastructure, maps abstract service graphs (internal/sg) onto it with
// pluggable algorithms (the Mapper interface — "a dedicated component
// maps abstract service graphs into available resources based on
// different optimization algorithms, which can be easily changed or
// customized"), and drives deployment: VNF lifecycle over NETCONF
// (internal/vnfagent) and traffic steering over OpenFlow
// (internal/steering).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/netem"
	"escape/internal/sg"
)

// EERes describes one VNF container in the resource view.
type EERes struct {
	Name string
	CPU  float64
	Mem  int
	// Switch is the datapath the EE's VNF ports attach to.
	Switch string
}

// SAPRes binds a service access point to its infrastructure attachment.
type SAPRes struct {
	ID     string
	Host   string
	Switch string
	Port   uint16
}

// LinkRes is one undirected switch-to-switch link.
type LinkRes struct {
	A, B         string // switch names
	PortA, PortB uint16
	// Bandwidth capacity in bits per second (0 = uncapacitated).
	Bandwidth float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
}

// ResourceView is the orchestrator's global network+compute view.
//
// Topology (Switches, EEs, SAPs, Links) is immutable once mapping
// starts; substrate failures mask resources out of the view rather
// than removing them. Committed accounting is versioned copy-on-write:
// every mutation (Commit, Release, mask transition, heal delta)
// publishes a new immutable epoch consisting of the previous epoch plus
// an O(touched) delta, so Snapshot is O(1), mappers run lock-free
// against a pinned epoch, and concurrent admissions validate and commit
// only the resources their mapping touches (see AdmitAndCommit).
type ResourceView struct {
	Switches map[string]uint64 // name → dpid
	EEs      map[string]*EERes
	SAPs     map[string]*SAPRes
	Links    []*LinkRes

	// mu serializes version publication (single-writer ordering for the
	// copy-on-write chain). Readers never take it: they atomically load
	// the current immutable viewState.
	mu    sync.Mutex
	state atomic.Pointer[viewState]

	// admitMu is the contention fallback: optimistic admitters that keep
	// losing validation serialize on it (see AdmitAndCommit).
	admitMu sync.Mutex

	stats admissionCounters

	// topoOnce builds the adjacency/link indexes on first use: the
	// topology is frozen from the first mapping onward.
	topoOnce sync.Once
	adj      map[string][]string
	linkIdx  map[linkKey]*LinkRes

	// eeNamesOnce freezes the sorted EE-name list on first mapper use
	// (same lifecycle as the topology index).
	eeNamesOnce sync.Once
	eeNames     []string

	// paths is the shared cached path engine.
	paths *pathCache

	// hopDist memoizes BFS hop counts per source switch (raw topology,
	// mask-free — safe to cache forever).
	hopMu   sync.Mutex
	hopDist map[string]map[string]int

	// gate, when set, vets every validated commit and observes every
	// release (multi-tenant quota accounting layered on the view). Read
	// and invoked only under mu.
	gate CommitGate
}

// CommitGate layers an admission policy on top of capacity validation:
// Admit is called under the view's write lock after a mapping has been
// validated against the current epoch and immediately before its commit
// epoch publishes — returning an error rejects the admission permanently
// (no optimistic retry; the error surfaces from AdmitAndCommit). Released
// is called under the same lock after a Release epoch publishes, so a
// gate's own accounting stays exactly in step with the committed state.
// Heal deltas (AdmitHeal) move a service without changing its graph-level
// demand and bypass the gate, as does the unconditional Commit used for
// replaying known-good mappings.
//
// Implementations must be fast and must not call back into the view.
type CommitGate interface {
	Admit(m *Mapping) error
	Released(m *Mapping)
}

// SetCommitGate installs the admission gate (nil removes it). Install it
// before serving traffic: mappings admitted while no gate was set are
// still observed by Released on teardown, so gates must tolerate releases
// they never admitted.
func (rv *ResourceView) SetCommitGate(g CommitGate) {
	rv.mu.Lock()
	rv.gate = g
	rv.mu.Unlock()
}

type linkKey struct{ a, b string }

func mkLinkKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// fits is the view's one capacity predicate, shared by the mappers'
// FitsEE and linkFits and by commit validation. The view counts in sg.CPU
// and sg.BW, so sums are exact in any order (a release restores the
// previous value bit for bit) and fits needs no tolerance.
func fits[T ~int64 | ~int](free, demand T) bool { return demand <= free }

// capCPU and capBW are an EE's and a link's capacity in the view's units;
// one out of range counts as none.
func capCPU(res *EERes) sg.CPU { c, _ := sg.CPUOf(res.CPU); return c }
func capBW(l *LinkRes) sg.BW   { b, _ := sg.BWOf(l.Bandwidth); return b }

// eeRec is one EE's accounting record. In an epoch it holds the
// committed CPU and memory; in a Capacities overlay, the free CPU and
// memory net of the overlay's own reservations. The zero value is
// nothing committed, unmasked.
type eeRec struct {
	cpu    sg.CPU
	mem    int
	masked bool
}

// linkRec is one link's accounting record: committed (epoch) or free
// (overlay) bandwidth in bit/s, and the mask.
type linkRec struct {
	bw     sg.BW
	masked bool
}

// viewBase holds fully materialized committed state: the bottom of a
// copy-on-write chain. Maps only carry non-zero records (absent = zero
// committed, unmasked). Immutable once published.
type viewBase struct {
	ee   map[string]eeRec
	link map[linkKey]linkRec
}

// viewDelta is one epoch's O(touched) overlay: whole records (not
// increments) for the resources the epoch changed, so resolution stops at
// the newest hit. Immutable once published.
type viewDelta struct {
	parent *viewDelta
	ee     map[string]eeRec
	link   map[linkKey]linkRec
}

// viewState is one immutable epoch of the view: base plus a delta chain.
// Snapshot pins a viewState; mappers resolve committed values against it
// without locks while newer epochs are published.
type viewState struct {
	epoch uint64
	base  *viewBase
	delta *viewDelta
	depth int
}

// compactDepth bounds the delta chain: when an epoch would exceed it the
// chain is folded into a fresh base (O(touched keys overall), amortized
// O(touched/compactDepth) per commit).
const compactDepth = 64

func (s *viewState) ee(name string) eeRec {
	for d := s.delta; d != nil; d = d.parent {
		if r, ok := d.ee[name]; ok {
			return r
		}
	}
	return s.base.ee[name]
}

func (s *viewState) link(k linkKey) linkRec {
	for d := s.delta; d != nil; d = d.parent {
		if r, ok := d.link[k]; ok {
			return r
		}
	}
	return s.base.link[k]
}

// maskedLinks returns the effective link-mask set of this epoch.
func (s *viewState) maskedLinks() map[linkKey]bool {
	out := map[linkKey]bool{}
	seen := map[linkKey]bool{}
	for d := s.delta; d != nil; d = d.parent {
		for k, r := range d.link {
			if !seen[k] {
				seen[k] = true
				if r.masked {
					out[k] = true
				}
			}
		}
	}
	for k, r := range s.base.link {
		if !seen[k] && r.masked {
			out[k] = true
		}
	}
	return out
}

// compact folds the delta chain into a fresh base, dropping zero records
// so long-lived views don't accrete dead keys.
func (s *viewState) compact() *viewBase {
	var chain []*viewDelta
	for d := s.delta; d != nil; d = d.parent {
		chain = append(chain, d)
	}
	nb := &viewBase{
		ee:   make(map[string]eeRec, len(s.base.ee)),
		link: make(map[linkKey]linkRec, len(s.base.link)),
	}
	fold := func(ee map[string]eeRec, link map[linkKey]linkRec) {
		for k, r := range ee {
			if r == (eeRec{}) {
				delete(nb.ee, k)
			} else {
				nb.ee[k] = r
			}
		}
		for k, r := range link {
			if r == (linkRec{}) {
				delete(nb.link, k)
			} else {
				nb.link[k] = r
			}
		}
	}
	fold(s.base.ee, s.base.link)
	for i := len(chain) - 1; i >= 0; i-- { // oldest first
		fold(chain[i].ee, chain[i].link)
	}
	return nb
}

// mutation builds one epoch's delta against the pre-mutation state.
// Delta maps allocate lazily: reads of a nil map are legal, so an epoch
// that touches no links carries no link map (smaller live heap for the
// GC to scan across the delta chain).
type mutation struct {
	cur *viewState
	d   *viewDelta
}

func (m *mutation) ee(name string) eeRec {
	if r, ok := m.d.ee[name]; ok {
		return r
	}
	return m.cur.ee(name)
}

func (m *mutation) setEE(name string, r eeRec) {
	if m.d.ee == nil {
		m.d.ee = map[string]eeRec{}
	}
	m.d.ee[name] = r
}

func (m *mutation) link(k linkKey) linkRec {
	if r, ok := m.d.link[k]; ok {
		return r
	}
	return m.cur.link(k)
}

func (m *mutation) setLink(k linkKey, r linkRec) {
	if m.d.link == nil {
		m.d.link = map[linkKey]linkRec{}
	}
	m.d.link[k] = r
}

// add folds a signed delta into the epoch being built (entries that only
// carry a validation mark change nothing and are skipped).
func (m *mutation) add(d *delta) {
	for name, c := range d.ee {
		if c.cpu == 0 && c.mem == 0 {
			continue
		}
		r := m.ee(name)
		r.cpu += c.cpu
		r.mem += c.mem
		m.setEE(name, r)
	}
	for k, c := range d.link {
		if c.bw == 0 {
			continue
		}
		r := m.link(k)
		r.bw += c.bw
		m.setLink(k, r)
	}
}

// publish appends one epoch: fill runs against the pre-mutation state
// and writes whole records for the touched resources. Caller holds rv.mu.
func (rv *ResourceView) publish(fill func(*mutation)) *viewState {
	cur := rv.state.Load()
	d := &viewDelta{parent: cur.delta}
	fill(&mutation{cur: cur, d: d})
	next := &viewState{epoch: cur.epoch + 1, base: cur.base, delta: d, depth: cur.depth + 1}
	if next.depth >= compactDepth {
		next.base = next.compact()
		next.delta = nil
		next.depth = 0
	}
	rv.state.Store(next)
	return next
}

// NewResourceView returns an empty view; populate the topology fields and
// start mapping, or use BuildResourceView.
func NewResourceView() *ResourceView {
	rv := &ResourceView{
		Switches: map[string]uint64{},
		EEs:      map[string]*EERes{},
		SAPs:     map[string]*SAPRes{},
		paths:    newPathCache(),
	}
	rv.state.Store(&viewState{base: &viewBase{ee: map[string]eeRec{}, link: map[linkKey]linkRec{}}})
	return rv
}

// Epoch reports the view's current version: every Commit, Release, heal
// delta and mask transition publishes exactly one new epoch. Releasing a
// mapping restores the committed state exactly but still advances the
// epoch (epochs are a history, not a value).
func (rv *ResourceView) Epoch() uint64 {
	return rv.state.Load().epoch
}

// ExcludeEE masks an EE out of the view: mapping and healing treat it as
// gone until UnexcludeEE. Idempotent (a no-op publishes no epoch). Mask
// ownership: when a resilience healer is attached to this view, it
// continuously reconciles the masks with its failure detector's belief —
// masks set by other callers (e.g. a manual drain) will be reverted
// unless the detector also considers the resource down.
func (rv *ResourceView) ExcludeEE(name string) { rv.setEEMask(name, true) }

// UnexcludeEE lifts an EE mask (failure healed).
func (rv *ResourceView) UnexcludeEE(name string) { rv.setEEMask(name, false) }

func (rv *ResourceView) setEEMask(name string, masked bool) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	r := rv.state.Load().ee(name)
	if r.masked == masked {
		return
	}
	r.masked = masked
	rv.publish(func(m *mutation) { m.setEE(name, r) })
}

// ExcludeLink masks the link between two switches out of route finding.
// The transition is one epoch; the cached path engine drops exactly the
// entries whose candidates cross the failed link.
func (rv *ResourceView) ExcludeLink(a, b string) { rv.setLinkMask(mkLinkKey(a, b), true) }

// UnexcludeLink lifts a link mask. Entries computed while the link was
// down may be missing now-shorter paths, so the path cache drops every
// entry that avoided this link.
func (rv *ResourceView) UnexcludeLink(a, b string) { rv.setLinkMask(mkLinkKey(a, b), false) }

func (rv *ResourceView) setLinkMask(k linkKey, masked bool) {
	rv.mu.Lock()
	r := rv.state.Load().link(k)
	if r.masked == masked {
		rv.mu.Unlock()
		return
	}
	r.masked = masked
	rv.publish(func(m *mutation) { m.setLink(k, r) })
	rv.mu.Unlock()
	if masked {
		rv.paths.onLinkMasked(k)
	} else {
		rv.paths.onLinkUnmasked(k)
	}
}

// ExcludedEE reports whether an EE is currently masked out.
func (rv *ResourceView) ExcludedEE(name string) bool {
	return rv.state.Load().ee(name).masked
}

// ExcludedLink reports whether the link between two switches is masked.
func (rv *ResourceView) ExcludedLink(a, b string) bool {
	return rv.state.Load().link(mkLinkKey(a, b)).masked
}

// BuildResourceView scans an emulated network: switches and host-switch
// attachments are discovered from topology links (each host becomes the
// SAP named like itself), EEs from eeSwitch (EE name → attachment
// switch), and inter-switch links with their configured shaping.
func BuildResourceView(n *netem.Network, eeSwitch map[string]string) (*ResourceView, error) {
	rv := NewResourceView()
	for _, node := range n.Nodes() {
		if s, ok := node.(*netem.SwitchNode); ok {
			rv.Switches[s.NodeName()] = s.DPID()
		}
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
		case an.Kind() == netem.KindHost && bn.Kind() == netem.KindSwitch:
			rv.SAPs[an.NodeName()] = &SAPRes{
				ID: an.NodeName(), Host: an.NodeName(),
				Switch: bn.NodeName(), Port: l.B.No,
			}
		case an.Kind() == netem.KindSwitch && bn.Kind() == netem.KindHost:
			rv.SAPs[bn.NodeName()] = &SAPRes{
				ID: bn.NodeName(), Host: bn.NodeName(),
				Switch: an.NodeName(), Port: l.A.No,
			}
		}
	}
	return rv, nil
}

// EENames returns sorted EE names (deterministic mapper iteration). The
// caller owns the returned slice.
func (rv *ResourceView) EENames() []string {
	shared := rv.eeNamesShared()
	out := make([]string, len(shared))
	copy(out, shared)
	return out
}

// eeNamesShared returns the memoized sorted EE-name list. Like the
// topology index, the EE set is frozen from the first mapping onward, so
// the sort runs once instead of per NF per admission (mappers scan it in
// their placement loops — the former per-call alloc+sort showed up at
// E14 / admit_scale admission rates). Callers must not mutate the result.
func (rv *ResourceView) eeNamesShared() []string {
	rv.eeNamesOnce.Do(func() {
		out := make([]string, 0, len(rv.EEs))
		for n := range rv.EEs {
			out = append(out, n)
		}
		sort.Strings(out)
		rv.eeNames = out
	})
	return rv.eeNames
}

// buildTopoIndex freezes the topology into an adjacency list (sorted
// neighbor names, deduplicated) and a link index. Built once, on first
// mapping use.
func (rv *ResourceView) buildTopoIndex() {
	rv.topoOnce.Do(func() {
		rv.adj = map[string][]string{}
		rv.linkIdx = map[linkKey]*LinkRes{}
		for _, l := range rv.Links {
			k := mkLinkKey(l.A, l.B)
			if _, dup := rv.linkIdx[k]; dup {
				continue // parallel links collapse, as in the flat scan before
			}
			rv.linkIdx[k] = l
			rv.adj[l.A] = append(rv.adj[l.A], l.B)
			rv.adj[l.B] = append(rv.adj[l.B], l.A)
		}
		for _, nbs := range rv.adj {
			sort.Strings(nbs)
		}
	})
}

// linkBetween finds the resource link joining two switches, or nil.
func (rv *ResourceView) linkBetween(a, b string) *LinkRes {
	rv.buildTopoIndex()
	return rv.linkIdx[mkLinkKey(a, b)]
}

// neighbors returns adjacent switch names (shared slice: do not mutate).
func (rv *ResourceView) neighbors(sw string) []string {
	rv.buildTopoIndex()
	return rv.adj[sw]
}

// Capacities is a mapper's working view of free resources: a pinned
// immutable epoch of the ResourceView plus a local copy-on-write overlay
// holding the mapper's own tentative reservations and (for healing) extra
// exclusions. Snapshot is O(1); reads resolve lazily against the epoch
// and memoize; writes touch only the overlay, so Clone is O(touched) —
// backtracking mappers fork freely. Excluded (failed) EEs and links never
// fit, whatever their nominal headroom.
type Capacities struct {
	rv *ResourceView
	st *viewState

	// The overlay: one record per touched resource holding its free
	// capacity and its mask (epoch mask or view-local exclusion).
	ee   map[string]eeRec
	link map[linkKey]linkRec
}

// Snapshot pins the current epoch: an O(1) copy-on-write view of free
// capacities plus the exclusion mask of the moment.
func (rv *ResourceView) Snapshot() *Capacities {
	return &Capacities{
		rv:   rv,
		st:   rv.state.Load(),
		ee:   map[string]eeRec{},
		link: map[linkKey]linkRec{},
	}
}

// Clone copies the overlay (backtracking mappers fork state): O(touched),
// not O(network) — both views resolve untouched keys against the same
// immutable epoch.
func (c *Capacities) Clone() *Capacities {
	nc := &Capacities{
		rv:   c.rv,
		st:   c.st,
		ee:   make(map[string]eeRec, len(c.ee)),
		link: make(map[linkKey]linkRec, len(c.link)),
	}
	for k, r := range c.ee {
		nc.ee[k] = r
	}
	for k, r := range c.link {
		nc.link[k] = r
	}
	return nc
}

// eeFree resolves an EE's overlay record: free compute net of this
// view's reservations (zero for an EE the view doesn't know) and mask.
func (c *Capacities) eeFree(name string) eeRec {
	if r, ok := c.ee[name]; ok {
		return r
	}
	r := c.st.ee(name)
	if res := c.rv.EEs[name]; res != nil {
		r.cpu, r.mem = capCPU(res)-r.cpu, res.Mem-r.mem
	} else {
		r.cpu, r.mem = 0, 0
	}
	c.ee[name] = r
	return r
}

// linkFree resolves a link's overlay record: free bandwidth of a
// capacitated link net of this view's reservations, and mask.
func (c *Capacities) linkFree(k linkKey) linkRec {
	if r, ok := c.link[k]; ok {
		return r
	}
	r := c.st.link(k)
	if l := c.rv.linkBetween(k.a, k.b); l != nil {
		r.bw = capBW(l) - r.bw
	}
	c.link[k] = r
	return r
}

// FreeCPU resolves an EE's free CPU net of this view's own reservations.
func (c *Capacities) FreeCPU(ee string) sg.CPU { return c.eeFree(ee).cpu }

// FreeMem resolves an EE's free memory net of this view's reservations.
func (c *Capacities) FreeMem(ee string) int { return c.eeFree(ee).mem }

// ExcludedEE reports whether an EE is masked in this view (epoch mask or
// local overlay).
func (c *Capacities) ExcludedEE(ee string) bool { return c.eeFree(ee).masked }

// ExcludeEE adds a view-local EE mask (healing plans mask freshly failed
// EEs without publishing a view-wide epoch).
func (c *Capacities) ExcludeEE(ee string) {
	r := c.eeFree(ee)
	r.masked = true
	c.ee[ee] = r
}

// ExcludeLink adds a view-local link mask.
func (c *Capacities) ExcludeLink(a, b string) {
	k := mkLinkKey(a, b)
	r := c.linkFree(k)
	r.masked = true
	c.link[k] = r
}

// FitsEE reports whether an EE has the demanded headroom. Excluded
// (failed) EEs never fit.
func (c *Capacities) FitsEE(ee string, cpu sg.CPU, mem int) bool {
	r := c.eeFree(ee)
	return !r.masked && fits(r.cpu, cpu) && fits(r.mem, mem)
}

// TakeEE reserves compute on an EE (negative demands give it back).
func (c *Capacities) TakeEE(ee string, cpu sg.CPU, mem int) {
	r := c.eeFree(ee)
	r.cpu -= cpu
	r.mem -= mem
	c.ee[ee] = r
}

// linkFits reports whether the link between two adjacent switches has bw
// headroom (uncapacitated links always fit). Excluded (failed) links
// never fit, which is what keeps re-routed paths off dead trunks.
func (c *Capacities) linkFits(a, b string, bw sg.BW) bool {
	l := c.rv.linkBetween(a, b)
	if l == nil {
		return false
	}
	r := c.linkFree(mkLinkKey(a, b))
	if r.masked {
		return false
	}
	if l.Bandwidth <= 0 || bw <= 0 {
		return true
	}
	return fits(r.bw, bw)
}

// takePath reserves bandwidth along a switch route; a negative bw gives
// it back (healing virtually releases the routes it abandons so
// replacements can reuse their capacity).
func (c *Capacities) takePath(route []string, bw sg.BW) {
	if bw == 0 {
		return
	}
	for i := 0; i+1 < len(route); i++ {
		if l := c.rv.linkBetween(route[i], route[i+1]); l != nil && l.Bandwidth > 0 {
			k := mkLinkKey(route[i], route[i+1])
			r := c.linkFree(k)
			r.bw -= bw
			c.link[k] = r
		}
	}
}

// ShortestFeasiblePath finds the minimum-hop switch route from a to b
// whose every link has bw headroom and whose total propagation delay is
// within maxDelay (0 = unbounded). Returns nil when no route exists.
// The candidates come precomputed per switch pair from the path cache and
// only feasibility is checked; a live BFS is the fallback when no cached
// candidate fits.
func (c *Capacities) ShortestFeasiblePath(a, b string, bw sg.BW, maxDelay time.Duration) []string {
	if a == b {
		return []string{a}
	}
	if route, ok := c.rv.paths.lookup(c, a, b, bw, maxDelay); ok {
		return route
	}
	return c.bfsPath(a, b, bw, maxDelay)
}

// bfsPath is the uncached search: breadth-first over the adjacency index
// with feasibility and delay pruning inline. It is the cache's fallback
// and the reference engine the path-cache tests compare against.
func (c *Capacities) bfsPath(a, b string, bw sg.BW, maxDelay time.Duration) []string {
	type state struct {
		sw    string
		delay time.Duration
	}
	prev := map[string]string{}
	seen := map[string]bool{a: true}
	queue := []state{{sw: a}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range c.rv.neighbors(cur.sw) {
			if seen[nb] {
				continue
			}
			if !c.linkFits(cur.sw, nb, bw) {
				continue
			}
			l := c.rv.linkBetween(cur.sw, nb)
			nd := cur.delay + l.Delay
			if maxDelay > 0 && nd > maxDelay {
				continue
			}
			seen[nb] = true
			prev[nb] = cur.sw
			if nb == b {
				// Reconstruct.
				route := []string{b}
				for at := b; at != a; {
					at = prev[at]
					route = append([]string{at}, route...)
				}
				return route
			}
			queue = append(queue, state{sw: nb, delay: nd})
		}
	}
	return nil
}

// hopDistancesShared returns BFS hop counts from a source switch, the
// heuristic mappers' distance estimate (capacity ignored). The map is the
// memoized one itself: callers treat it as read-only, saving an
// O(switches) copy per placement step on the admission hot path.
func (rv *ResourceView) hopDistancesShared(from string) map[string]int {
	rv.hopMu.Lock()
	cached := rv.hopDist[from]
	rv.hopMu.Unlock()
	if cached != nil {
		return cached
	}
	dist := map[string]int{from: 0}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range rv.neighbors(cur) {
			if _, ok := dist[nb]; ok {
				continue
			}
			dist[nb] = dist[cur] + 1
			queue = append(queue, nb)
		}
	}
	rv.hopMu.Lock()
	if rv.hopDist == nil {
		rv.hopDist = map[string]map[string]int{}
	}
	if prior := rv.hopDist[from]; prior != nil {
		dist = prior // a racing computation won; share one map
	} else {
		rv.hopDist[from] = dist
	}
	rv.hopMu.Unlock()
	return dist
}

// Commit reserves a mapping's resources in the view unconditionally (one
// published epoch). AdmitAndCommit is the validating front door; Commit
// remains for callers that have already established feasibility (tests,
// tools replaying known-good mappings).
func (rv *ResourceView) Commit(m *Mapping) {
	d := mappingDelta(m, 1)
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.publish(func(mu *mutation) { mu.add(d) })
}

// Release returns a mapping's resources to the view (teardown): the
// same delta as Commit, negated. The committed state returns exactly to
// its pre-Commit value in one new epoch.
func (rv *ResourceView) Release(m *Mapping) {
	d := mappingDelta(m, -1)
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.publish(func(mu *mutation) { mu.add(d) })
	if rv.gate != nil {
		rv.gate.Released(m)
	}
}

// Committed reports the currently committed compute on one EE (test and
// invariant-checking hook: committed never exceeds EERes capacity).
func (rv *ResourceView) Committed(ee string) (cpu sg.CPU, mem int) {
	r := rv.state.Load().ee(ee)
	return r.cpu, r.mem
}

// CommittedBW reports the committed bandwidth on the link between two
// switches.
func (rv *ResourceView) CommittedBW(a, b string) sg.BW {
	return rv.state.Load().link(mkLinkKey(a, b)).bw
}

// Fingerprint digests the committed state of the current epoch — per-EE
// CPU/mem, per-link bandwidth and the exclusion masks, in sorted key
// order, zero/unmasked entries skipped. Two views over the same topology
// whose committed accounting is bit-identical produce the same
// fingerprint regardless of epoch history, so crash-recovery replay can
// assert it restored exactly the committed view it lost.
func (rv *ResourceView) Fingerprint() string {
	s := rv.state.Load()
	h := sha256.New()
	for _, ee := range rv.eeNamesShared() {
		r := s.ee(ee)
		if r.cpu != 0 {
			fmt.Fprintf(h, "cpu %s %d\n", ee, r.cpu)
		}
		if r.mem != 0 {
			fmt.Fprintf(h, "mem %s %d\n", ee, r.mem)
		}
		if r.masked {
			fmt.Fprintf(h, "excl-ee %s\n", ee)
		}
	}
	keys := make([]linkKey, 0, len(rv.Links))
	seen := map[linkKey]bool{}
	for _, l := range rv.Links {
		k := mkLinkKey(l.A, l.B)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		r := s.link(k)
		if r.bw != 0 {
			fmt.Fprintf(h, "bw %s %s %d\n", k.a, k.b, r.bw)
		}
		if r.masked {
			fmt.Fprintf(h, "excl-link %s %s\n", k.a, k.b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
