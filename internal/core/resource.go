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
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/netem"
	"escape/internal/sg"
)

// EERes describes one VNF container in the resource view. Its CPU and
// Mem are read once, when the view freezes its topology on first use (a
// mapping, snapshot, commit, mask or mask query; see topoIndex): set
// them before that, and do not change them after.
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

// LinkRes is one undirected switch-to-switch link. Like an EE's
// capacity, its Bandwidth is read once, when the view freezes its
// topology.
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
// publishes a new immutable epoch that copies only the record chunks it
// touches and shares the rest, so Snapshot is O(1), a record resolves in
// O(1) against any epoch, mappers run lock-free against a pinned epoch,
// and concurrent admissions validate and commit only the resources their
// mapping touches (see AdmitAndCommit).
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

	// topoOnce freezes the topology into ix on first use (see topoIndex).
	topoOnce sync.Once
	ix       *topoIndex

	// paths is the shared cached path engine.
	paths *pathCache

	// hopDist memoizes BFS hop counts by source switch ID (raw topology,
	// mask-free — safe to cache forever).
	hopMu   sync.Mutex
	hopDist [][]int32

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
// FitsEE and linkFitsID and by commit validation. The view counts in sg.CPU
// and sg.BW, so sums are exact in any order (a release restores the
// previous value bit for bit) and fits needs no tolerance.
func fits[T ~int64 | ~int](free, demand T) bool { return demand <= free }

// capCPU and capBW are an EE's and a link's capacity in the view's units;
// one out of range counts as none. The index converts each frozen EE and
// link once (see topoIndex).
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

// viewState is one immutable epoch of the view: every EE's and link's
// record by ID (see topoIndex), in chunks shared with the epochs before
// it. Snapshot pins a viewState; mappers resolve committed values against
// it without locks while newer epochs are published.
type viewState struct {
	epoch uint64
	ee    records[eeRec]
	link  records[linkRec]
	// masked lists the masked links' IDs in ascending order; epochs share
	// it until a link mask transition.
	masked []int32
}

// mutation builds one epoch against the pre-mutation state.
type mutation struct {
	ee     recordsEdit[eeRec]
	link   recordsEdit[linkRec]
	masked []int32
}

// add folds a signed delta into the epoch being built (entries that only
// carry a validation mark change nothing and are skipped).
func (m *mutation) add(d *delta) {
	for _, c := range d.ee {
		if c.cpu == 0 && c.mem == 0 {
			continue
		}
		r := m.ee.get(c.id)
		r.cpu += c.cpu
		r.mem += c.mem
		m.ee.set(c.id, r)
	}
	for _, c := range d.link {
		if c.bw == 0 {
			continue
		}
		r := m.link.get(c.id)
		r.bw += c.bw
		m.link.set(c.id, r)
	}
}

// publish appends one epoch: fill runs against the pre-mutation state
// and writes whole records for the touched resources. Caller holds rv.mu.
func (rv *ResourceView) publish(fill func(*mutation)) {
	cur := rv.state.Load()
	m := &mutation{ee: recordsEdit[eeRec]{prev: cur.ee}, link: recordsEdit[linkRec]{prev: cur.link}, masked: cur.masked}
	fill(m)
	rv.state.Store(&viewState{epoch: cur.epoch + 1, ee: m.ee.result(), link: m.link.result(), masked: m.masked})
}

// newResourceView returns an empty view; populate the topology fields and
// start mapping, or use ViewFromSpec.
func newResourceView() *ResourceView {
	rv := &ResourceView{
		Switches: map[string]uint64{},
		EEs:      map[string]*EERes{},
		SAPs:     map[string]*SAPRes{},
		paths:    newPathCache(),
	}
	rv.state.Store(&viewState{})
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
// ownership: a resilience detector watching this view masks an EE when
// it declares it down and unmasks it when it declares it back, at its
// own transitions only — a mask set by another caller (e.g. a manual
// drain) stays until that caller lifts it or the detector sees the EE
// recover.
func (rv *ResourceView) ExcludeEE(name string) { rv.setEEMask(name, true) }

// UnexcludeEE lifts an EE mask (failure healed).
func (rv *ResourceView) UnexcludeEE(name string) { rv.setEEMask(name, false) }

func (rv *ResourceView) setEEMask(name string, masked bool) {
	ix := rv.topo()
	rv.mu.Lock()
	defer rv.mu.Unlock()
	id := ix.eeRef(name, masked)
	if id < 0 {
		return // an unknown name is unmasked already
	}
	r := rv.state.Load().ee.at(id)
	if r.masked == masked {
		return
	}
	r.masked = masked
	rv.publish(func(m *mutation) { m.ee.set(id, r) })
}

// ExcludeLink masks the link between two switches out of route finding.
// The transition is one epoch; the cached path engine drops exactly the
// entries whose candidates cross the failed link.
func (rv *ResourceView) ExcludeLink(a, b string) { rv.setLinkMask(a, b, true) }

// UnexcludeLink lifts a link mask. Entries computed while the link was
// down may be missing now-shorter paths, so the path cache drops every
// entry that avoided this link.
func (rv *ResourceView) UnexcludeLink(a, b string) { rv.setLinkMask(a, b, false) }

func (rv *ResourceView) setLinkMask(a, b string, masked bool) {
	ix := rv.topo()
	rv.mu.Lock()
	id := ix.linkRef(a, b, masked)
	if id < 0 {
		rv.mu.Unlock()
		return // an unknown pair is unmasked already
	}
	cur := rv.state.Load()
	r := cur.link.at(id)
	if r.masked == masked {
		rv.mu.Unlock()
		return
	}
	r.masked = masked
	rv.publish(func(m *mutation) {
		m.link.set(id, r)
		m.masked = toggled(cur.masked, id, masked)
	})
	rv.mu.Unlock()
	if masked {
		rv.paths.onLinkMasked(id)
	} else {
		rv.paths.onLinkUnmasked(id)
	}
}

// toggled returns a copy of the ascending ID list with id added or
// removed.
func toggled(ids []int32, id int32, add bool) []int32 {
	i, _ := slices.BinarySearch(ids, id)
	if add {
		return slices.Insert(slices.Clone(ids), i, id)
	}
	return slices.Delete(slices.Clone(ids), i, i+1)
}

// excludedEE reports whether an EE is currently masked out.
func (rv *ResourceView) excludedEE(name string) bool {
	return rv.state.Load().ee.at(rv.topo().eeRef(name, false)).masked
}

// excludedLink reports whether the link between two switches is masked.
func (rv *ResourceView) excludedLink(a, b string) bool {
	return rv.state.Load().link.at(rv.topo().linkRef(a, b, false)).masked
}

// ViewFromSpec derives the orchestrator's resource view from a topology
// description without building anything: it numbers the way netem.Build
// does (switches get datapath ids 1, 2, … in declaration order; ports go
// to switch-switch links first, then to host attachments), so the view
// names exactly the DPIDs and ports of the network Build makes. Each
// host becomes the SAP named like itself.
func ViewFromSpec(t *netem.Topo) (*ResourceView, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rv := newResourceView()
	for i, name := range t.Switches {
		rv.Switches[name] = uint64(i + 1)
	}
	nextPort := make(map[string]uint16, len(t.Switches))
	port := func(sw string) uint16 {
		nextPort[sw]++
		return nextPort[sw]
	}
	for _, l := range t.Links {
		rv.Links = append(rv.Links, &LinkRes{
			A: l.A, B: l.B,
			PortA: port(l.A), PortB: port(l.B),
			Bandwidth: l.Bandwidth, Delay: l.Delay,
		})
	}
	for _, h := range t.Hosts {
		rv.SAPs[h.Name] = &SAPRes{ID: h.Name, Host: h.Name, Switch: h.Switch, Port: port(h.Switch)}
	}
	for _, e := range t.EEs {
		rv.EEs[e.Name] = &EERes{Name: e.Name, CPU: e.CPU, Mem: e.Mem, Switch: e.Switch}
	}
	return rv, nil
}

// EENames returns sorted EE names (deterministic mapper iteration). The
// caller owns the returned slice.
func (rv *ResourceView) EENames() []string {
	return slices.Clone(rv.eeNamesShared())
}

// eeNamesShared returns the frozen sorted EE-name list, which is also
// the EE ID order. Like the rest of the topology, the EE set is frozen
// from the first mapping onward, so the sort runs once instead of per NF
// per admission. Callers must not mutate the result.
func (rv *ResourceView) eeNamesShared() []string { return rv.topo().eeNames }

// linkBetween finds the resource link joining two switches, or nil.
func (rv *ResourceView) linkBetween(a, b string) *LinkRes {
	ix := rv.topo()
	if id := ix.linkByName(a, b); id >= 0 {
		return ix.links[id]
	}
	return nil
}

// Capacities is a mapper's working view of free resources: a pinned
// immutable epoch of the ResourceView plus a local copy-on-write overlay
// holding the mapper's own tentative reservations and (for healing) extra
// exclusions. Snapshot is O(1); reads resolve against the epoch in O(1);
// writes touch only the overlay, so Clone is O(touched) — backtracking
// mappers fork freely. Excluded (failed) EEs and links never fit,
// whatever their nominal headroom.
type Capacities struct {
	rv *ResourceView
	ix *topoIndex
	st *viewState

	// The overlay, by record ID: one record per resource this view wrote,
	// holding its free capacity and its mask (epoch mask or view-local
	// exclusion).
	ee   map[int32]eeRec
	link map[int32]linkRec

	// linkDown, when set (a heal plan's view), also masks every frozen
	// link it reports down. It is asked lazily, the first time the view
	// reads a link its overlay has not written, and its answers are kept
	// in downMemo (two bits per link ID: asked, down), so a plan asks
	// about each link it looks at at most once and never about the rest.
	linkDown func(a, b string) bool
	downMemo []uint64
}

// Snapshot pins the current epoch: an O(1) copy-on-write view of free
// capacities plus the exclusion mask of the moment.
func (rv *ResourceView) Snapshot() *Capacities {
	return &Capacities{rv: rv, ix: rv.topo(), st: rv.state.Load()}
}

// clone copies the overlay (backtracking mappers fork state): O(touched),
// not O(network) — both views resolve untouched records against the same
// immutable epoch.
func (c *Capacities) clone() *Capacities {
	return &Capacities{rv: c.rv, ix: c.ix, st: c.st, ee: maps.Clone(c.ee), link: maps.Clone(c.link),
		linkDown: c.linkDown, downMemo: slices.Clone(c.downMemo)}
}

// eeFree resolves an EE's overlay record: free compute net of this
// view's reservations (zero for an EE the view doesn't know) and mask.
func (c *Capacities) eeFree(id int32) eeRec {
	if r, ok := c.ee[id]; ok {
		return r
	}
	if id < 0 {
		return eeRec{}
	}
	r := c.st.ee.at(id)
	if capa, ok := c.ix.eeCapOf(c.rv, id); ok {
		r.cpu, r.mem = capa.cpu-r.cpu, capa.mem-r.mem
	} else {
		r.cpu, r.mem = 0, 0
	}
	return r
}

func (c *Capacities) setEE(id int32, r eeRec) {
	if c.ee == nil {
		c.ee = map[int32]eeRec{}
	}
	c.ee[id] = r
}

// linkFreeID resolves a link's overlay record: free bandwidth of a
// frozen link net of this view's reservations, and mask (the epoch's, a
// view-local exclusion, or linkDown's answer).
func (c *Capacities) linkFreeID(id int32) linkRec {
	if r, ok := c.link[id]; ok {
		return r
	}
	if id < 0 {
		return linkRec{}
	}
	r := c.st.link.at(id)
	if c.ix.frozenLink(id) {
		r.bw = c.ix.lcap[id].bw - r.bw
		if !r.masked && c.linkDown != nil {
			r.masked = c.reportedDown(id)
		}
	}
	return r
}

// reportedDown asks linkDown about a frozen link, once per view.
func (c *Capacities) reportedDown(id int32) bool {
	if c.downMemo == nil {
		c.downMemo = make([]uint64, (2*len(c.ix.links)+63)/64)
	}
	w, shift := id/32, uint(id%32)*2
	if m := c.downMemo[w] >> shift; m&1 != 0 {
		return m&2 != 0
	}
	l := c.ix.links[id]
	down := c.linkDown(l.A, l.B)
	m := uint64(1)
	if down {
		m = 3
	}
	c.downMemo[w] |= m << shift
	return down
}

func (c *Capacities) setLink(id int32, r linkRec) {
	if c.link == nil {
		c.link = map[int32]linkRec{}
	}
	c.link[id] = r
}

// FreeCPU resolves an EE's free CPU net of this view's own reservations.
func (c *Capacities) FreeCPU(ee string) sg.CPU { return c.eeFree(c.ix.eeRef(ee, false)).cpu }

// excludeEE adds a view-local EE mask (healing plans mask freshly failed
// EEs without publishing a view-wide epoch).
func (c *Capacities) excludeEE(ee string) {
	id := c.ix.eeRef(ee, true)
	r := c.eeFree(id)
	r.masked = true
	c.setEE(id, r)
}

// FitsEE reports whether an EE has the demanded headroom. Excluded
// (failed) EEs never fit.
func (c *Capacities) FitsEE(ee string, cpu sg.CPU, mem int) bool {
	return c.fitsEE(c.ix.eeRef(ee, false), cpu, mem)
}

func (c *Capacities) fitsEE(id int32, cpu sg.CPU, mem int) bool {
	r := c.eeFree(id)
	return !r.masked && fits(r.cpu, cpu) && fits(r.mem, mem)
}

// TakeEE reserves compute on an EE (negative demands give it back).
func (c *Capacities) TakeEE(ee string, cpu sg.CPU, mem int) { c.takeEE(c.ix.eeRef(ee, true), cpu, mem) }

func (c *Capacities) takeEE(id int32, cpu sg.CPU, mem int) {
	r := c.eeFree(id)
	r.cpu -= cpu
	r.mem -= mem
	c.setEE(id, r)
}

// linkFitsID reports whether a link of the frozen index has bw headroom
// (uncapacitated links always fit). Excluded (failed) links never fit,
// which is what keeps re-routed paths off dead trunks.
func (c *Capacities) linkFitsID(id int32, bw sg.BW) bool {
	r := c.linkFreeID(id)
	if r.masked {
		return false
	}
	if bw <= 0 || !c.ix.lcap[id].capped {
		return true
	}
	return fits(r.bw, bw)
}

// takeLinks reserves bw along a route of frozen link IDs, as the path
// engine hands them out; a negative bw gives it back.
func (c *Capacities) takeLinks(links []int32, bw sg.BW) {
	if bw == 0 {
		return
	}
	for _, id := range links {
		c.takeLink(id, bw)
	}
}

// takePath is takeLinks along a switch-name route, resolving each hop; a
// pair that is no frozen link is skipped. Healing gives back the routes
// it abandons this way, since a mapping keeps its routes as names only.
func (c *Capacities) takePath(route []string, bw sg.BW) {
	if bw == 0 {
		return
	}
	for i := 0; i+1 < len(route); i++ {
		if id := c.ix.linkByName(route[i], route[i+1]); id >= 0 {
			c.takeLink(id, bw)
		}
	}
}

// takeLink reserves bw on one frozen link; an uncapacitated link keeps
// no reservation.
func (c *Capacities) takeLink(id int32, bw sg.BW) {
	if c.ix.lcap[id].capped {
		r := c.linkFreeID(id)
		r.bw -= bw
		c.setLink(id, r)
	}
}

// ShortestFeasiblePath finds the minimum-hop switch route from a to b
// whose every link has bw headroom and whose total propagation delay is
// within maxDelay (0 = unbounded). Returns nil when no route exists.
// The candidates come precomputed per switch pair from the path cache and
// only feasibility is checked; when no cached candidate fits, the cache's
// one live search answers, and a reject costs exactly that search. The
// mappers' routeLinks and heal planning call shortestFeasible instead,
// which also hands back the route's link IDs.
func (c *Capacities) ShortestFeasiblePath(a, b string, bw sg.BW, maxDelay time.Duration) []string {
	route, _ := c.shortestFeasible(a, b, bw, maxDelay)
	return route
}

// shortestFeasible is ShortestFeasiblePath with the route's link IDs, in
// hop order, for takeLinks to reserve by ID. The IDs may be the path
// engine's own: callers only read them.
func (c *Capacities) shortestFeasible(a, b string, bw sg.BW, maxDelay time.Duration) ([]string, []int32) {
	if a == b {
		return []string{a}, nil
	}
	return c.rv.paths.lookup(c, a, b, bw, maxDelay)
}

// bfsPath is the uncached search: breadth-first over the frozen index
// with feasibility and delay pruning inline. It is the path cache's live
// search (the one search that proves a reject) and the reference engine
// the path-cache tests compare against. Its marks, delays and labels
// live in pooled scratch, so the returned route is its only allocation.
//
// Without a delay bound it is plain BFS: a switch is entered once, on its
// first arrival. With one, a switch reached again at a later hop level is
// re-entered when it arrives with strictly lower delay than every earlier
// arrival (a Pareto label on hops and delay), so a route over more hops
// that meets the bound is not lost behind a shorter one that breaks it.
func (c *Capacities) bfsPath(a, b string, bw sg.BW, maxDelay time.Duration) []string {
	src, ok := c.ix.swID[a]
	dst, ok2 := c.ix.swID[b]
	if !ok || !ok2 {
		return nil
	}
	s := c.ix.scratch()
	defer c.ix.pool.Put(s)
	s.seen[src], s.best[src] = s.gen, 0
	s.labels = append(s.labels[:0], label{sw: src, from: -1})
	for head := 0; head < len(s.labels); head++ {
		cur := s.labels[head]
		for _, e := range c.ix.adj[cur.sw] {
			nd := cur.delay + c.ix.links[e.link].Delay
			if s.seen[e.to] == s.gen && (maxDelay <= 0 || nd >= s.best[e.to]) {
				continue
			}
			if !c.linkFitsID(e.link, bw) {
				continue
			}
			if maxDelay > 0 && nd > maxDelay {
				continue
			}
			s.seen[e.to], s.best[e.to] = s.gen, nd
			s.labels = append(s.labels, label{sw: e.to, from: int32(head), delay: nd})
			if e.to == dst {
				hops := 0
				for at := len(s.labels) - 1; s.labels[at].from >= 0; at = int(s.labels[at].from) {
					hops++
				}
				route := make([]string, hops+1)
				for at := len(s.labels) - 1; at >= 0; at = int(s.labels[at].from) {
					route[hops] = c.ix.swName[s.labels[at].sw]
					hops--
				}
				return route
			}
		}
	}
	return nil
}

// hopDistancesShared returns BFS hop counts by switch ID from a source
// switch, -1 where unreachable, or nil for a switch outside the index:
// the heuristic mappers' distance estimate (capacity ignored). The slice
// is the memoized one itself: callers treat it as read-only, saving an
// O(switches) copy per placement step on the admission hot path.
func (rv *ResourceView) hopDistancesShared(from string) []int32 {
	ix := rv.topo()
	src, ok := ix.swID[from]
	if !ok {
		return nil
	}
	rv.hopMu.Lock()
	if rv.hopDist == nil {
		rv.hopDist = make([][]int32, len(ix.swName))
	}
	cached := rv.hopDist[src]
	rv.hopMu.Unlock()
	if cached != nil {
		return cached
	}
	dist := make([]int32, len(ix.swName))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range ix.adj[cur] {
			if dist[e.to] < 0 {
				dist[e.to] = dist[cur] + 1
				queue = append(queue, e.to)
			}
		}
	}
	rv.hopMu.Lock()
	if prior := rv.hopDist[src]; prior != nil {
		dist = prior // a racing computation won; share one slice
	} else {
		rv.hopDist[src] = dist
	}
	rv.hopMu.Unlock()
	return dist
}

// Commit reserves a mapping's resources in the view unconditionally (one
// published epoch). AdmitAndCommit is the validating front door; Commit
// remains for callers that have already established feasibility (tests,
// tools replaying known-good mappings).
func (rv *ResourceView) Commit(m *Mapping) {
	d := rv.mappingDelta(m, 1)
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.publish(func(mu *mutation) { mu.add(d) })
}

// Release returns a mapping's resources to the view (teardown): the
// same delta as Commit, negated. The committed state returns exactly to
// its pre-Commit value in one new epoch.
func (rv *ResourceView) Release(m *Mapping) {
	d := rv.mappingDelta(m, -1)
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
	r := rv.state.Load().ee.at(rv.topo().eeRef(ee, false))
	return r.cpu, r.mem
}

// CommittedBW reports the committed bandwidth on the link between two
// switches.
func (rv *ResourceView) CommittedBW(a, b string) sg.BW {
	return rv.state.Load().link.at(rv.topo().linkRef(a, b, false)).bw
}

// Fingerprint digests the committed state of the current epoch — per-EE
// CPU/mem, per-link bandwidth and the exclusion masks, in sorted key
// order, zero/unmasked entries skipped. Two views over the same topology
// whose committed accounting is bit-identical produce the same
// fingerprint regardless of epoch history, so crash-recovery replay can
// assert it restored exactly the committed view it lost.
func (rv *ResourceView) Fingerprint() string {
	s := rv.state.Load()
	ix := rv.topo()
	h := sha256.New()
	for id, ee := range ix.eeNames {
		r := s.ee.at(int32(id))
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
		r := s.link.at(ix.linkRef(k.a, k.b, false))
		if r.bw != 0 {
			fmt.Fprintf(h, "bw %s %s %d\n", k.a, k.b, r.bw)
		}
		if r.masked {
			fmt.Fprintf(h, "excl-link %s %s\n", k.a, k.b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
