package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"escape/internal/sg"
)

// admitOptimisticRetries bounds lock-free re-mapping before an admitter
// falls back to the serialization mutex (it still validates there:
// optimistic winners don't hold that mutex).
const admitOptimisticRetries = 8

// admitFallbackRetries bounds validation retries under the mutex. A
// conflict usually means another admission committed, but exclusion-mask
// transitions also invalidate in-flight mappings without anyone
// admitting, so an unbounded loop could livelock under pathological
// mask churn; exhausting this budget is reported as an admission error.
const admitFallbackRetries = 64

// admissionCounters aggregates admission-protocol telemetry.
type admissionCounters struct {
	admitted  atomic.Uint64
	conflicts atomic.Uint64
	fallbacks atomic.Uint64
}

// AdmissionStats is a snapshot of the admission telemetry: Admitted
// successful admissions (deploy + heal), Conflicts validation failures
// that forced a re-map, SerializedFallbacks admitters that exhausted
// their optimistic retry budget.
type AdmissionStats struct {
	Admitted            uint64
	Conflicts           uint64
	SerializedFallbacks uint64
}

// AdmissionStats reports the protocol counters since the view was built.
func (rv *ResourceView) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted:            rv.stats.admitted.Load(),
		Conflicts:           rv.stats.conflicts.Load(),
		SerializedFallbacks: rv.stats.fallbacks.Load(),
	}
}

// AdmitAndCommit runs one admission cycle — map the graph, then commit
// the mapping — such that a successful return means the committed
// resources were actually free: parallel Deploys can never oversubscribe
// the view. Mapping failures commit nothing.
//
// The mapper runs lock-free against a pinned epoch; validate-and-commit
// then re-checks, under the view's short write lock, only the EEs and
// links the mapping touches — against the current epoch, including
// exclusion masks that landed after the snapshot. Concurrent deploys
// that don't contend for the same capacity never serialize. On conflict
// the admission re-maps on fresher state (see retry).
func (rv *ResourceView) AdmitAndCommit(m Mapper, g *sg.Graph) (*Mapping, error) {
	var mapping *Mapping
	err := rv.retry("admitting", g.Name, func() (bool, error) {
		var err error
		if mapping, err = m.Map(g, rv); err != nil {
			return false, err
		}
		return rv.TryCommitMapping(mapping)
	})
	if err != nil {
		return nil, err
	}
	return mapping, nil
}

// retry is the one optimistic retry loop, behind AdmitAndCommit and
// AdmitHeal. attempt computes a candidate lock-free on a fresh epoch and
// tries to publish it, reporting false with a nil error on a validation
// conflict. After admitOptimisticRetries conflicts the caller serializes
// with the other fallen-back admitters on admitMu — still validating, as
// optimistic winners never take admitMu — for at most
// admitFallbackRetries more attempts.
func (rv *ResourceView) retry(what, name string, attempt func() (bool, error)) error {
	for i := 0; i < admitOptimisticRetries+admitFallbackRetries; i++ {
		if i == admitOptimisticRetries {
			rv.stats.fallbacks.Add(1)
			rv.admitMu.Lock()
			defer rv.admitMu.Unlock()
		}
		if ok, err := attempt(); ok || err != nil {
			return err
		}
	}
	return fmt.Errorf("core: %s %q: %d consecutive validation conflicts (extreme contention or mask churn)",
		what, name, admitFallbackRetries)
}

// TryCommitMapping validates and commits an externally computed mapping
// against the current epoch without re-running any mapper: the seam the
// parallel scenario player uses to merge speculative Map results in
// trace order. A false return with nil error is a validation conflict
// (the caller should re-map, typically via AdmitAndCommit); a non-nil
// error is a permanent commit-gate rejection.
func (rv *ResourceView) TryCommitMapping(m *Mapping) (bool, error) {
	return rv.tryPublish(rv.mappingDelta(m, 1), m)
}

// delta is one signed change to the committed accounting: a mapping's
// demands added (Commit, admission) or returned (Release), or a heal
// plan's moves — old placements and routes out, new ones in. Built
// outside the view lock, by record ID (see topoIndex), and published as
// one epoch.
type delta struct {
	ix   *topoIndex
	ee   []eeChange
	link []linkChange
}

// eeChange is one EE's part of a delta; recv marks an EE that receives
// an NF, which must exist and be unmasked.
type eeChange struct {
	id   int32
	cpu  sg.CPU
	mem  int
	recv bool
}

// linkChange is one link's part of a delta; onRoute marks a link on a
// new route, which must exist and be unmasked.
type linkChange struct {
	id      int32
	bw      sg.BW
	onRoute bool
}

// place adds (sign +1) or removes (-1) one NF's compute on an EE.
func (d *delta) place(ee string, cpu sg.CPU, mem int, sign int) {
	id := d.ix.eeRef(ee, true)
	i := slices.IndexFunc(d.ee, func(c eeChange) bool { return c.id == id })
	if i < 0 {
		i = len(d.ee)
		d.ee = append(d.ee, eeChange{id: id})
	}
	c := &d.ee[i]
	c.cpu += sg.CPU(sign) * cpu
	c.mem += sign * mem
	c.recv = c.recv || sign > 0
}

// route adds (sign +1) or removes (-1) one SG link's bandwidth along a
// switch route.
func (d *delta) route(route []string, bw sg.BW, sign int) {
	if sign < 0 && bw <= 0 {
		return
	}
	for i := 0; i+1 < len(route); i++ {
		id := d.ix.linkRef(route[i], route[i+1], true)
		j := slices.IndexFunc(d.link, func(c linkChange) bool { return c.id == id })
		if j < 0 {
			j = len(d.link)
			d.link = append(d.link, linkChange{id: id})
		}
		c := &d.link[j]
		if bw > 0 {
			c.bw += sg.BW(sign) * bw
		}
		c.onRoute = c.onRoute || sign > 0
	}
}

// newDelta returns an empty delta with room for ees EE and hops link
// changes.
func (rv *ResourceView) newDelta(ees, hops int) *delta {
	return &delta{ix: rv.topo(), ee: make([]eeChange, 0, ees), link: make([]linkChange, 0, hops)}
}

// routeHops counts the link hops of some switch routes.
func routeHops(routes map[string][]string) (n int) {
	for _, r := range routes {
		n += max(len(r)-1, 0)
	}
	return n
}

// mappingDelta is a mapping's whole demand with the given sign.
func (rv *ResourceView) mappingDelta(m *Mapping, sign int) *delta {
	d := rv.newDelta(len(m.Placements), routeHops(m.Routes))
	for nfID, ee := range m.Placements {
		cpu, mem := NFDemand(m.Catalog, m.Graph.NF(nfID))
		d.place(ee, cpu, mem, sign)
	}
	for linkID, route := range m.Routes {
		if l := m.Graph.Link(linkID); l != nil {
			d.route(route, m.linkDemand(l), sign)
		}
	}
	return d
}

// healDelta is a heal plan's moves: each moved NF's compute leaves its
// old EE for its new one, each re-routed SG link's bandwidth leaves its
// old route for its new one.
func (rv *ResourceView) healDelta(m *Mapping, plan *HealPlan) *delta {
	d := rv.newDelta(2*len(plan.Moved), routeHops(plan.OldRoutes)+routeHops(plan.Routes))
	for nfID, newEE := range plan.Moved {
		cpu, mem := NFDemand(m.Catalog, m.Graph.NF(nfID))
		d.place(plan.OldEE[nfID], cpu, mem, -1)
		d.place(newEE, cpu, mem, 1)
	}
	for linkID, newRoute := range plan.Routes {
		bw := m.linkDemand(m.Graph.Link(linkID))
		d.route(plan.OldRoutes[linkID], bw, -1)
		d.route(newRoute, bw, 1)
	}
	return d
}

// fitsEpoch reports whether d can publish on epoch cur: every EE
// receiving an NF exists and is unmasked, every link on a new route
// exists and is unmasked, and every positive net change fits (links
// without capacity take any bandwidth), against the capacities the index
// froze. Only receiving EEs and new-route links gain anything, so pure
// releases are never checked. Caller holds rv.mu.
func (rv *ResourceView) fitsEpoch(cur *viewState, d *delta) bool {
	for _, c := range d.ee {
		if !c.recv {
			continue
		}
		capa, ok := d.ix.eeCapOf(rv, c.id)
		r := cur.ee.at(c.id)
		if !ok || r.masked ||
			c.cpu > 0 && !fits(capa.cpu-r.cpu, c.cpu) ||
			c.mem > 0 && !fits(capa.mem-r.mem, c.mem) {
			return false
		}
	}
	for _, c := range d.link {
		if !c.onRoute {
			continue
		}
		if !d.ix.frozenLink(c.id) {
			return false
		}
		capa, r := d.ix.lcap[c.id], cur.link.at(c.id)
		if r.masked || c.bw > 0 && capa.capped && !fits(capa.bw-r.bw, c.bw) {
			return false
		}
	}
	return true
}

// tryPublish is the one validate-and-publish, for admissions and heals:
// it validates d against the current epoch — only the resources it
// touches — and publishes it as one epoch if everything still fits. A
// false return with nil error is a validation conflict (re-map or
// re-plan and retry). admit is the mapping being admitted, nil for a
// heal: the commit gate vets admissions only, and its non-nil error is a
// permanent rejection that retrying cannot fix.
func (rv *ResourceView) tryPublish(d *delta, admit *Mapping) (bool, error) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if !rv.fitsEpoch(rv.state.Load(), d) {
		rv.stats.conflicts.Add(1)
		return false, nil
	}
	if admit != nil && rv.gate != nil {
		if err := rv.gate.Admit(admit); err != nil {
			return false, err
		}
	}
	rv.publish(func(mu *mutation) { mu.add(d) })
	rv.stats.admitted.Add(1)
	return true, nil
}
