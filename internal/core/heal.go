package core

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"escape/internal/steering"
)

// HealPlan is the delta between a failed mapping and its healed
// replacement: only the NFs that sat on dead EEs move, and only the SG
// links whose endpoints moved or whose routes crossed dead links are
// re-routed. Everything else keeps its placement, flows and counters.
type HealPlan struct {
	// Moved maps each migrating NF id to its new EE; OldEE records where
	// it sat.
	Moved map[string]string
	OldEE map[string]string
	// Routes maps each re-routed SG link id to its new switch route;
	// OldRoutes records the replaced ones.
	Routes    map[string][]string
	OldRoutes map[string][]string
}

// Empty reports whether the failure touched nothing of this mapping.
func (p *HealPlan) Empty() bool {
	return len(p.Moved) == 0 && len(p.Routes) == 0
}

// AdmitHeal computes and commits a healing delta for one mapping under
// the same optimistic protocol as AdmitAndCommit: NFs on EEs for which
// eeDown reports true are re-placed onto surviving EEs, and SG links
// whose routes cross a link for which linkDown reports true — or whose
// endpoints moved — are re-routed. The plan is computed lock-free
// against a pinned epoch; validate-and-commit then re-checks, under the
// view's short write lock, only the resources the delta touches, and a
// conflict re-plans on fresher state. On success the view's committed
// state reflects the new mapping atomically in one published epoch (old
// placements released, new ones committed); on error nothing changed.
// The failed EEs/links themselves are additionally masked view-locally
// for the placement search even when the caller has not excluded them
// view-wide. The predicates are read for what the plan touches: eeDown
// for every EE, linkDown for the hops of the mapping's routes and for
// each link the re-routing search then looks at, once per plan — never
// for every link of the view.
func (rv *ResourceView) AdmitHeal(m *Mapping, eeDown func(string) bool, linkDown func(a, b string) bool) (*HealPlan, error) {
	var plan *HealPlan
	err := rv.retry("healing", m.Graph.Name, func() (bool, error) {
		var err error
		if plan, err = rv.PlanHeal(m, eeDown, linkDown); err != nil {
			return false, err
		}
		return rv.TryCommitHealPlan(m, plan), nil
	})
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// TryCommitHealPlan validates and publishes a previously computed
// healing delta against the current epoch: releases of the abandoned
// placements and routes and reservations of their replacements land as
// one epoch. Empty plans trivially succeed. A false return is a
// validation conflict — a target EE got masked, or a concurrent
// admission took the capacity — and the caller should re-plan on fresher
// state (typically via AdmitHeal).
func (rv *ResourceView) TryCommitHealPlan(m *Mapping, plan *HealPlan) bool {
	if plan.Empty() {
		return true
	}
	ok, _ := rv.tryPublish(rv.healDelta(m, plan), nil) // no gate for heals, so no error
	return ok
}

// PlanHeal computes a healing delta lock-free against a pinned epoch
// without committing it: the speculative half of AdmitHeal, exposed so
// the parallel scenario player can plan heals for many services
// concurrently and merge them in deterministic order through
// TryCommitHealPlan. It reads eeDown and linkDown as AdmitHeal does:
// linkDown lazily, from inside the plan's route searches, so concurrent
// plans may call it concurrently and it must not block.
func (rv *ResourceView) PlanHeal(m *Mapping, eeDown func(string) bool, linkDown func(a, b string) bool) (*HealPlan, error) {
	plan := &HealPlan{
		Moved:     map[string]string{},
		OldEE:     map[string]string{},
		Routes:    map[string][]string{},
		OldRoutes: map[string][]string{},
	}
	for nfID, ee := range m.Placements {
		if eeDown(ee) {
			plan.OldEE[nfID] = ee
		}
	}
	reroute := map[string]bool{}
	for linkID, route := range m.Routes {
		l := m.Graph.Link(linkID)
		if l == nil {
			continue
		}
		if _, moved := plan.OldEE[l.Src.Node]; moved {
			reroute[linkID] = true
		}
		if _, moved := plan.OldEE[l.Dst.Node]; moved {
			reroute[linkID] = true
		}
		for i := 0; i+1 < len(route); i++ {
			if linkDown(route[i], route[i+1]) {
				reroute[linkID] = true
			}
		}
	}
	if len(plan.OldEE) == 0 && len(reroute) == 0 {
		return plan, nil
	}

	caps := rv.Snapshot()
	for _, ee := range rv.eeNamesShared() {
		if eeDown(ee) {
			caps.excludeEE(ee)
		}
	}
	// A link linkDown reports down is masked for the search too, but asked
	// about only when the plan reads it, not for every link of the view.
	caps.linkDown = linkDown
	// Virtually release what the delta abandons, so healing can reuse the
	// bandwidth of its own old routes (freed compute on a dead EE is
	// masked anyway and not added back).
	for linkID := range reroute {
		if bw := m.linkDemand(m.Graph.Link(linkID)); bw > 0 {
			caps.takePath(m.Routes[linkID], -bw)
		}
	}

	// Re-place moved NFs: deterministic first fit over surviving EEs.
	movedIDs := make([]string, 0, len(plan.OldEE))
	for nfID := range plan.OldEE {
		movedIDs = append(movedIDs, nfID)
	}
	sort.Strings(movedIDs)
	eeNames := rv.eeNamesShared()
	for _, nfID := range movedIDs {
		nf := m.Graph.NF(nfID)
		cpu, mem := NFDemand(m.Catalog, nf)
		placed := false
		for _, ee := range eeNames {
			if !caps.FitsEE(ee, cpu, mem) {
				continue
			}
			caps.TakeEE(ee, cpu, mem)
			plan.Moved[nfID] = ee
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("core: healing %q: no surviving EE fits NF %q (%v cpu, %d mem)",
				m.Graph.Name, nfID, cpu, mem)
		}
	}

	// Re-route affected links between the (possibly new) attach switches.
	attach := func(node string) (string, error) {
		if sap := rv.SAPs[node]; sap != nil {
			return sap.Switch, nil
		}
		ee, ok := plan.Moved[node]
		if !ok {
			ee, ok = m.Placements[node]
		}
		if !ok {
			return "", fmt.Errorf("core: healing %q: endpoint %q unplaced", m.Graph.Name, node)
		}
		res := rv.EEs[ee]
		if res == nil {
			return "", fmt.Errorf("core: healing %q: EE %q missing from view", m.Graph.Name, ee)
		}
		return res.Switch, nil
	}
	linkIDs := make([]string, 0, len(reroute))
	for linkID := range reroute {
		linkIDs = append(linkIDs, linkID)
	}
	sort.Strings(linkIDs)
	for _, linkID := range linkIDs {
		l := m.Graph.Link(linkID)
		src, err := attach(l.Src.Node)
		if err != nil {
			return nil, err
		}
		dst, err := attach(l.Dst.Node)
		if err != nil {
			return nil, err
		}
		bw := m.linkDemand(l)
		route, ids := caps.shortestFeasible(src, dst, bw, l.MaxDelay)
		if route == nil {
			return nil, fmt.Errorf("core: healing %q: no surviving path for link %q (%s→%s)",
				m.Graph.Name, linkID, src, dst)
		}
		caps.takeLinks(ids, bw)
		plan.Routes[linkID] = route
		plan.OldRoutes[linkID] = m.Routes[linkID]
	}

	// The healed routes must still meet the graph's end-to-end
	// requirements, which its mapper checked: a heal that breaks one gives
	// up, so the service is redeployed through its mapper instead.
	if len(m.Graph.Reqs) > 0 {
		mc, err := newMapContext(m.Graph, rv, m.Catalog)
		if err != nil {
			return nil, fmt.Errorf("core: healing %q: %w", m.Graph.Name, err)
		}
		routes := maps.Clone(m.Routes)
		maps.Copy(routes, plan.Routes)
		if err := mc.checkE2E(routes); err != nil {
			return nil, fmt.Errorf("core: healing %q: %w", m.Graph.Name, err)
		}
	}
	return plan, nil
}

// HealReport summarizes one completed healing transaction.
type HealReport struct {
	Service string
	// Moved maps migrated NF ids to their new EEs (empty when only
	// routes changed).
	Moved map[string]string
	// Rerouted lists the SG link ids whose paths were re-steered.
	Rerouted []string
	// Duration is the wall time of the whole transaction (remap +
	// migration + re-steering).
	Duration time.Duration
}

// Heal runs the self-healing transaction for one Running service hit by
// a substrate failure, which the view's exclusion masks record
// (ExcludedEE, ExcludedLink): Running → Healing, delta re-map with the
// masked EEs/links excluded (AdmitHeal), migration of only the affected
// NFs (initiate/connect/start on the new EEs; untouched NFs keep their
// placement and flows), atomic re-steering of the changed paths
// (batched remove+install per switch, stitch tags preserved), then back
// to Running. A service whose mapping touches no masked resource is
// left alone: Heal returns (nil, nil) after one walk over the mapping,
// without serializing against the service's other operations.
//
// Migration races detection: a chosen target EE may itself have just
// died before its mask landed. A migration failure therefore treats its
// target as down for the rest of the transaction and re-plans, up to
// one attempt per EE; only when no feasible re-mapping exists — or
// every retry is exhausted — is the service torn down to Failed with
// the cause.
//
// Heal and Undeploy serialize per service, so a service can never be
// torn down mid-migration.
func (o *Orchestrator) Heal(name string) (*HealReport, error) {
	if err := o.beginOp(); err != nil {
		return nil, err
	}
	defer o.inflight.Done()
	svc := o.Service(name)
	if svc == nil {
		return nil, fmt.Errorf("core: service %q not deployed", name)
	}
	view := o.cfg.View
	if m := svc.mapping(); m == nil || !touchesMasked(view, m) {
		return nil, nil
	}
	svc.opMu.Lock()
	defer svc.opMu.Unlock()
	if st := svc.State(); st != StateRunning {
		return nil, fmt.Errorf("core: service %q is %s, not Running", name, st)
	}
	start := time.Now()
	current := svc.mapping()

	// alsoDown accumulates EEs that refused a migration this transaction
	// (crashed before their mask landed): re-plans exclude them.
	alsoDown := map[string]bool{}
	down := func(ee string) bool { return view.excludedEE(ee) || alsoDown[ee] }

	totalMoved := map[string]string{}
	rerouted := map[string]bool{}
	oldDeps := map[string]*DeployedNF{}
	staleDeps := map[*DeployedNF]bool{}
	healing := false

	// cleanupReplaced best-effort releases the instances this transaction
	// abandoned: the originals on the dead EEs plus stale intermediates
	// from retry targets. It runs on the success path AND on failure —
	// teardown only walks svc.NFs (the newest deps), so without this an
	// intermediate on a merely-sick, still-alive EE would leak its VNF
	// registration and switch ports. Deps still active in svc.NFs are
	// never touched: an NF realized on a healthy EE in an earlier attempt
	// and not re-placed since stays exactly where it is.
	cleanupReplaced := func() {
		active := map[*DeployedNF]bool{}
		svc.nfMu.Lock()
		for _, dep := range svc.NFs {
			active[dep] = true
		}
		svc.nfMu.Unlock()
		var replaced []*DeployedNF
		for _, dep := range oldDeps {
			if dep != nil && !active[dep] {
				replaced = append(replaced, dep)
			}
		}
		for dep := range staleDeps {
			if !active[dep] {
				replaced = append(replaced, dep)
			}
		}
		_ = o.releaseNFs(svc.Name, replaced)
	}
	fail := func(err error) (*HealReport, error) {
		if svc.State() == StateRunning {
			o.setState(svc, StateHealing, nil)
		}
		o.failService(svc, err)
		cleanupReplaced()
		return nil, err
	}
	maxAttempts := len(view.EEs) + 1
	for attempt := 0; ; attempt++ {
		plan, err := view.AdmitHeal(current, down, view.excludedLink)
		if err != nil {
			// No feasible healing: the service cannot keep running.
			return fail(fmt.Errorf("core: healing %q: %w", name, err))
		}
		if plan.Empty() {
			break // nothing (left) to do
		}
		if !healing {
			o.setState(svc, StateHealing, nil)
			healing = true
		}
		// The view already reflects the healed mapping: pin it to the
		// service before any fallible step, so a teardown on a later
		// error releases exactly what is committed.
		healed := current.WithPlan(plan)
		svc.setMapping(healed)
		current = healed
		svc.nfMu.Lock()
		for nfID := range plan.Moved {
			if _, seen := oldDeps[nfID]; !seen {
				oldDeps[nfID] = svc.NFs[nfID]
			}
		}
		svc.nfMu.Unlock()
		for nfID, ee := range plan.Moved {
			totalMoved[nfID] = ee
		}
		for linkID := range plan.Routes {
			rerouted[linkID] = true
		}

		failedEE, err := o.migrate(svc, healed, plan.Moved)
		if err == nil {
			break
		}
		if failedEE == "" || attempt >= maxAttempts {
			return fail(fmt.Errorf("core: healing %q: %w", name, err))
		}
		alsoDown[failedEE] = true // target died under us: re-plan without it
		// Instances already realized on the abandoned target are stale
		// the moment the next attempt re-places their NFs: collect them
		// for the final cleanup pass (if the target is merely sick rather
		// than dead, its agent will actually stop them).
		svc.nfMu.Lock()
		for nfID := range plan.Moved {
			if dep := svc.NFs[nfID]; dep != nil && dep != oldDeps[nfID] {
				staleDeps[dep] = true
			}
		}
		svc.nfMu.Unlock()
	}

	report := &HealReport{Service: name, Moved: totalMoved}
	for linkID := range rerouted {
		report.Rerouted = append(report.Rerouted, linkID)
	}
	sort.Strings(report.Rerouted)
	if !healing {
		report.Duration = time.Since(start)
		return report, nil
	}

	// Atomically re-steer the changed paths against the final routes: one
	// batched remove+install, grouped per switch. Path ids are stable
	// (service/link), stitch tags ride along in the rebuilt paths.
	if len(report.Rerouted) > 0 {
		newPaths := make([]steering.Path, 0, len(report.Rerouted))
		ids := make([]string, 0, len(report.Rerouted))
		for _, linkID := range report.Rerouted {
			l := svc.Graph.Link(linkID)
			p, err := o.concretePath(svc, l, current.Routes[linkID])
			if err != nil {
				return fail(fmt.Errorf("core: healing %q: %w", name, err))
			}
			newPaths = append(newPaths, *p)
			ids = append(ids, p.ID)
		}
		if _, err := o.cfg.Steering.ReplacePaths(ids, newPaths); err != nil {
			return fail(fmt.Errorf("core: healing %q: re-steering: %w", name, err))
		}
	}

	cleanupReplaced()

	o.setState(svc, StateRunning, nil)
	report.Duration = time.Since(start)
	return report, nil
}

// migrate realizes a set of moved NFs on their new EEs (grouped and
// ordered per EE). On error it reports which target EE failed, so the
// healing loop can exclude it and re-plan.
func (o *Orchestrator) migrate(svc *Service, mapping *Mapping, moved map[string]string) (failedEE string, err error) {
	byEE := map[string][]string{}
	for nfID, ee := range moved {
		byEE[ee] = append(byEE[ee], nfID)
	}
	ees := make([]string, 0, len(byEE))
	for ee := range byEE {
		ees = append(ees, ee)
	}
	sort.Strings(ees)
	for _, ee := range ees {
		if err := o.realizeEE(svc, mapping, ee, byEE[ee], nil); err != nil {
			return ee, fmt.Errorf("migrating %v to %q: %w", byEE[ee], ee, err)
		}
	}
	return "", nil
}

// failService drops a broken service out of the system: full teardown,
// name freed, terminal Failed with the cause.
func (o *Orchestrator) failService(svc *Service, cause error) {
	o.teardown(svc)
	o.unregister(svc)
	o.setState(svc, StateFailed, cause)
}

// WithPlan derives the healed mapping: a fresh Mapping with the plan's
// moves and re-routes applied (the original is left untouched for
// readers holding it).
func (m *Mapping) WithPlan(plan *HealPlan) *Mapping {
	nm := &Mapping{
		Graph:      m.Graph,
		Placements: make(map[string]string, len(m.Placements)),
		Routes:     make(map[string][]string, len(m.Routes)),
		Demands:    maps.Clone(m.Demands),
		Catalog:    m.Catalog,
	}
	for nfID, ee := range m.Placements {
		nm.Placements[nfID] = ee
	}
	for nfID, ee := range plan.Moved {
		nm.Placements[nfID] = ee
	}
	for linkID, route := range m.Routes {
		nm.Routes[linkID] = route
	}
	for linkID, route := range plan.Routes {
		nm.Routes[linkID] = route
	}
	return nm
}

// touchesMasked reports whether a mapping places an NF on a masked EE
// or routes across a masked link. The link check reads one epoch: when
// it masks no link the routes are not walked, and otherwise each hop is
// resolved to its ID and read there.
func touchesMasked(view *ResourceView, m *Mapping) bool {
	for _, ee := range m.Placements {
		if view.excludedEE(ee) {
			return true
		}
	}
	st := view.state.Load()
	if len(st.masked) == 0 {
		return false
	}
	ix := view.topo()
	for _, route := range m.Routes {
		for i := 0; i+1 < len(route); i++ {
			if st.link.at(ix.linkRef(route[i], route[i+1], false)).masked {
				return true
			}
		}
	}
	return false
}
