// The parallel scenario player: speculative mapping and heal planning
// on a worker pool, merged by a single committer in trace order, with a
// flip-detection proof obligation that makes the result bit-identical
// to the serial player for any worker count.
//
// Why this is exact. Within one window between fault/repair barriers,
// the serial player's decision for event i is a deterministic function
// of the committed view state at event i, and the mapper consumes that
// state only through threshold predicates — "does EE e fit one more
// NF", "does link l carry one more demand", and the commit validation
// checks. Demands are uniform per run (PlayOptions.NFCPU/NFMem/LinkBW;
// chainGraph sets them explicitly on every NF and SG link), and core has
// one exact fit predicate (demand ≤ free, in integer units) for mappers
// and validation alike, so every predicate the mapper, heal planner or
// commit validator can evaluate is free ≥ k·unit or its complement, for
// small k. The committer — the only goroutine that publishes view
// changes — mirrors every commit and release into a shadow account and
// bumps a flip counter whenever any touched resource crosses any of
// those thresholds (k = 0..K, K sized for the deepest stacking one
// admission or heal can cause). A speculative job records the flip counter at
// enqueue; if it is unchanged at merge time, every predicate was
// constant across the job's whole speculation window, so the
// speculative result provably equals what the serial player would have
// computed at the merge point — commit it. Otherwise discard it and
// replay that one event through the exact serial path on the live
// view. Either way each event's outcome is the serial outcome, and the
// flip counter itself evolves as a pure function of trace order, so
// the report is deterministic and worker-count-independent.
//
// Barriers: lookahead never crosses a FaultLink/RepairLink event, so
// the pool is quiesced (zero in-flight jobs) whenever exclusion masks
// change — speculation windows never span a mask transition.
//
// The one channel this argument does not cover is the path cache:
// discarded speculative attempts may materialize cache candidates that
// a later window (after a mask transition) could observe at a
// different materialization depth than a serial run would. Candidate
// lookup is first-feasible over a deterministic candidate sequence, so
// divergence needs a stale-mask candidate surviving a transition —
// never observed in practice; the workers-1/2/8 equality tests and
// admit_scale's correctness check re-prove bit-identity empirically.
package substrate

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"escape/internal/core"
	"escape/internal/sg"
)

// Equal reports whether two play reports are bit-identical — the
// criterion the parallel-player tests and admit_scale assert between
// serial and parallel runs of one trace.
func (r *PlayReport) Equal(o *PlayReport) bool {
	return reflect.DeepEqual(r, o)
}

type pkind uint8

const (
	jobMap  pkind = iota // speculative chainGraph + mapper.Map
	jobHeal              // speculative rv.PlanHeal
)

// pjob is one unit of speculative work: filled in by a worker, merged
// by the committer.
type pjob struct {
	id     int // unique: event index for arrivals, len(events)+healSeq for heals
	kind   pkind
	flipAt uint64 // flip counter at enqueue; unchanged at merge ⇒ result is serial-exact

	// jobMap
	ev *ScenarioEvent
	g  *sg.Graph
	m  *core.Mapping

	// jobHeal
	target   *core.Mapping
	linkDown func(a, b string) bool
	plan     *core.HealPlan

	err error
}

func noEEDown(string) bool { return false }

// parallelPlayer is the committer's state for one run.
type parallelPlayer struct {
	sub    Substrate
	rv     *core.ResourceView
	mapper core.Mapper
	events []ScenarioEvent
	opts   PlayOptions

	ft *flipTracker

	jobs     chan *pjob
	done     chan *pjob
	pending  map[int]*pjob
	inflight int
	window   int
	la       int // lookahead: next event index eligible for speculation
	healSeq  int

	rep        *PlayReport
	active     map[string]*core.Mapping
	activeRate map[string]float64
	down       downLinks
	sc         *playScratch
}

// playParallel plays the trace with opts.Workers speculative workers.
func playParallel(sub Substrate, rv *core.ResourceView, mapper core.Mapper, events []ScenarioEvent, opts PlayOptions) (*PlayReport, error) {
	p := &parallelPlayer{
		sub: sub, rv: rv, mapper: mapper, events: events, opts: opts,
		ft:      newFlipTracker(rv, opts, maxChainLen(events)),
		window:  opts.Workers * 4,
		pending: map[int]*pjob{},
		rep:     &PlayReport{Decisions: map[string]*Decision{}},
		active:  map[string]*core.Mapping{}, activeRate: map[string]float64{},
		sc: &playScratch{},
	}
	p.jobs = make(chan *pjob, p.window)
	p.done = make(chan *pjob, p.window)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go p.worker(&wg)
	}
	err := p.run()
	close(p.jobs)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return p.rep, nil
}

// worker speculates jobs lock-free against pinned view epochs. Both
// paths (mapper.Map, rv.PlanHeal) are the lock-free halves of the
// optimistic admission protocol and never publish view state.
func (p *parallelPlayer) worker(wg *sync.WaitGroup) {
	defer wg.Done()
	sc := &playScratch{}
	for j := range p.jobs {
		switch j.kind {
		case jobMap:
			j.g = chainGraphWith(j.ev, p.opts, sc)
			j.m, j.err = p.mapper.Map(j.g, p.rv)
		case jobHeal:
			j.plan, j.err = p.rv.PlanHeal(j.target, noEEDown, j.linkDown)
		}
		p.done <- j
	}
}

// fillEvents enqueues speculative map jobs for upcoming arrivals, up to
// the in-flight window, stopping at the next fault/repair barrier.
func (p *parallelPlayer) fillEvents() {
	for p.inflight < p.window && p.la < len(p.events) {
		ev := &p.events[p.la]
		switch ev.Kind {
		case Arrive:
			j := &pjob{id: p.la, kind: jobMap, ev: ev, flipAt: p.ft.flips}
			p.jobs <- j
			p.inflight++
			p.la++
		case Depart:
			p.la++ // nothing to precompute
		default:
			return // barrier: quiesce before masks change
		}
	}
}

// waitJob drains completed jobs until the one with the given id
// arrives, refilling the pipeline after every receive so the pool
// never idles while the committer waits.
func (p *parallelPlayer) waitJob(id int, refill func()) *pjob {
	for {
		if j, ok := p.pending[id]; ok {
			delete(p.pending, id)
			return j
		}
		j := <-p.done
		p.inflight--
		p.pending[j.id] = j
		if refill != nil {
			refill()
		}
	}
}

// run is the committer loop: events processed strictly in trace order.
func (p *parallelPlayer) run() error {
	for i := range p.events {
		ev := &p.events[i]
		p.fillEvents()
		p.sub.AdvanceTo(ev.At)
		switch ev.Kind {
		case Arrive:
			j := p.waitJob(i, p.fillEvents)
			var m *core.Mapping
			if p.ft.flips == j.flipAt {
				// No predicate the speculation could have read changed
				// between enqueue and now: the job's outcome IS the
				// serial outcome.
				if j.err != nil {
					p.rep.Rejected++
					continue
				}
				ok, err := p.rv.TryCommitMapping(j.m)
				if err != nil {
					p.rep.Rejected++ // commit-gate rejection, as in serial
					continue
				}
				if ok {
					m = j.m
				}
			}
			if m == nil {
				// Stale speculation: replay this one event through the
				// exact serial path on the live view.
				mm, err := p.rv.AdmitAndCommit(p.mapper, j.g)
				if err != nil {
					p.rep.Rejected++
					continue
				}
				m = mm
			}
			p.ft.applyMapping(m, +1)
			p.rep.Admitted++
			p.active[ev.Service] = m
			p.activeRate[ev.Service] = ev.Rate
			p.rep.Decisions[ev.Service] = &Decision{
				Service:    ev.Service,
				Placements: copyMap(m.Placements),
				Routes:     copyRoutes(m.Routes),
			}
			if len(p.active) > p.rep.PeakActive {
				p.rep.PeakActive = len(p.active)
			}
			if p.opts.Traffic {
				if err := p.sub.StartFlow(FlowSpec{
					ID: ev.Service, SrcSAP: ev.SrcSAP, DstSAP: ev.DstSAP,
					Route: flowRouteWith(m, p.sc), Rate: ev.Rate,
				}); err != nil {
					return fmt.Errorf("substrate: starting flow %s: %w", ev.Service, err)
				}
			}
		case Depart:
			m := p.active[ev.Service]
			if m == nil {
				continue // arrival was rejected
			}
			if p.opts.Traffic {
				st, err := p.sub.StopFlow(ev.Service)
				if err != nil {
					return err
				}
				p.rep.OfferedBits += st.OfferedBits
				p.rep.DeliveredBits += st.DeliveredBits
			}
			p.rv.Release(m)
			p.ft.applyMapping(m, -1)
			delete(p.active, ev.Service)
			delete(p.activeRate, ev.Service)
			p.rep.Departed++
		case FaultLink:
			// Lookahead stopped here, all prior jobs merged: the pool is
			// quiet, masks may change.
			if err := p.sub.FailLink(ev.A, ev.B); err != nil {
				return err
			}
			p.rv.ExcludeLink(ev.A, ev.B)
			p.down.add(ev.A, ev.B)
			if p.opts.HealOnFault {
				if err := p.healParallel(); err != nil {
					return err
				}
			}
			if p.la <= i {
				p.la = i + 1
			}
		case RepairLink:
			if err := p.sub.HealLink(ev.A, ev.B); err != nil {
				return err
			}
			p.rv.UnexcludeLink(ev.A, ev.B)
			p.down.remove(ev.A, ev.B)
			if p.la <= i {
				p.la = i + 1
			}
		}
	}
	return nil
}

// healParallel is the parallel counterpart of healAffected: heal plans
// for all affected services speculate concurrently, then merge in
// sorted service order with the same flip check as admissions.
func (p *parallelPlayer) healParallel() error {
	linkDown := p.down.has // binds the list as it is now
	names := p.sc.names[:0]
	for name := range p.active {
		names = append(names, name)
	}
	sort.Strings(names)
	p.sc.names = names
	work := make([]string, 0, len(names))
	for _, name := range names {
		if routesCross(p.active[name], p.down) {
			work = append(work, name)
		}
	}
	if len(work) == 0 {
		return nil
	}
	ids := make([]int, len(work))
	wi := 0
	fill := func() {
		for p.inflight < p.window && wi < len(work) {
			j := &pjob{
				id: len(p.events) + p.healSeq, kind: jobHeal,
				target: p.active[work[wi]], linkDown: linkDown,
				flipAt: p.ft.flips,
			}
			p.healSeq++
			ids[wi] = j.id
			p.jobs <- j
			p.inflight++
			wi++
		}
	}
	for k := range work {
		fill()
		j := p.waitJob(ids[k], fill)
		name := work[k]
		m := p.active[name]
		var plan *core.HealPlan
		if p.ft.flips == j.flipAt {
			if j.err != nil {
				continue // serial PlanHeal would fail identically: keep broken route
			}
			if j.plan.Empty() {
				continue
			}
			if p.rv.TryCommitHealPlan(m, j.plan) {
				plan = j.plan
			}
		}
		if plan == nil {
			// Stale speculation (an earlier heal this pass crossed a
			// threshold): replan serially on the live view.
			pl, err := p.rv.AdmitHeal(m, noEEDown, j.linkDown)
			if err != nil {
				continue
			}
			if pl.Empty() {
				continue
			}
			plan = pl
		}
		p.ft.applyHeal(plan)
		healed := m.WithPlan(plan)
		p.active[name] = healed
		recordHeal(p.rep, name, plan)
		if p.opts.Traffic {
			if err := resteerFlow(p.sub, name, healed, p.activeRate[name], p.sc); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxChainLen scans the trace for the longest requested chain (sizes
// the flip threshold family).
func maxChainLen(events []ScenarioEvent) int {
	max := 0
	for i := range events {
		if events[i].ChainLen > max {
			max = events[i].ChainLen
		}
	}
	return max
}

// flipTracker is the committer's shadow account of the view's committed
// state, watching the predicate thresholds the mapper, heal planner and
// commit validator can observe: flips increments whenever any touched
// resource crosses any threshold free ≥ k·unit (k = 0..kMax). The shadow
// counts in the view's own exact units (micro-cores, MB, bit/s), so the
// thresholds sit exactly where core's predicate flips. Exactness rests
// on the run's uniform demands: every committed quantity is an integer
// multiple of the unit.
type flipTracker struct {
	rv      *core.ResourceView
	cpuUnit sg.CPU
	memUnit int64
	bwUnit  sg.BW
	kMax    int
	flips   uint64

	cpuUsed map[string]sg.CPU
	memUsed map[string]int64
	bwUsed  map[[2]string]sg.BW
	bwCap   map[[2]string]sg.BW // capacitated physical links only
}

// newFlipTracker seeds the shadow from the view's current committed
// state (normally zero: E14 plays each trace on a fresh view).
func newFlipTracker(rv *core.ResourceView, opts PlayOptions, maxChain int) *flipTracker {
	// K covers the deepest threshold any single admission or heal can
	// probe: up to chainLen NFs stacked on one EE, chainLen+1 SG links
	// routed over one physical link, and a heal crediting as many back
	// before re-taking them.
	k := 3*maxChain + 4
	if k < 8 {
		k = 8
	}
	if k > 63 {
		k = 63 // signatures are uint64
	}
	ft := &flipTracker{
		rv: rv, memUnit: int64(opts.NFMem), kMax: k,
		cpuUsed: map[string]sg.CPU{}, memUsed: map[string]int64{},
		bwUsed: map[[2]string]sg.BW{}, bwCap: map[[2]string]sg.BW{},
	}
	ft.cpuUnit, _ = sg.CPUOf(opts.NFCPU)
	ft.bwUnit, _ = sg.BWOf(opts.LinkBW)
	for name := range rv.EEs {
		cpu, mem := rv.Committed(name)
		ft.cpuUsed[name] = cpu
		ft.memUsed[name] = int64(mem)
	}
	for _, l := range rv.Links {
		if l.Bandwidth > 0 {
			key := linkKeyOf(l.A, l.B)
			ft.bwCap[key], _ = sg.BWOf(l.Bandwidth)
			ft.bwUsed[key] = rv.CommittedBW(l.A, l.B)
		}
	}
	return ft
}

// sig is the threshold signature of one resource: bit k is free ≥ k·unit.
// Core's validation check (used + k·unit > cap) is the complement of bit
// k, so it needs no signature of its own.
func sig[T ~int64](free, unit T, kMax int) (s uint64) {
	for k := 0; k <= kMax; k++ {
		if free >= T(k)*unit {
			s |= 1 << uint(k)
		}
	}
	return s
}

// addCompute books one NF (sign +1) or its release (-1) on an EE's
// shadow and flips if any CPU or memory threshold changed sides.
func (ft *flipTracker) addCompute(ee string, sign int64) {
	res := ft.rv.EEs[ee]
	if res == nil {
		return
	}
	cpuCap, _ := sg.CPUOf(res.CPU)
	memCap := int64(res.Mem)
	oc, om := ft.cpuUsed[ee], ft.memUsed[ee]
	nc, nm := oc+sg.CPU(sign)*ft.cpuUnit, om+sign*ft.memUnit
	if sig(cpuCap-oc, ft.cpuUnit, ft.kMax) != sig(cpuCap-nc, ft.cpuUnit, ft.kMax) ||
		sig(memCap-om, ft.memUnit, ft.kMax) != sig(memCap-nm, ft.memUnit, ft.kMax) {
		ft.flips++
	}
	ft.cpuUsed[ee], ft.memUsed[ee] = nc, nm
}

// addBW books one SG link's demand (sign +1) or its release (-1) on a
// route hop. Uncapacitated links never appear in any predicate and are
// not tracked.
func (ft *flipTracker) addBW(key [2]string, sign int64) {
	cap, ok := ft.bwCap[key]
	if !ok {
		return
	}
	o := ft.bwUsed[key]
	n := o + sg.BW(sign)*ft.bwUnit
	if sig(cap-o, ft.bwUnit, ft.kMax) != sig(cap-n, ft.bwUnit, ft.kMax) {
		ft.flips++
	}
	ft.bwUsed[key] = n
}

// applyMapping mirrors a mapping's commit (sign +1) or release (-1) into
// the shadow. Demands are the run's uniform units by construction
// (chainGraph sets them explicitly on every NF and link).
func (ft *flipTracker) applyMapping(m *core.Mapping, sign int64) {
	for _, ee := range m.Placements {
		ft.addCompute(ee, sign)
	}
	for _, route := range m.Routes {
		for i := 0; i+1 < len(route); i++ {
			ft.addBW(linkKeyOf(route[i], route[i+1]), sign)
		}
	}
}

// applyHeal mirrors a published heal plan into the shadow.
func (ft *flipTracker) applyHeal(plan *core.HealPlan) {
	for nfID, newEE := range plan.Moved {
		ft.addCompute(plan.OldEE[nfID], -1)
		ft.addCompute(newEE, 1)
	}
	for linkID, newRoute := range plan.Routes {
		old := plan.OldRoutes[linkID]
		for i := 0; i+1 < len(old); i++ {
			ft.addBW(linkKeyOf(old[i], old[i+1]), -1)
		}
		for i := 0; i+1 < len(newRoute); i++ {
			ft.addBW(linkKeyOf(newRoute[i], newRoute[i+1]), 1)
		}
	}
}
