package substrate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

// ScenarioKind classifies one scenario event.
type ScenarioKind int

const (
	// Arrive admits a service chain and starts its flow.
	Arrive ScenarioKind = iota
	// Depart stops the flow and releases the mapping.
	Depart
	// FaultLink fails a link mid-scenario (heals trigger re-steering).
	FaultLink
	// RepairLink heals a previously failed link.
	RepairLink
)

// ScenarioEvent is one timed action in a workload trace. Traces are
// generated deterministically from a seed, sorted by (At, Seq), and
// played identically against any substrate — which is what makes
// cross-substrate conformance meaningful.
type ScenarioEvent struct {
	At   time.Duration
	Kind ScenarioKind
	Seq  int // tie-break for simultaneous events

	// Arrive/Depart fields.
	Service  string
	SrcSAP   string
	DstSAP   string
	ChainLen int
	Rate     float64 // offered bits/s per flow

	// FaultLink/RepairLink fields.
	A, B string
}

// ArrivalProcess names a generator shape.
type ArrivalProcess string

const (
	// Diurnal is a non-homogeneous Poisson process whose rate follows a
	// sinusoidal day curve (thinning method).
	Diurnal ArrivalProcess = "diurnal"
	// FlashCrowd is baseline Poisson plus burst windows at many times
	// the base rate.
	FlashCrowd ArrivalProcess = "flash"
	// HeavyTailed is plain Poisson arrivals with Pareto lifetimes (the
	// lifetime, not the arrival, carries the tail).
	HeavyTailed ArrivalProcess = "pareto"
)

// WorkloadParams parameterize a generated trace.
type WorkloadParams struct {
	Seed    int64
	Process ArrivalProcess
	// Services is the number of Arrive events (each has one Depart).
	Services int
	// Horizon is the arrival window; departures may extend past it.
	Horizon time.Duration
	// MeanLifetime sets the service holding time scale.
	MeanLifetime time.Duration
	// ChainLen NFs per service chain.
	ChainLen int
	// Rate is the per-flow offered load in bits/s.
	Rate float64
	// SAPs is the endpoint pool; pairs are drawn Zipf-weighted from
	// PairPool distinct pairs (bounding route-cache cardinality at
	// scale). PairPool 0 means len(SAPs)² unconstrained sampling.
	SAPs     []string
	PairPool int
}

// GenerateWorkload builds a deterministic scenario trace: arrivals from
// the named process, lifetimes exponential (Diurnal, FlashCrowd) or
// Pareto α=1.5 (HeavyTailed), endpoints Zipf over a fixed pair pool.
// Events are sorted by time with stable sequence tie-breaks.
func GenerateWorkload(p WorkloadParams) []ScenarioEvent {
	if p.Services <= 0 || len(p.SAPs) < 2 {
		return nil
	}
	if p.Horizon <= 0 {
		p.Horizon = time.Hour
	}
	if p.MeanLifetime <= 0 {
		p.MeanLifetime = 10 * time.Minute
	}
	if p.ChainLen <= 0 {
		p.ChainLen = 2
	}
	if p.Rate <= 0 {
		p.Rate = 1e6
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Endpoint pair pool: distinct ordered pairs drawn once, then
	// selected per-service by a Zipf law (rank 1 dominates — the flash
	// crowd and diurnal hot spots concentrate where real traffic does).
	pool := p.PairPool
	if pool <= 0 || pool > len(p.SAPs)*(len(p.SAPs)-1) {
		pool = len(p.SAPs) * (len(p.SAPs) - 1)
		if pool > 4096 {
			pool = 4096
		}
	}
	type pair struct{ src, dst string }
	pairs := make([]pair, 0, pool)
	seen := map[pair]bool{}
	for len(pairs) < pool {
		src := p.SAPs[rng.Intn(len(p.SAPs))]
		dst := p.SAPs[rng.Intn(len(p.SAPs))]
		if src == dst {
			continue
		}
		pr := pair{src, dst}
		if seen[pr] {
			// Dense pool: fall back to linear fill so tiny SAP sets
			// terminate.
			continue
		}
		seen[pr] = true
		pairs = append(pairs, pr)
	}
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(pairs)-1))

	arrivals := generateArrivals(rng, p)

	events := make([]ScenarioEvent, 0, 2*len(arrivals))
	for i, at := range arrivals {
		pr := pairs[zipf.Uint64()]
		life := p.lifetime(rng)
		name := fmt.Sprintf("svc-%d", i)
		events = append(events, ScenarioEvent{
			At: at, Kind: Arrive, Seq: 2 * i, Service: name,
			SrcSAP: pr.src, DstSAP: pr.dst,
			ChainLen: p.ChainLen, Rate: p.Rate,
		})
		events = append(events, ScenarioEvent{
			At: at + life, Kind: Depart, Seq: 2*i + 1, Service: name,
		})
	}
	sortEvents(events)
	return events
}

// generateArrivals returns sorted arrival offsets for the configured
// process.
func generateArrivals(rng *rand.Rand, p WorkloadParams) []time.Duration {
	h := p.Horizon.Seconds()
	out := make([]time.Duration, 0, p.Services)
	switch p.Process {
	case Diurnal:
		// NHPP by thinning: λ(t) = λmean·(1 + 0.8·sin(2πt/H)), peak
		// λmax = 1.8·λmean. Draw candidate points at λmax, accept with
		// probability λ(t)/λmax, until Services accepted.
		mean := float64(p.Services) / h
		lmax := 1.8 * mean
		t := 0.0
		for len(out) < p.Services {
			t += rng.ExpFloat64() / lmax
			lam := mean * (1 + 0.8*math.Sin(2*math.Pi*t/h))
			if lam < 0 {
				lam = 0
			}
			if rng.Float64() < lam/lmax {
				out = append(out, time.Duration(t*float64(time.Second)))
			}
		}
	case FlashCrowd:
		// 70% of services arrive as baseline Poisson over the horizon;
		// 30% arrive inside two burst windows of 2% of the horizon each.
		base := int(float64(p.Services) * 0.7)
		t := 0.0
		for i := 0; i < base; i++ {
			t += rng.ExpFloat64() * h / float64(base)
			out = append(out, time.Duration(t*float64(time.Second)))
		}
		for _, c := range []float64{0.3, 0.7} {
			burstStart := c * h
			width := 0.02 * h
			n := (p.Services - base) / 2
			for i := 0; i < n; i++ {
				bt := burstStart + rng.Float64()*width
				out = append(out, time.Duration(bt*float64(time.Second)))
			}
		}
		for len(out) < p.Services { // rounding remainder
			out = append(out, time.Duration(rng.Float64()*h*float64(time.Second)))
		}
	default: // HeavyTailed and anything else: plain Poisson arrivals
		t := 0.0
		for i := 0; i < p.Services; i++ {
			t += rng.ExpFloat64() * h / float64(p.Services)
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lifetime draws one service holding time.
func (p WorkloadParams) lifetime(rng *rand.Rand) time.Duration {
	switch p.Process {
	case HeavyTailed:
		// Pareto α=1.5 with mean = MeanLifetime: xm = mean·(α-1)/α.
		// Capped at 50× mean so a single tail draw cannot dominate the
		// whole trace.
		const alpha = 1.5
		xm := p.MeanLifetime.Seconds() * (alpha - 1) / alpha
		v := xm * math.Pow(1-rng.Float64(), -1/alpha)
		if max := 50 * p.MeanLifetime.Seconds(); v > max {
			v = max
		}
		return time.Duration(v * float64(time.Second))
	default:
		return time.Duration(rng.ExpFloat64() * float64(p.MeanLifetime))
	}
}

// WithLinkFaults injects fail/heal pairs into a trace: nFaults links
// drawn from links fail at deterministic offsets and heal after
// holdFor. The result is re-sorted.
func WithLinkFaults(events []ScenarioEvent, links []LinkSpec, nFaults int, seed int64, horizon, holdFor time.Duration) []ScenarioEvent {
	if nFaults <= 0 || len(links) == 0 {
		return events
	}
	rng := rand.New(rand.NewSource(seed))
	seq := len(events) * 2
	for i := 0; i < nFaults; i++ {
		l := links[rng.Intn(len(links))]
		at := time.Duration(rng.Float64() * float64(horizon))
		events = append(events,
			ScenarioEvent{At: at, Kind: FaultLink, Seq: seq, A: l.A, B: l.B},
			ScenarioEvent{At: at + holdFor, Kind: RepairLink, Seq: seq + 1, A: l.A, B: l.B},
		)
		seq += 2
	}
	sortEvents(events)
	return events
}

func sortEvents(events []ScenarioEvent) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Seq < events[j].Seq
	})
}

// Decision records what the orchestration stack decided for one service:
// the placement and steering outcome the conformance suite compares
// across substrates.
type Decision struct {
	Service    string
	Placements map[string]string // NF id → EE
	Routes     map[string][]string
	// HealMoves/HealRoutes accumulate deltas from mid-life re-steering.
	HealMoves  map[string]string
	HealRoutes map[string][]string
}

// PlayOptions configure a scenario run.
type PlayOptions struct {
	// Traffic starts/stops substrate flows per service. Off = decisions
	// only (mapping and healing still run; nothing is generated).
	Traffic bool
	// NFCPU/NFMem/LinkBW are the per-NF and per-SG-link demands.
	NFCPU  float64
	NFMem  int
	LinkBW float64
	// HealOnFault re-steers affected services through
	// core.AdmitHeal when a FaultLink event fires — the decision path of
	// Orchestrator.Heal, driven identically on every substrate.
	HealOnFault bool
	// Workers > 1 plays the trace through the parallel pipeline:
	// admission mapping and heal planning speculate concurrently on a
	// worker pool while one committer merges results in trace order,
	// falling back to the exact serial path whenever concurrent commits
	// could have changed a decision (see playParallel). Reports are
	// bit-identical to Workers<=1 for any worker count. Requires a
	// parallel-safe mapper (the default KSP mapper is; RandomMapper is
	// not). 0 or 1 = the classic single-threaded player.
	Workers int
}

// PlayReport aggregates one scenario run. All fields derive from
// substrate time and deterministic iteration, so two runs of the same
// trace on the same substrate are identical.
type PlayReport struct {
	Admitted  int
	Rejected  int
	Departed  int
	HealMoves int
	Rerouted  int
	// Traffic aggregates (zero without PlayOptions.Traffic).
	OfferedBits   float64
	DeliveredBits float64
	// Decisions by service name, for conformance comparison.
	Decisions map[string]*Decision
	// Peak concurrent services.
	PeakActive int
}

// DeliveredPct is the aggregate delivery ratio in percent.
func (r *PlayReport) DeliveredPct() float64 {
	if r.OfferedBits <= 0 {
		return 100
	}
	return r.DeliveredBits / r.OfferedBits * 100
}

// PlayScenario drives one trace through the real admission and healing
// machinery against the given substrate: Arrive → rv.AdmitAndCommit →
// StartFlow, Depart → StopFlow → rv.Release, FaultLink → substrate
// fault + view mask + AdmitHeal over the hit services. The player is
// single-threaded and iterates in trace order, so its decisions are a
// pure function of (spec, trace, mapper) — the property the conformance
// suite asserts across substrates.
func PlayScenario(sub Substrate, rv *core.ResourceView, mapper core.Mapper, events []ScenarioEvent, opts PlayOptions) (*PlayReport, error) {
	normalizePlayOptions(&opts)
	if opts.Workers > 1 {
		return playParallel(sub, rv, mapper, events, opts)
	}
	return playSerial(sub, rv, mapper, events, opts)
}

// normalizePlayOptions applies the option defaults once, so the serial
// and parallel players see identical demands.
func normalizePlayOptions(opts *PlayOptions) {
	if opts.NFCPU <= 0 {
		opts.NFCPU = 0.125
	}
	if opts.NFMem <= 0 {
		opts.NFMem = 32
	}
	if opts.LinkBW <= 0 {
		opts.LinkBW = 1e6
	}
}

// playScratch holds per-player (or per-worker) reusable buffers for the
// event hot path, so steady-state playback allocates only what it must
// retain (mappings, decisions, flow state).
type playScratch struct {
	types []string // chainGraph NF type list
	ids   []string // FlowRoute sort buffer
	names []string // healAffected work list
}

// playSerial is the classic single-threaded player.
func playSerial(sub Substrate, rv *core.ResourceView, mapper core.Mapper, events []ScenarioEvent, opts PlayOptions) (*PlayReport, error) {
	rep := &PlayReport{Decisions: map[string]*Decision{}}
	active := map[string]*core.Mapping{}
	activeRate := map[string]float64{}
	var down downLinks
	sc := &playScratch{}

	for i := range events {
		ev := &events[i]
		sub.AdvanceTo(ev.At)
		switch ev.Kind {
		case Arrive:
			g := chainGraphWith(ev, opts, sc)
			m, err := rv.AdmitAndCommit(mapper, g)
			if err != nil {
				rep.Rejected++
				continue
			}
			rep.Admitted++
			active[ev.Service] = m
			activeRate[ev.Service] = ev.Rate
			rep.Decisions[ev.Service] = &Decision{
				Service:    ev.Service,
				Placements: copyMap(m.Placements),
				Routes:     copyRoutes(m.Routes),
			}
			if len(active) > rep.PeakActive {
				rep.PeakActive = len(active)
			}
			if opts.Traffic {
				if err := sub.StartFlow(FlowSpec{
					ID: ev.Service, SrcSAP: ev.SrcSAP, DstSAP: ev.DstSAP,
					Route: flowRouteWith(m, sc), Rate: ev.Rate,
				}); err != nil {
					return nil, fmt.Errorf("substrate: starting flow %s: %w", ev.Service, err)
				}
			}
		case Depart:
			m := active[ev.Service]
			if m == nil {
				continue // arrival was rejected
			}
			if opts.Traffic {
				st, err := sub.StopFlow(ev.Service)
				if err != nil {
					return nil, err
				}
				rep.OfferedBits += st.OfferedBits
				rep.DeliveredBits += st.DeliveredBits
			}
			rv.Release(m)
			delete(active, ev.Service)
			delete(activeRate, ev.Service)
			rep.Departed++
		case FaultLink:
			if err := sub.FailLink(ev.A, ev.B); err != nil {
				return nil, err
			}
			rv.ExcludeLink(ev.A, ev.B)
			down.add(ev.A, ev.B)
			if opts.HealOnFault {
				if err := healAffected(sub, rv, active, activeRate, down, rep, opts, sc); err != nil {
					return nil, err
				}
			}
		case RepairLink:
			if err := sub.HealLink(ev.A, ev.B); err != nil {
				return nil, err
			}
			rv.UnexcludeLink(ev.A, ev.B)
			down.remove(ev.A, ev.B)
		}
	}
	return rep, nil
}

// healAffected re-steers every active service whose route crosses a down
// link, in sorted service order (determinism), through the same
// AdmitHeal path Orchestrator.Heal uses. On success the active set
// is updated to the healed mapping — the heal commit released the old
// placements and committed the new ones, so the departure-time Release
// (and the re-steered flow route) must follow the healed mapping, not
// the broken one.
func healAffected(sub Substrate, rv *core.ResourceView, active map[string]*core.Mapping, activeRate map[string]float64, down downLinks, rep *PlayReport, opts PlayOptions, sc *playScratch) error {
	names := sc.names[:0]
	for name := range active {
		names = append(names, name)
	}
	sort.Strings(names)
	sc.names = names
	for _, name := range names {
		m := active[name]
		if !routesCross(m, down) {
			continue
		}
		plan, err := rv.AdmitHeal(m, func(string) bool { return false }, down.has)
		if err != nil {
			continue // unhealable: service keeps its broken route
		}
		if plan.Empty() {
			continue
		}
		healed := m.WithPlan(plan)
		active[name] = healed
		recordHeal(rep, name, plan)
		if opts.Traffic {
			if err := resteerFlow(sub, name, healed, activeRate[name], sc); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordHeal accumulates one committed heal plan into the report.
func recordHeal(rep *PlayReport, name string, plan *core.HealPlan) {
	d := rep.Decisions[name]
	if d.HealMoves == nil {
		d.HealMoves = map[string]string{}
		d.HealRoutes = map[string][]string{}
	}
	for nf, ee := range plan.Moved {
		d.HealMoves[nf] = ee
		rep.HealMoves++
	}
	for id, route := range plan.Routes {
		d.HealRoutes[id] = append([]string(nil), route...)
		rep.Rerouted++
	}
}

// resteerFlow moves a service's substrate flow onto its healed route.
// The old flow's stats are discarded: re-steering is a route change, not
// a departure.
func resteerFlow(sub Substrate, name string, healed *core.Mapping, rate float64, sc *playScratch) error {
	if _, err := sub.StopFlow(name); err != nil {
		return nil // no flow to move (e.g. started before Traffic toggled)
	}
	src, dst := flowEndpoints(healed)
	return sub.StartFlow(FlowSpec{
		ID: name, SrcSAP: src, DstSAP: dst,
		Route: flowRouteWith(healed, sc), Rate: rate,
	})
}

// chainGraphWith builds the service graph for one arrival: a linear
// chain of monitor NFs between the event's SAP pair with explicit
// demands. The scratch's type buffer is reused across events
// (NewChainGraph does not retain it).
func chainGraphWith(ev *ScenarioEvent, opts PlayOptions, sc *playScratch) *sg.Graph {
	types := sc.types[:0]
	for i := 0; i < ev.ChainLen; i++ {
		types = append(types, "monitor")
	}
	sc.types = types
	g := sg.NewChainGraph(ev.Service, types...)
	for _, nf := range g.NFs {
		nf.CPU = opts.NFCPU
		nf.Mem = opts.NFMem
	}
	for _, l := range g.Links {
		l.Bandwidth = opts.LinkBW
	}
	g.SAPs[0].ID = ev.SrcSAP
	g.SAPs[1].ID = ev.DstSAP
	g.Links[0].Src.Node = ev.SrcSAP
	g.Links[len(g.Links)-1].Dst.Node = ev.DstSAP
	return g
}

// FlowRoute flattens a mapping's per-SG-link routes into one switch path
// in chain-link order, compressing duplicate junction switches.
func FlowRoute(m *core.Mapping) []string {
	return flowRouteWith(m, &playScratch{})
}

// flowRouteWith is FlowRoute with a reusable sort buffer. The returned
// route is freshly allocated once, at its largest size (substrates retain
// it in the flow spec); only the id scratch is recycled.
func flowRouteWith(m *core.Mapping, sc *playScratch) []string {
	ids := sc.ids[:0]
	n := 0
	for id, route := range m.Routes {
		ids = append(ids, id)
		n += len(route)
	}
	sort.Strings(ids)
	sc.ids = ids
	out := make([]string, 0, n)
	for _, id := range ids {
		for _, sw := range m.Routes[id] {
			if len(out) > 0 && out[len(out)-1] == sw {
				continue
			}
			out = append(out, sw)
		}
	}
	return out
}

// flowEndpoints recovers the SAP pair of a chain mapping.
func flowEndpoints(m *core.Mapping) (src, dst string) {
	return m.Graph.SAPs[0].ID, m.Graph.SAPs[1].ID
}

// downLinks is the links a player has seen fail and not yet repaired,
// as normalized switch-name pairs. Only a handful are down at a time, so
// checking a hop compares names against the list instead of hashing
// them.
type downLinks [][2]string

func (d *downLinks) add(a, b string) {
	if k := linkKeyOf(a, b); !slices.Contains(*d, k) {
		*d = append(*d, k)
	}
}

// remove drops a repaired link. It builds a new list, so a plan still
// holding the old one reads it unchanged.
func (d *downLinks) remove(a, b string) {
	k := linkKeyOf(a, b)
	*d = slices.DeleteFunc(slices.Clone(*d), func(x [2]string) bool { return x == k })
}

// has reports whether the link between a and b is down: the players'
// linkDown predicate for AdmitHeal and PlanHeal.
func (d downLinks) has(a, b string) bool {
	for _, k := range d {
		if k[0] == a && k[1] == b || k[0] == b && k[1] == a {
			return true
		}
	}
	return false
}

// routesCross reports whether any route hop of the mapping crosses a
// down link.
func routesCross(m *core.Mapping, down downLinks) bool {
	if len(down) == 0 {
		return false
	}
	for _, route := range m.Routes {
		for i := 1; i < len(route); i++ {
			if down.has(route[i-1], route[i]) {
				return true
			}
		}
	}
	return false
}

func linkKeyOf(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyRoutes(m map[string][]string) map[string][]string {
	out := make(map[string][]string, len(m))
	for k, v := range m {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// DefaultMapper is the mapper scenario runs use unless overridden: KSP
// with the default catalog, the orchestrator's default algorithm.
func DefaultMapper() core.Mapper {
	return &core.KSPMapper{Catalog: catalog.Default()}
}
