package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"escape/internal/core"
	"escape/internal/flowsim"
	"escape/internal/openflow"
	"escape/internal/sg"
	"escape/internal/substrate"
)

// admit_scale: a fixed trace of service arrivals, departures and backbone
// faults replayed through substrate.PlayScenario on the flow-level
// simulator, sized so that contention is real (rejects, re-routes, links
// near capacity). Only core and flowsim work; api, NETCONF, steering,
// Click and netem do nothing.
const (
	admitRegions       = 16
	admitSwitches      = 64 // per region
	admitSAPs          = 6  // per region
	admitEEs           = 4  // per region
	admitChainLen      = 3
	admitHorizon       = time.Hour
	admitLifetime      = 15 * time.Minute
	admitFaults        = 8
	admitFaultHold     = 3 * time.Minute
	admitPairPool      = 4096
	admitFlowRate      = 1e6
	admitArrivalsPerS  = 500 // generated arrivals per second of --seconds: 10 000 at 20 s
	admitReplays       = 3   // an untraced run plays the trace this often with each player
	admitBlock         = 256 // events per block of the replays' lower envelope
	admitRefArrivals   = 30000
	admitRefBackboneBW = 3e9   // at admitRefArrivals; scaled with the trace
	admitRefRegionBW   = 1.5e9 // at admitRefArrivals
	// admitStructureSeed seeds GenerateWorkload and WithLinkFaults. Which
	// SAP pairs are hot and which backbone links fail decides how many
	// costly rejects and heals a trace holds: across structure seeds
	// events/s spreads by 15–25 %, far beyond any regression bound. The
	// structure therefore stays put, and --seed drops admitThin of the
	// generated services, which changes every admitted/rejected count but
	// not the cost profile.
	admitStructureSeed = 1
	admitThin          = 0.10
)

// Seed 1 is the default; seed 2 is the hold-out, for checking that a
// change tuned on seed 1 holds elsewhere (README.md).
//
// admitExpected pins both seeds' decisions at the size a 20-second run
// uses (10 000 generated arrivals): drift in any of them is a correctness
// failure, not a speed change.
var admitExpected = map[admitKey]admitCounts{
	{1, 10000}: {7885, 1125, 1737},
	{2, 10000}: {7897, 1140, 1749},
}

type admitKey struct {
	seed      int64
	generated int
}

type admitCounts struct{ admitted, rejected, rerouted int }

// admitInput is the generated input: topology and trace.
type admitInput struct {
	spec     *substrate.TopoSpec
	events   []substrate.ScenarioEvent
	arrivals int // after thinning
}

func buildAdmitInput(generated int, seed int64) admitInput {
	scale := float64(generated) / admitRefArrivals
	spec := substrate.ScaleSpec(substrate.ScaleParams{
		Regions: admitRegions, SwitchesPerRegion: admitSwitches,
		SAPsPerRegion: admitSAPs, EEsPerRegion: admitEEs,
		BackboneBW: admitRefBackboneBW * scale, RegionBW: admitRefRegionBW * scale, AccessBW: 100e9,
		// Half of what all generated services together would need.
		EECPU: float64(generated*admitChainLen) * playNFCPU / 2 / (admitRegions * admitEEs),
		EEMem: 1 << 30,
	})
	all := substrate.GenerateWorkload(substrate.WorkloadParams{
		Seed: admitStructureSeed, Process: substrate.Diurnal, Services: generated,
		Horizon: admitHorizon, MeanLifetime: admitLifetime, ChainLen: admitChainLen,
		Rate: admitFlowRate, SAPs: spec.SAPNames(), PairPool: admitPairPool,
	})
	rng := rand.New(rand.NewSource(seed))
	dropped := map[string]bool{}
	events := make([]substrate.ScenarioEvent, 0, len(all))
	arrivals := 0
	for _, ev := range all { // sorted by time: an arrival precedes its departure
		if ev.Kind == substrate.Arrive {
			if rng.Float64() < admitThin {
				dropped[ev.Service] = true
			} else {
				arrivals++
			}
		}
		if !dropped[ev.Service] {
			events = append(events, ev)
		}
	}
	// The backbone ring is the first admitRegions links of the spec.
	events = substrate.WithLinkFaults(events, spec.Links[:admitRegions], admitFaults,
		admitStructureSeed+1, admitHorizon, admitFaultHold)
	return admitInput{spec: spec, events: events, arrivals: arrivals}
}

// freshSim is a started simulator and its resource view.
func freshSim(spec *substrate.TopoSpec) (*flowsim.Sim, *core.ResourceView, error) {
	sim, err := flowsim.New(spec, flowsim.Options{})
	if err != nil {
		return nil, nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, nil, err
	}
	rv, err := sim.View()
	if err != nil {
		sim.Stop()
		return nil, nil, err
	}
	return sim, rv, nil
}

var admitPlayOptions = substrate.PlayOptions{Traffic: true, HealOnFault: true, LinkBW: playLinkBW}

// stampedSim notes when the player starts each event: both of
// PlayScenario's players call AdvanceTo exactly once per event, in trace
// order, before they handle it, so the gaps between the stamps are the
// events' handling times — taken at the public boundary, for the price of
// one clock reading per event. (The parallel player's workers speculate
// ahead of the stamps; its gaps are what the committer spent per event.)
type stampedSim struct {
	*flowsim.Sim
	at []time.Time
}

func (s *stampedSim) AdvanceTo(t time.Duration) {
	s.at = append(s.at, time.Now())
	s.Sim.AdvanceTo(t)
}

// admitPlay is one PlayScenario call on a fresh simulator.
type admitPlay struct {
	rep     *substrate.PlayReport
	wall    time.Duration
	eventUS []float64 // handling time per event, µs; nil if the player did not stamp every event
	maxUtil float64
}

// playOnce plays the trace on a simulator and view nothing was played on
// yet, and stops the simulator.
func playOnce(sim *flowsim.Sim, rv *core.ResourceView, in admitInput, workers int) (*admitPlay, error) {
	defer sim.Stop()
	st := &stampedSim{Sim: sim, at: make([]time.Time, 0, len(in.events)+1)}
	opts := admitPlayOptions
	opts.Workers = workers
	t0 := time.Now()
	rep, err := substrate.PlayScenario(st, rv, substrate.DefaultMapper(), in.events, opts)
	if err != nil {
		return nil, err
	}
	p := &admitPlay{rep: rep, wall: time.Since(t0), maxUtil: sim.Report().MaxUtilization}
	if len(st.at) == len(in.events) {
		st.at = append(st.at, t0.Add(p.wall))
		p.eventUS = make([]float64, len(in.events))
		for i := range in.events {
			p.eventUS[i] = micros(st.at[i+1].Sub(st.at[i]))
		}
	}
	return p, nil
}

// envelopeUS is the time the trace takes where no replay was disturbed: the
// events are cut into blocks of admitBlock, each block costs what the
// fastest of the replays spent on its events (or on its arrivals only), and
// the blocks are summed.
//
// Every replay does exactly the same work, block by block, so the replays
// differ only in what else the machine did meanwhile — and on this kind of
// box that is a lot: one thread's speed moves by a quarter, two threads' by
// half, for seconds at a time (chain.go has the numbers). One play's wall
// time then reads 3 200 or 4 150 events/s depending on the half hour. A block
// is some 60 ms, short enough that one of three replays usually got through
// it undisturbed.
func envelopeUS(plays []*admitPlay, events []substrate.ScenarioEvent, arrivalsOnly bool) float64 {
	total := 0.0
	for lo := 0; lo < len(events); lo += admitBlock {
		hi := min(lo+admitBlock, len(events))
		best := math.Inf(1)
		for _, p := range plays {
			sum := 0.0
			for i := lo; i < hi; i++ {
				if !arrivalsOnly || events[i].Kind == substrate.Arrive {
					sum += p.eventUS[i]
				}
			}
			best = min(best, sum)
		}
		total += best
	}
	return total
}

func runAdmitScale(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	generated := max(int(math.Round(admitArrivalsPerS*cfg.seconds)), 100)
	// A traced run plays the trace once with each player and once through
	// its own loop; an untraced one admitReplays times with each player.
	replays := admitReplays
	if cfg.trace {
		replays = 1
	}
	o.params = map[string]any{
		"regions": admitRegions, "switches_per_region": admitSwitches, "generated_arrivals": generated,
		"thin_share": admitThin, "chain_len": admitChainLen, "par_workers": nproc(), "replays": replays,
		"faults": admitFaults, "horizon_s": admitHorizon.Seconds(), "lifetime_s": admitLifetime.Seconds(),
	}

	// The same trace with Workers: 1 and with Workers: nproc, turn and turn
	// about, every play after a full set-up of its own — spec, trace,
	// simulator, view — which is timed: a set-up takes some 15 ms, and that
	// many of them in a row would all be fast or all be slow with the
	// machine; spread over the run their median is steadier. Every play must
	// decide exactly what the first decided.
	var in admitInput
	var setups sample
	setUp := func() (*flowsim.Sim, *core.ResourceView, error) {
		runtime.GC() // every set-up starts as the first does, without the previous play's garbage
		t0 := time.Now()
		if len(setups) == 0 {
			t0 = processStart
		}
		in = buildAdmitInput(generated, cfg.seed)
		sim, rv, err := freshSim(in.spec)
		setups = append(setups, time.Since(t0).Seconds())
		return sim, rv, err
	}
	var mem *memMark
	var allocs, bytes float64
	var gcPause time.Duration
	var serials, pars []*admitPlay
	for r := 0; r < replays; r++ {
		for _, workers := range []int{1, nproc()} {
			sim, rv, err := setUp()
			if err != nil {
				return nil, err
			}
			if mem == nil {
				mem = markMem()
			}
			p, err := playOnce(sim, rv, in, workers)
			if err != nil {
				return nil, err
			}
			o.check(p.eventUS != nil, "the player with %d workers did not stamp every event", workers)
			if workers == 1 {
				serials = append(serials, p)
			} else {
				pars = append(pars, p)
			}
			if r == 0 && workers == 1 {
				allocs, bytes, gcPause = mem.since()
			}
			o.check(p.rep.Equal(serials[0].rep), "replay %d with %d workers decided differently from the first serial play", r, workers)
			if p != serials[0] {
				p.rep = nil // compared; let go of it before the next play
			}
		}
	}
	o.attempted = len(in.events)
	if len(o.checks) > 0 {
		return o, nil // no timing to report
	}
	serial := serials[0]
	rep := serial.rep
	o.check(rep.Admitted+rep.Rejected == in.arrivals, "admitted %d + rejected %d != arrivals %d", rep.Admitted, rep.Rejected, in.arrivals)
	if want, ok := admitExpected[admitKey{cfg.seed, generated}]; ok {
		got := admitCounts{rep.Admitted, rep.Rejected, rep.Rerouted}
		o.check(got == want, "decisions drifted: admitted/rejected/re-routed %v, pinned %v", got, want)
	}
	var arrive sample // the first serial play's handling time per arrival
	for i, ev := range in.events {
		if ev.Kind == substrate.Arrive {
			arrive = append(arrive, serial.eventUS[i])
		}
	}
	evPerS := float64(len(in.events)) / (envelopeUS(serials, in.events, false) / 1e6)
	parPerS := float64(len(in.events)) / (envelopeUS(pars, in.events, false) / 1e6)
	o.note("events", float64(len(in.events)), "count")
	o.note("arrivals", float64(in.arrivals), "count")
	o.note("admitted", float64(rep.Admitted), "count")
	o.note("rejected", float64(rep.Rejected), "count")
	o.note("rerouted", float64(rep.Rerouted), "count")
	o.note("peak_active", float64(rep.PeakActive), "count")
	o.note("max_util", serial.maxUtil, "ratio")
	o.issue["play_events_per_s"] = evPerS
	o.issue["play_par_events_per_s"] = parPerS
	o.note("arrival_p50_us", arrive.median(), "us")
	o.note("arrival_p99_us", arrive.quantile(0.99), "us")
	for r := range serials {
		o.note(fmt.Sprintf("replay %d wall, Workers 1", r), serials[r].wall.Seconds(), "s")
		o.note(fmt.Sprintf("replay %d wall, Workers %d", r, nproc()), pars[r].wall.Seconds(), "s")
	}
	if !cfg.trace {
		o.set("setup_s", setups.median())
		o.set("ops_per_s", evPerS)
		o.set("op_mean_us", share(envelopeUS(serials, in.events, true), float64(in.arrivals)))
		o.set("op2_mean_us", 1e6/parPerS)
		return o, nil
	}
	par := pars[0]

	// Traced: the benchmark's own copy of the serial player's loop over
	// the same public calls, with a span around each. Its report must agree
	// with the other two.
	sim, rv, err := setUp()
	if err != nil {
		return nil, err
	}
	defer sim.Stop()
	o.tr = newTracer(time.Now())
	t0 := time.Now()
	traced, err := tracedPlay(sim, rv, in.events, o.tr)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	o.check(traced.Equal(rep), "the traced loop's report differs from PlayScenario's")
	if err := runProbes(o, cfg, 64, nil, openflow.PacketFields{}); err != nil {
		return nil, err
	}
	wallUS := micros(tracedWall)
	self := o.tr.layerTimes()
	spanned := 0.0
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := self[name]
		if name == "substrate.player" {
			continue
		}
		spanned += s.sum()
		o.set(name+"_share", share(s.sum(), wallUS))
		o.note(name+" p50", s.median(), "us")
		o.note(name+" p99", s.quantile(0.99), "us")
		o.note(name+" n", float64(len(s)), "count")
	}
	o.set("substrate.player_residual_share", 1-share(spanned, wallUS))
	o.set("substrate.par_speedup", share(serial.wall.Seconds(), par.wall.Seconds()))
	pc := rv.PathCacheStats()
	o.set("core.pathcache_hit_share", share(float64(pc.Hits), float64(pc.Hits+pc.Misses)))
	o.set("core.admit_conflicts", float64(rv.AdmissionStats().Conflicts))
	o.set("core.reject_share", share(float64(rep.Rejected), float64(in.arrivals)))
	o.set("core.rerouted", float64(rep.Rerouted))
	o.set("flowsim.max_util", serial.maxUtil)
	o.set("flowsim.delivered_pct", rep.DeliveredPct())
	o.setRuntime(allocs, bytes, gcPause, len(in.events))
	o.set("bench.trace_overhead_share", share(tracedWall.Seconds(), serial.wall.Seconds())-1)
	o.set("bench.op_p50_us", arrive.median())
	o.set("bench.op_p99_us", arrive.quantile(0.99))
	o.note("par_speedup base: Workers 1 wall", serial.wall.Seconds(), "s")
	return o, nil
}

// tracedPlay is the serial scenario player's loop (substrate.playSerial
// with Traffic and HealOnFault) written against the same public calls,
// with a span around every call into core, flowsim and sg. What remains
// of an event's root span is the player's own bookkeeping.
func tracedPlay(sim *flowsim.Sim, rv *core.ResourceView, events []substrate.ScenarioEvent, tr *tracer) (*substrate.PlayReport, error) {
	mapper := substrate.DefaultMapper()
	rep := &substrate.PlayReport{Decisions: map[string]*substrate.Decision{}}
	active := map[string]*core.Mapping{}
	activeRate := map[string]float64{}
	downLinks := map[[2]string]bool{}
	linkDown := func(a, b string) bool { return downLinks[linkKey(a, b)] }
	call := func(name string, op, root int, f func()) {
		sp := tr.begin(name, op, root)
		f()
		tr.end(sp)
	}
	startFlow := func(op, root int, name string, m *core.Mapping, rate float64) error {
		var err error
		call("flowsim.start_flow", op, root, func() {
			err = sim.StartFlow(substrate.FlowSpec{
				ID: name, SrcSAP: m.Graph.SAPs[0].ID, DstSAP: m.Graph.SAPs[1].ID,
				Route: substrate.FlowRoute(m), Rate: rate,
			})
		})
		return err
	}

	for i := range events {
		ev := &events[i]
		root := tr.begin("substrate.player", i, -1)
		call("flowsim.advance", i, root, func() { sim.AdvanceTo(ev.At) })
		switch ev.Kind {
		case substrate.Arrive:
			var m *core.Mapping
			var err error
			var g *sg.Graph
			call("sg.chain_build", i, root, func() { g = chainGraph(ev.Service, ev.SrcSAP, ev.DstSAP, ev.ChainLen) })
			sp := tr.begin("core.admit_ok", i, root)
			m, err = rv.AdmitAndCommit(mapper, g)
			tr.end(sp)
			if err != nil {
				tr.rename(sp, "core.admit_reject")
				rep.Rejected++
				break
			}
			rep.Admitted++
			active[ev.Service] = m
			activeRate[ev.Service] = ev.Rate
			d := &substrate.Decision{Service: ev.Service, Placements: map[string]string{}, Routes: map[string][]string{}}
			for k, v := range m.Placements {
				d.Placements[k] = v
			}
			for k, v := range m.Routes {
				d.Routes[k] = append([]string(nil), v...)
			}
			rep.Decisions[ev.Service] = d
			rep.PeakActive = max(rep.PeakActive, len(active))
			if err := startFlow(i, root, ev.Service, m, ev.Rate); err != nil {
				return nil, fmt.Errorf("starting flow %s: %w", ev.Service, err)
			}
		case substrate.Depart:
			m := active[ev.Service]
			if m == nil {
				break // the arrival was rejected
			}
			var st substrate.FlowStats
			var err error
			call("flowsim.stop_flow", i, root, func() { st, err = sim.StopFlow(ev.Service) })
			if err != nil {
				return nil, err
			}
			rep.OfferedBits += st.OfferedBits
			rep.DeliveredBits += st.DeliveredBits
			call("core.release", i, root, func() { rv.Release(m) })
			delete(active, ev.Service)
			delete(activeRate, ev.Service)
			rep.Departed++
		case substrate.FaultLink:
			var err error
			call("flowsim.fault", i, root, func() { err = sim.FailLink(ev.A, ev.B) })
			if err != nil {
				return nil, err
			}
			call("core.mask", i, root, func() { rv.ExcludeLink(ev.A, ev.B) })
			downLinks[linkKey(ev.A, ev.B)] = true
			// Heal every active service whose route crosses a down link,
			// in sorted order, as the player does.
			names := make([]string, 0, len(active))
			for name := range active {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := active[name]
				if !crosses(m, linkDown) {
					continue
				}
				var plan *core.HealPlan
				call("core.heal", i, root, func() {
					plan, err = rv.AdmitHeal(m, func(string) bool { return false }, linkDown)
				})
				if err != nil || plan.Empty() {
					continue // unhealable services keep their broken route
				}
				healed := m.WithPlan(plan)
				active[name] = healed
				d := rep.Decisions[name]
				if d.HealMoves == nil {
					d.HealMoves, d.HealRoutes = map[string]string{}, map[string][]string{}
				}
				for nf, ee := range plan.Moved {
					d.HealMoves[nf] = ee
					rep.HealMoves++
				}
				for id, route := range plan.Routes {
					d.HealRoutes[id] = append([]string(nil), route...)
					rep.Rerouted++
				}
				stopped := false
				call("flowsim.stop_flow", i, root, func() { _, err := sim.StopFlow(name); stopped = err == nil })
				if stopped {
					if err := startFlow(i, root, name, healed, activeRate[name]); err != nil {
						return nil, err
					}
				}
			}
		case substrate.RepairLink:
			var err error
			call("flowsim.fault", i, root, func() { err = sim.HealLink(ev.A, ev.B) })
			if err != nil {
				return nil, err
			}
			call("core.mask", i, root, func() { rv.UnexcludeLink(ev.A, ev.B) })
			delete(downLinks, linkKey(ev.A, ev.B))
		}
		tr.end(root)
	}
	return rep, nil
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func crosses(m *core.Mapping, linkDown func(a, b string) bool) bool {
	for _, route := range m.Routes {
		for i := 1; i < len(route); i++ {
			if linkDown(route[i-1], route[i]) {
				return true
			}
		}
	}
	return false
}

// chainGraph builds the graph substrate.PlayScenario builds for one
// arrival: a chain of monitors between two SAPs with the player's default
// demands.
func chainGraph(name, src, dst string, chainLen int) *sg.Graph {
	types := make([]string, chainLen)
	for i := range types {
		types[i] = "monitor"
	}
	g := sg.NewChainGraph(name, types...)
	for _, nf := range g.NFs {
		nf.CPU, nf.Mem = playNFCPU, playNFMem
	}
	for _, l := range g.Links {
		l.Bandwidth = playLinkBW
	}
	bindSAPs(g, src, dst)
	return g
}

// The demands substrate.PlayOptions defaults to, stated so the traced
// copy of the player's loop builds the same graphs.
const (
	playNFCPU  = 0.125
	playNFMem  = 32
	playLinkBW = 1e6
)
