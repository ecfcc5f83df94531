package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/ofswitch"
	"escape/internal/openflow"
	"escape/internal/sg"
)

// chainSpec fixes one packet workload.
type chainSpec struct {
	switches   int
	eeCPU      float64
	pairs      int
	nfs        []sg.NF // the chain every pair gets, in order
	frameLen   int
	latWindow  int // frames in flight per pair, phase lat
	loadWindow int // frames in flight per pair, phase load
}

const (
	flowsPerPair = 16
	maxPairs     = 4 // pump selects over this many receive channels
)

// chain64B: the smallest frame through four monitors on two switches, so
// per-packet cost in click, ofswitch, netem and pkt dominates.
var chain64B = chainSpec{
	switches: 2, eeCPU: 8, pairs: 1,
	nfs:      []sg.NF{{Type: "monitor"}, {Type: "monitor"}, {Type: "monitor"}, {Type: "monitor"}},
	frameLen: 64, latWindow: 1, loadWindow: 256,
}

// chainsMixed1400B: four firewall → dpi → monitor services at once over a
// four-switch line with 1-CPU EEs, so the mapper spreads the NFs; large
// frames, rule-evaluating elements, 4× the flow entries.
var chainsMixed1400B = chainSpec{
	switches: 4, eeCPU: 1, pairs: 4,
	nfs: []sg.NF{
		{Type: "firewall", Params: map[string]string{"RULES": firewallRules()}},
		{Type: "dpi", Params: map[string]string{"SIGNATURE": "attack", "DROP": "false"}},
		{Type: "monitor"},
	},
	frameLen: 1400, latWindow: 1, loadWindow: 64,
}

// firewallRules is 15 denies that match nothing the benchmark sends, then
// allow-all: every frame is evaluated against all 16 rules.
func firewallRules() string {
	rules := ""
	for i := 1; i <= 15; i++ {
		rules += fmt.Sprintf("deny src host 10.250.0.%d, ", i)
	}
	return rules + "allow -"
}

// chainGraph is the service graph of pair i: spec.nfs between its hosts.
func (cs chainSpec) chainGraph(i int) *sg.Graph {
	types := make([]string, len(cs.nfs))
	for k, nf := range cs.nfs {
		types[k] = nf.Type
	}
	g := sg.NewChainGraph(fmt.Sprintf("chain%d", i), types...)
	for k, nf := range cs.nfs {
		g.NFs[k].Params = nf.Params
	}
	bindSAPs(g, fmt.Sprintf("h%da", i), fmt.Sprintf("h%db", i))
	return g
}

// bindSAPs points a NewChainGraph's two SAPs at host names.
func bindSAPs(g *sg.Graph, src, dst string) {
	g.SAPs[0].ID, g.SAPs[1].ID = src, dst
	g.Links[0].Src.Node = src
	g.Links[len(g.Links)-1].Dst.Node = dst
}

// flowPair is one host pair's traffic: a ring of pre-built frames, the
// closed-loop window state and the delivery record.
type flowPair struct {
	src, dst *netem.Host
	rx       <-chan netem.RxFrame
	ring     [][]byte    // frame for sequence s is ring[s%len(ring)]
	sentAt   []time.Time // parallel to ring
	next     uint64      // next sequence number to send
	acked    uint64      // lowest sequence number not yet accounted for
	total    uint64      // frames delivered over the pair's lifetime
}

func (p *flowPair) inflight() int { return int(p.next - p.acked) }

// renew gives the pair fresh frame buffers. After a loss a frame written
// off may still sit in a queue on the path — netem hands the slice through
// without copying — so its buffer must not be rewritten for a later send.
func (p *flowPair) renew() {
	for i, f := range p.ring {
		p.ring[i] = append([]byte(nil), f...)
	}
}

// newFlowPair builds the ring: flowsPerPair UDP flows whose source ports
// come from the seed, enough slots that a frame buffer is reused only
// after its previous use was delivered.
func newFlowPair(env *core.Environment, i int, cs chainSpec, rng *rand.Rand) (*flowPair, error) {
	p := &flowPair{src: env.Host(fmt.Sprintf("h%da", i)), dst: env.Host(fmt.Sprintf("h%db", i))}
	p.rx = p.dst.Recv()
	slots := max(cs.loadWindow, cs.latWindow, flowsPerPair)
	slots += (flowsPerPair - slots%flowsPerPair) % flowsPerPair
	ports := make([]uint16, flowsPerPair)
	for k := range ports {
		ports[k] = uint16(1024 + rng.Intn(60000))
	}
	for s := 0; s < slots; s++ {
		f, err := hostFrame(p.src, p.dst, ports[s%flowsPerPair], cs.frameLen, nil)
		if err != nil {
			return nil, err
		}
		p.ring = append(p.ring, f)
	}
	p.sentAt = make([]time.Time, slots)
	return p, nil
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	dur       time.Duration
	sent      uint64
	delivered uint64        // within the phase
	lost      uint64        // detected within the phase or its drain
	perPair   []uint64      // delivered within the phase, by pair
	rttUS     sample        // one per delivered frame when recorded
	rttSum    time.Duration // over the delivered frames
	idle      time.Duration
	sending   time.Duration
}

// lossTimeout is how long a full window may stay silent before the frames
// in flight are declared lost. Every queue on the path is deeper than the
// window, so expected loss is zero and a lost frame is a failed operation.
const lossTimeout = time.Second

// pump runs one closed-loop phase from a single goroutine: each pair is
// topped up to window frames in flight round-robin, then deliveries are
// collected; when nothing is deliverable it blocks until something is.
// recordRTT keeps a latency sample per frame. With a tracer every send
// burst and every blocked wait becomes a span.
func pump(pairs []*flowPair, window int, dur time.Duration, recordRTT bool, tr *tracer) phaseResult {
	res := phaseResult{perPair: make([]uint64, len(pairs))}
	var rx [maxPairs]<-chan netem.RxFrame // nil channels never fire
	for i, p := range pairs {
		rx[i] = p.rx
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	measuring := true
	handle := func(i int, f netem.RxFrame, now time.Time) {
		p := pairs[i]
		if len(f.Frame) != len(p.ring[0]) {
			res.lost++ // not one of ours in shape: count it, it displaced one
			return
		}
		seq := getSeq(f.Frame)
		if seq < p.acked || seq >= p.next {
			res.lost++
			return
		}
		if gap := seq - p.acked; gap > 0 {
			res.lost += gap
			p.renew()
		}
		p.acked = seq + 1
		p.total++
		if measuring {
			res.delivered++
			res.perPair[i]++
			rtt := now.Sub(p.sentAt[seq%uint64(len(p.ring))])
			res.rttSum += rtt
			if recordRTT {
				res.rttUS = append(res.rttUS, micros(rtt))
			}
		}
	}
	drain := func() bool {
		got := false
		for i, p := range pairs {
			for more := true; more; {
				select {
				case f := <-p.rx:
					handle(i, f, time.Now())
					got = true
				default:
					more = false
				}
			}
		}
		return got
	}
	wait := func() bool {
		t0 := time.Now()
		sp := -1
		if tr != nil {
			sp = tr.begin("bench.gen_wait", 0, -1)
		}
		timer.Reset(lossTimeout)
		ok := true
		select {
		case f := <-rx[0]:
			handle(0, f, time.Now())
		case f := <-rx[1]:
			handle(1, f, time.Now())
		case f := <-rx[2]:
			handle(2, f, time.Now())
		case f := <-rx[3]:
			handle(3, f, time.Now())
		case <-timer.C:
			ok = false
		}
		if tr != nil {
			tr.end(sp)
		}
		if measuring {
			res.idle += time.Since(t0)
		}
		return ok
	}
	giveUp := func() {
		for _, p := range pairs {
			if n := uint64(p.inflight()); n > 0 {
				res.lost += n
				p.acked = p.next
				p.renew()
			}
		}
	}

	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		sp, burst := -1, 0
		for _, p := range pairs {
			for p.inflight() < window {
				slot := p.next % uint64(len(p.ring))
				putSeq(p.ring[slot], p.next)
				p.sentAt[slot] = time.Now()
				if tr != nil && sp < 0 {
					sp = tr.begin("netem.host_send", 0, -1)
				}
				_ = p.src.Send(p.ring[slot]) // a host without ports cannot occur here
				p.next++
				burst++
			}
		}
		if burst > 0 {
			if sp >= 0 {
				tr.end(sp)
			}
			res.sent += uint64(burst)
			res.sending += time.Since(t0)
		}
		if !drain() && !wait() {
			giveUp()
		}
	}
	res.dur = time.Since(start)
	// Collect what is still in flight, outside the measured interval, so
	// the next phase starts empty and the NF counters can be checked.
	measuring = false
	for anyInflight(pairs) {
		if !drain() && !wait() {
			giveUp()
		}
	}
	return res
}

func anyInflight(pairs []*flowPair) bool {
	for _, p := range pairs {
		if p.inflight() > 0 {
			return true
		}
	}
	return false
}

// chainStack is a running environment with its chains deployed and its
// traffic state.
type chainStack struct {
	env      *core.Environment
	pktIn    *packetInCounter
	services []*core.Service
	pairs    []*flowPair
}

// startChainStack builds the environment, deploys one service per pair
// and warms the path up.
func startChainStack(cs chainSpec, seed int64, warm time.Duration) (*chainStack, error) {
	env, err := core.StartEnvironment(lineTopo(cs.switches, cs.pairs, cs.eeCPU, 4096))
	if err != nil {
		return nil, err
	}
	st := &chainStack{env: env, pktIn: &packetInCounter{}, services: make([]*core.Service, cs.pairs)}
	env.Ctrl.Register(st.pktIn)
	// One after the other, not concurrently: racing deploys see different
	// free capacity from run to run, the mapper then places the chains
	// differently, and the round trip — which depends on how many switches
	// a chain crosses — flips between two values (1.3 and 1.7 ms measured).
	for i := 0; i < cs.pairs; i++ {
		if st.services[i], err = env.Orch.Deploy(cs.chainGraph(i)); err != nil {
			env.Close()
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < cs.pairs; i++ {
		p, err := newFlowPair(env, i, cs, rng)
		if err != nil {
			env.Close()
			return nil, err
		}
		st.pairs = append(st.pairs, p)
	}
	pump(st.pairs, cs.latWindow, warm, false, nil)
	return st, nil
}

// close tears the environment down and lets go of it. Closing twice, or
// closing a stack that was never started, is harmless.
func (st *chainStack) close() {
	if st != nil && st.env != nil {
		st.env.Close()
		*st = chainStack{}
	}
}

// checkCounters compares what every NF counted with what its pair was
// sent: after a drained phase they agree exactly unless frames were lost.
func (st *chainStack) checkCounters(cs chainSpec, o *outcome) {
	handler := map[string]string{"monitor": "cnt.count", "firewall": "fw.passed", "dpi": "dpi.total"}
	for i, svc := range st.services {
		p := st.pairs[i]
		for id, dep := range svc.NFs {
			r := st.env.Net.Node(dep.EE).(*netem.EE).VNF(dep.VNFID).Router()
			v, err := r.ReadHandler(handler[dep.NF.Type])
			n, _ := strconv.ParseUint(v, 10, 64)
			diff := int64(n) - int64(p.total)
			o.check(err == nil && diff >= -int64(cs.loadWindow) && diff <= int64(cs.loadWindow),
				"%s/%s %s = %s, pair delivered %d", svc.Name, id, handler[dep.NF.Type], v, p.total)
		}
	}
}

// busiestTable returns the entries of the switch with the longest table.
func (st *chainStack) busiestTable() (string, []ofswitch.FlowEntry) {
	name, best := "", -1
	for sw, n := range tableLens(st.env) {
		if n > best || (n == best && sw < name) {
			name, best = sw, n
		}
	}
	return name, st.env.Net.Node(name).(*netem.SwitchNode).Switch().Table().Entries()
}

// pathHops counts what one frame of pair 0 crosses: switch traversals
// (one per hop of every SG link's route), link crossings and VNFs.
func (st *chainStack) pathHops() (switchHops, links, vnfs int) {
	for _, route := range st.services[0].Routes() {
		switchHops += len(route)
		links += len(route) + 1 // into the first switch, between switches, out of the last
	}
	return switchHops, links, len(st.services[0].NFs)
}

// chainPass is one lat + load measurement on a running stack.
type chainPass struct {
	lat, load             phaseResult // all rounds together
	latMeans, loadRates   sample      // per round: mean round trip (µs), frames delivered per second
	loadMeans             sample      // per round: mean round trip at the load window (µs)
	allocs, bytes         float64
	gcPause               time.Duration
	pktIns                uint64
	queueDrops, linkDrops uint64
}

// chainRounds is how many times a pass alternates phase lat and phase
// load: one round per roundSeconds, at least minRounds, at most maxRounds.
//
// At one frame in flight the round trip is a sum of the idle Click drivers'
// timer sleeps and comes in steps of about a millisecond; which steps
// dominate drifts with scheduler state and shifts after every load burst, so
// one long lat phase reads differently from run to run. Many short ones
// average over those states, and the median round's mean is reported.
//
// Phase load keeps both cores busy, and on a virtual machine what two busy
// threads get varies by a factor of up to two within seconds (two hashing
// threads on this box: 2 × 1 300 MB/s, or 2 × 700 MB/s a moment later, as
// if the host had put them on one physical core); load phases of one run
// then read anywhere between 50 and 120 kpps. What the program can do shows
// in its undisturbed rounds, so the rate reported is the best decile's edge
// (the 90th percentile of the rounds' rates, the 10th of their round
// trips), the reading that stays put while the share of disturbed rounds
// changes.
func chainRounds(seconds float64) int {
	return max(minRounds, min(maxRounds, int(seconds/roundSeconds)))
}

const (
	roundSeconds = 0.625
	minRounds    = 4
	maxRounds    = 32
	bestDecile   = 0.9
)

// accumulate adds another phase of the same kind.
func (r *phaseResult) accumulate(o phaseResult) {
	r.dur += o.dur
	r.sent += o.sent
	r.delivered += o.delivered
	r.lost += o.lost
	r.idle += o.idle
	r.sending += o.sending
	r.rttSum += o.rttSum
	r.rttUS = append(r.rttUS, o.rttUS...)
	if r.perPair == nil {
		r.perPair = make([]uint64, len(o.perPair))
	}
	for i, n := range o.perPair {
		r.perPair[i] += n
	}
}

// measure runs chainRounds(seconds) rounds of lat (40 % of the time) and load
// (60 %), each load phase after a short unmeasured ramp to its window.
func (st *chainStack) measure(cs chainSpec, seconds float64, tr *tracer) chainPass {
	var cp chainPass
	q0, l0 := dropCounts(st.env)
	in0 := st.pktIn.n.Load()
	rounds := chainRounds(seconds)
	round := seconds / float64(rounds)
	for i := 0; i < rounds; i++ {
		lat := pump(st.pairs, cs.latWindow, secs(0.4*round), true, tr)
		cp.lat.accumulate(lat)
		cp.latMeans = append(cp.latMeans, lat.rttUS.mean())
		pump(st.pairs, cs.loadWindow, secs(0.05*round), false, nil)
		mem := markMem()
		load := pump(st.pairs, cs.loadWindow, secs(0.6*round), false, tr)
		cp.load.accumulate(load)
		cp.loadRates = append(cp.loadRates, float64(load.delivered)/load.dur.Seconds())
		cp.loadMeans = append(cp.loadMeans, share(micros(load.rttSum), float64(load.delivered)))
		allocs, bytes, pause := mem.since()
		cp.allocs, cp.bytes, cp.gcPause = cp.allocs+allocs, cp.bytes+bytes, cp.gcPause+pause
	}
	q1, l1 := dropCounts(st.env)
	cp.queueDrops, cp.linkDrops, cp.pktIns = q1-q0, l1-l0, st.pktIn.n.Load()-in0
	return cp
}

// kpps is the delivery rate of the best decile's slowest load phase, in
// frames per second.
func (cp chainPass) kpps() float64 { return cp.loadRates.quantile(bestDecile) }

// rttMean is the mean round trip of the median lat phase.
func (cp chainPass) rttMean() float64 { return cp.latMeans.median() }

// loadedRTTMean is the mean round trip of the best decile's slowest load
// phase.
func (cp chainPass) loadedRTTMean() float64 { return cp.loadMeans.quantile(1 - bestDecile) }

func runChain(cfg runConfig, cs chainSpec) (*outcome, error) {
	if cs.pairs < 1 || cs.pairs > maxPairs {
		return nil, fmt.Errorf("%d host pairs: the frame pump handles 1 to %d", cs.pairs, maxPairs)
	}
	o := newOutcome()
	warm := min(time.Second, secs(cfg.seconds/20))
	o.params = map[string]any{
		"switches": cs.switches, "pairs": cs.pairs, "chain_len": len(cs.nfs), "frame_len": cs.frameLen,
		"flows_per_pair": flowsPerPair, "lat_window": cs.latWindow, "load_window": cs.loadWindow,
		"warm_s": warm.Seconds(), "rounds": chainRounds(cfg.passSeconds()),
	}

	var st *chainStack
	setup, err := timeSetups(3, func() (err error) {
		st.close()
		st, err = startChainStack(cs, cfg.seed, warm)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	o.set("setup_s", setup)

	plain := st.measure(cs, cfg.passSeconds(), nil)
	cp := plain
	if cfg.trace {
		o.tr = newTracer(time.Now())
		cp = st.measure(cs, cfg.passSeconds(), o.tr)
	}
	sent := cp.lat.sent + cp.load.sent
	o.attempted = int(sent)
	o.failed = int(cp.lat.lost + cp.load.lost)
	if cfg.trace { // the untraced pass's frames are operations of this run too
		o.attempted += int(plain.lat.sent + plain.load.sent)
		o.failed += int(plain.lat.lost + plain.load.lost)
	}
	st.checkCounters(cs, o)
	o.check(len(cp.lat.rttUS) > 0 && cp.load.delivered > 0, "no frames delivered")
	o.issue["chain_kpps"] = plain.kpps() / 1e3
	o.issue["chain_rtt_p50_us"] = plain.lat.rttUS.median()
	o.issue["chain_rtt_p99_us"] = plain.lat.rttUS.quantile(0.99)
	o.note("rtt_samples", float64(len(plain.lat.rttUS)), "count")

	if !cfg.trace {
		o.set("ops_per_s", cp.kpps())
		o.set("op_mean_us", cp.rttMean())
		o.set("op2_mean_us", cp.loadedRTTMean())
		return o, nil
	}

	sw, entries := st.busiestTable()
	fields, err := openflow.ExtractFields(st.pairs[0].ring[0], st.env.View.SAPs["h0a"].Port)
	if err != nil {
		return nil, err
	}
	switchHops, links, vnfs := st.pathHops()
	// The isolated drivers run in a quiet process: a deployed chain's idle
	// VNF drivers keep the Go scheduler awake and change what a timer
	// sleep costs.
	st.close()
	if err := runProbes(o, cfg, cs.frameLen, entries, fields); err != nil {
		return nil, err
	}
	probes := o.values
	rtt := cp.lat.rttUS.median()
	explained := float64(vnfs)*probes["click.vnf_idle_rtt_us"] +
		(float64(switchHops)*probes["ofswitch.fwd_ns_frame"]+float64(links)*probes["netem.link_ns_frame"])/1e3
	o.set("bench.rtt_residual_share", 1-share(explained, rtt))
	o.set("bench.gen_idle_share", share(cp.load.idle.Seconds(), cp.load.dur.Seconds()))
	o.set("bench.gen_send_share", share(cp.load.sending.Seconds(), cp.load.dur.Seconds()))
	slow, fast := cp.load.perPair[0], cp.load.perPair[0]
	for _, n := range cp.load.perPair {
		slow, fast = min(slow, n), max(fast, n)
	}
	o.set("bench.chain_fairness", share(float64(slow), float64(fast)))
	o.set("ofswitch.table_len", float64(len(entries)))
	o.set("click.queue_drops", float64(cp.queueDrops))
	o.set("netem.link_drops", float64(cp.linkDrops))
	o.set("ofswitch.slowpath_share", share(float64(cp.pktIns), float64(sent)))
	o.setRuntime(cp.allocs, cp.bytes, cp.gcPause, int(cp.load.delivered))
	o.set("bench.trace_overhead_share", 1-share(cp.kpps(), plain.kpps()))
	o.set("bench.op_p50_us", plain.lat.rttUS.median())
	o.set("bench.op_p99_us", plain.lat.rttUS.quantile(0.99))
	o.note("traced chain_kpps", cp.kpps()/1e3, "kpps")
	o.note("traced chain_rtt_p50_us", rtt, "us")
	o.note("traced chain_rtt_p99_us", cp.lat.rttUS.quantile(0.99), "us")
	o.note("path switch hops", float64(switchHops), "count")
	o.note("path link crossings", float64(links), "count")
	o.note("busiest switch "+sw+" entries", float64(len(entries)), "count")
	return o, nil
}
