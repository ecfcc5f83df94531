// Package flowsim is the analytic, flow-level Substrate backend: where
// netem emulates every Ethernet frame, flowsim models each link as a
// fluid server — capacity sharing, M/M/1-style queueing delay and loss
// under overload computed from aggregate offered rates — in pure virtual
// time. No goroutine per node, no per-packet work: state is
// piecewise-constant between scenario events and integrated exactly at
// each change point, so a 100k-switch / 1M-service workload is an
// in-memory bookkeeping exercise instead of a packet storm, and every
// metric is a deterministic function of (spec, trace).
//
// Model and its approximations:
//
//   - Per-direction link delivery ratio = (1-Loss)·min(1, C/R) where R
//     aggregates active flow rates. A flow's delivered share over its
//     lifetime multiplies per-link ratios via their geometric means
//     (exact when ratios are constant or only one link is lossy; a
//     documented approximation when several links' overload episodes
//     interleave).
//   - Down time is integrated arithmetically per link and subtracted
//     from the flow's delivering lifetime (ratio-of-time, not
//     geometric — a 10% outage costs 10% of bits).
//   - Queueing delay per link follows M/M/1 waiting time W = S·ρ/(1-ρ)
//     with service time S = FrameBits/C, capped at QueueCap·S (the
//     bounded egress queue netem enforces in packets).
package flowsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"escape/internal/core"
	"escape/internal/substrate"
)

// Options tune the simulator.
type Options struct {
	// FrameSize in bytes sets the packetization used for service-time
	// and queue-bound computation (default 1000).
	FrameSize int
	// QueueCap bounds the modeled egress queue in frames (default 512,
	// netem's default).
	QueueCap int
}

// Sim implements substrate.Substrate analytically.
type Sim struct {
	spec    *substrate.TopoSpec
	opts    Options
	now     time.Duration
	started bool

	links map[[2]string]*simLink // directed: key is [from, to]
	flows map[string]*simFlow
}

// simLink is one direction of a spec link as a fluid server.
type simLink struct {
	cap  float64 // bits/s; 0 = uncapacitated
	prop time.Duration
	loss float64 // static loss probability

	offered float64 // aggregate active rate, bits/s
	down    bool
	last    time.Duration // integrals valid up to here

	logAccum   float64       // ∫ log(ratio) dt over up-time, seconds
	downAccum  time.Duration // total down time
	delayAccum float64       // ∫ W dt, seconds²

	maxRho float64 // peak utilization observed
}

type simFlow struct {
	spec  substrate.FlowSpec
	start time.Duration
	hops  []flowHop
	prop  time.Duration
}

// flowHop is one directed link of a flow's route and the link's
// integrals when the flow started.
type flowHop struct {
	l     *simLink
	log   float64
	down  time.Duration
	delay float64
}

// New builds a simulator over the spec.
func New(spec *substrate.TopoSpec, opts Options) (*Sim, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.FrameSize <= 0 {
		opts.FrameSize = 1000
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 512
	}
	s := &Sim{
		spec:  spec,
		opts:  opts,
		links: make(map[[2]string]*simLink, 2*len(spec.Links)),
		flows: map[string]*simFlow{},
	}
	for _, l := range spec.Links {
		fwd := &simLink{cap: l.Bandwidth, prop: l.Delay, loss: l.Loss}
		rev := &simLink{cap: l.Bandwidth, prop: l.Delay, loss: l.Loss}
		s.links[[2]string{l.A, l.B}] = fwd
		s.links[[2]string{l.B, l.A}] = rev
	}
	return s, nil
}

func (s *Sim) Name() string { return "flowsim" }

func (s *Sim) View() (*core.ResourceView, error) {
	return core.ViewFromSpec(s.spec)
}

func (s *Sim) Start() error {
	if s.started {
		return fmt.Errorf("flowsim: already started")
	}
	s.started = true
	return nil
}

func (s *Sim) Stop() {
	s.started = false
}

func (s *Sim) Now() time.Duration { return s.now }

// AdvanceTo moves virtual time forward. Link integrals are lazy — they
// catch up at the next state change — so advancing is O(1).
func (s *Sim) AdvanceTo(t time.Duration) {
	if t > s.now {
		s.now = t
	}
}

// settle integrates a link's piecewise-constant state up to virtual now.
func (l *simLink) settle(now time.Duration, opts Options) {
	if now <= l.last {
		return
	}
	dt := (now - l.last).Seconds()
	if l.down {
		l.downAccum += now - l.last
	} else {
		l.logAccum += math.Log(l.ratio()) * dt
		l.delayAccum += l.queueDelay(opts) * dt
	}
	l.last = now
}

// ratio is the instantaneous delivery ratio while up.
func (l *simLink) ratio() float64 {
	r := 1 - l.loss
	if l.cap > 0 && l.offered > l.cap {
		r *= l.cap / l.offered
	}
	if r < 1e-12 {
		r = 1e-12
	}
	return r
}

// queueDelay is the modeled M/M/1 waiting time in seconds at the
// current offered rate, capped at a full queue's worth of service
// times.
func (l *simLink) queueDelay(opts Options) float64 {
	if l.cap <= 0 {
		return 0
	}
	service := float64(opts.FrameSize*8) / l.cap
	rho := l.offered / l.cap
	if rho >= 1 {
		return float64(opts.QueueCap) * service
	}
	w := service * rho / (1 - rho)
	if max := float64(opts.QueueCap) * service; w > max {
		w = max
	}
	return w
}

// addRate changes a link's offered aggregate (settling first so the
// integrals reflect the old rate up to now).
func (l *simLink) addRate(now time.Duration, delta float64, opts Options) {
	l.settle(now, opts)
	l.offered += delta
	if l.offered < 0 {
		l.offered = 0
	}
	if l.cap > 0 {
		if rho := l.offered / l.cap; rho > l.maxRho {
			l.maxRho = rho
		}
	}
}

func (s *Sim) linkPair(a, b string) (*simLink, *simLink, error) {
	fwd := s.links[[2]string{a, b}]
	rev := s.links[[2]string{b, a}]
	if fwd == nil || rev == nil {
		return nil, nil, fmt.Errorf("flowsim: no link %s-%s", a, b)
	}
	return fwd, rev, nil
}

func (s *Sim) FailLink(a, b string) error {
	fwd, rev, err := s.linkPair(a, b)
	if err != nil {
		return err
	}
	for _, l := range []*simLink{fwd, rev} {
		l.settle(s.now, s.opts)
		l.down = true
	}
	return nil
}

func (s *Sim) HealLink(a, b string) error {
	fwd, rev, err := s.linkPair(a, b)
	if err != nil {
		return err
	}
	for _, l := range []*simLink{fwd, rev} {
		l.settle(s.now, s.opts)
		l.down = false
	}
	return nil
}

// StartFlow charges the flow's rate against every directed link of its
// route and snapshots the link integrals, so StopFlow can compute the
// flow's share by difference — O(route length), independent of how many
// other flows exist.
func (s *Sim) StartFlow(spec substrate.FlowSpec) error {
	if _, dup := s.flows[spec.ID]; dup {
		return fmt.Errorf("flowsim: flow %q already running", spec.ID)
	}
	if spec.FrameSize <= 0 {
		spec.FrameSize = s.opts.FrameSize
	}
	f := &simFlow{spec: spec, start: s.now, hops: make([]flowHop, 0, max(len(spec.Route)-1, 0))}
	for i := 1; i < len(spec.Route); i++ {
		a, b := spec.Route[i-1], spec.Route[i]
		if a == b {
			continue
		}
		l := s.links[[2]string{a, b}]
		if l == nil {
			return fmt.Errorf("flowsim: flow %q route crosses unknown link %s-%s", spec.ID, a, b)
		}
		f.hops = append(f.hops, flowHop{l: l})
		f.prop += l.prop
	}
	for i := range f.hops {
		h := &f.hops[i]
		h.l.addRate(s.now, spec.Rate, s.opts)
		h.log, h.down, h.delay = h.l.logAccum, h.l.downAccum, h.l.delayAccum
	}
	s.flows[spec.ID] = f
	return nil
}

// StopFlow settles the flow's links, removes its rate, and derives the
// flow's delivered bits and mean delay from the integral deltas over
// its lifetime.
func (s *Sim) StopFlow(id string) (substrate.FlowStats, error) {
	f := s.flows[id]
	if f == nil {
		return substrate.FlowStats{}, fmt.Errorf("flowsim: no flow %q", id)
	}
	delete(s.flows, id)

	life := s.now - f.start
	lifeSec := life.Seconds()
	var logSum, delaySum float64
	var downSum time.Duration
	for _, h := range f.hops {
		l := h.l
		l.settle(s.now, s.opts)
		logSum += l.logAccum - h.log
		delaySum += l.delayAccum - h.delay
		downSum += l.downAccum - h.down
		l.addRate(s.now, -f.spec.Rate, s.opts)
	}
	st := substrate.FlowStats{
		OfferedBits: f.spec.Rate * lifeSec,
		Duration:    life,
	}
	if lifeSec <= 0 {
		st.AvgDelay = f.prop
		return st, nil
	}
	// Delivering lifetime excludes per-link downtime (treated additively
	// — concurrent outages on one path are rare enough to ignore).
	upSec := lifeSec - downSum.Seconds()
	if upSec < 0 {
		upSec = 0
	}
	if upSec > 0 {
		st.DeliveredBits = f.spec.Rate * upSec * math.Exp(logSum/upSec)
		st.AvgDelay = f.prop + time.Duration(delaySum/upSec*float64(time.Second))
	} else {
		st.AvgDelay = f.prop
	}
	return st, nil
}

// LinkReport summarizes link-level observations for the whole run.
type LinkReport struct {
	Links          int     // directed links
	MaxUtilization float64 // peak ρ seen on any capacitated link
	Overloaded     int     // links that ever exceeded capacity
}

// Report scans the links in deterministic (sorted-key) order.
func (s *Sim) Report() LinkReport {
	keys := make([][2]string, 0, len(s.links))
	for k := range s.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	rep := LinkReport{Links: len(keys)}
	for _, k := range keys {
		l := s.links[k]
		if l.maxRho > rep.MaxUtilization {
			rep.MaxUtilization = l.maxRho
		}
		if l.maxRho > 1 {
			rep.Overloaded++
		}
	}
	return rep
}
