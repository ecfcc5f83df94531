package substrate

import (
	"fmt"
	"sync"
	"time"

	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/pox"
	"escape/internal/trafgen"
)

// decodeUDPFrame extracts the UDP destination port and frame length, or
// reports false for non-UDP traffic (ARP, stray ICMP).
func decodeUDPFrame(frame []byte) (port uint16, n int, ok bool) {
	u, isUDP := pkt.Decode(frame).Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if !isUDP {
		return 0, 0, false
	}
	return u.DstPort, len(frame), true
}

// NetemOptions configure the packet-emulation substrate.
type NetemOptions struct {
	// Controller, when non-nil, receives the switches at Start. Nil with
	// Learning=true creates a controller running the classic l2_learning
	// component so SAP-to-SAP flows forward without explicit steering.
	// Nil with Learning=false runs data-plane-only (decisions-only use:
	// the view can be built and mapped against without starting).
	Controller *pox.Controller
	Learning   bool
	// TimeScale compresses scenario time: AdvanceTo(t) sleeps
	// (t-now)/TimeScale of wall clock (default 1, real time).
	TimeScale float64
}

// NetemSubstrate realizes a TopoSpec as a packet-level emulated network:
// every frame is built, queued, shaped and delivered. It is the
// high-fidelity, low-scale backend.
type NetemSubstrate struct {
	spec *TopoSpec
	opts NetemOptions
	net  *netem.Network
	ees  map[string]string // EE name → switch (for View)

	started time.Time
	vnow    time.Duration // monotonic scenario time reached via AdvanceTo

	mu    sync.Mutex
	flows map[string]*netemFlow
	sinks map[string]*netemSink // per destination host
}

type netemFlow struct {
	spec    FlowSpec
	startAt time.Time
	gen     *trafgen.LoadGen
	stop    chan struct{}
	done    chan struct{}
	sent    int
	sink    *netemSink
}

// netemSink drains one host's receive channel and counts UDP frames per
// destination port, so concurrent flows to the same host each see their
// own counters.
type netemSink struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	pkts  map[uint16]int
	bytes map[uint16]int
}

// NewNetem realizes the spec as an emulated network (nodes and links are
// created immediately; Start launches pipes and the controller).
func NewNetem(spec *TopoSpec, opts NetemOptions) (*NetemSubstrate, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	if opts.Controller == nil && opts.Learning {
		opts.Controller = pox.NewController()
		opts.Controller.Register(pox.NewL2Learning())
	}
	n := netem.New(spec.Name, netem.Options{Controller: opts.Controller})
	s := &NetemSubstrate{
		spec:  spec,
		opts:  opts,
		net:   n,
		ees:   map[string]string{},
		flows: map[string]*netemFlow{},
		sinks: map[string]*netemSink{},
	}
	for _, name := range spec.Switches {
		if _, err := n.AddSwitch(name); err != nil {
			return nil, err
		}
	}
	// Switch-switch links before host attachments: port numbering must
	// match ViewFromSpec (see TopoSpec doc).
	for _, l := range spec.Links {
		cfg := netem.LinkConfig{Bandwidth: l.Bandwidth, Delay: l.Delay, Loss: l.Loss}
		if _, err := n.AddLink(l.A, l.B, cfg); err != nil {
			return nil, err
		}
	}
	for _, h := range spec.Hosts {
		if _, err := n.AddHost(h.Name); err != nil {
			return nil, err
		}
		if _, err := n.AddLink(h.Name, h.Switch, netem.LinkConfig{}); err != nil {
			return nil, err
		}
	}
	for _, e := range spec.EEs {
		if _, err := n.AddEE(e.Name, netem.EEConfig{CPU: e.CPU, Mem: e.Mem}); err != nil {
			return nil, err
		}
		s.ees[e.Name] = e.Switch
	}
	return s, nil
}

// Network exposes the underlying emulation for callers that need the
// full packet-level API (hosts, links, switches).
func (s *NetemSubstrate) Network() *netem.Network { return s.net }

func (s *NetemSubstrate) Name() string    { return "netem" }
func (s *NetemSubstrate) Spec() *TopoSpec { return s.spec }

func (s *NetemSubstrate) View() (*core.ResourceView, error) {
	return core.BuildResourceView(s.net, s.ees)
}

func (s *NetemSubstrate) Start() error {
	s.started = time.Now()
	return s.net.Start()
}

func (s *NetemSubstrate) Stop() {
	s.mu.Lock()
	flows := make([]string, 0, len(s.flows))
	for id := range s.flows {
		flows = append(flows, id)
	}
	s.mu.Unlock()
	for _, id := range flows {
		s.StopFlow(id)
	}
	s.mu.Lock()
	sinks := make([]*netemSink, 0, len(s.sinks))
	for _, sink := range s.sinks {
		sinks = append(sinks, sink)
	}
	s.sinks = map[string]*netemSink{}
	s.mu.Unlock()
	for _, sink := range sinks {
		close(sink.stop)
		<-sink.done
	}
	s.net.Stop()
}

// Now reports scenario time: the wall clock scaled by TimeScale, but at
// least the highest AdvanceTo target (so zero-duration waits still
// advance the scenario clock deterministically).
func (s *NetemSubstrate) Now() time.Duration {
	if s.started.IsZero() {
		return 0
	}
	wall := time.Duration(float64(time.Since(s.started)) * s.opts.TimeScale)
	if wall < s.vnow {
		return s.vnow
	}
	return wall
}

func (s *NetemSubstrate) AdvanceTo(t time.Duration) {
	if t <= s.vnow {
		return
	}
	// Decisions-only use (network never started, no traffic in flight):
	// nothing is waiting on wall clock, so scenario time jumps.
	if !s.started.IsZero() {
		if d := time.Duration(float64(t-s.Now()) / s.opts.TimeScale); d > 0 {
			time.Sleep(d)
		}
	}
	s.vnow = t
}

func (s *NetemSubstrate) FailLink(a, b string) error {
	l := s.net.FindLink(a, b)
	if l == nil {
		return fmt.Errorf("substrate: no link %s-%s", a, b)
	}
	l.Fail()
	return nil
}

func (s *NetemSubstrate) HealLink(a, b string) error {
	l := s.net.FindLink(a, b)
	if l == nil {
		return fmt.Errorf("substrate: no link %s-%s", a, b)
	}
	l.Heal()
	return nil
}

// flowPort derives a per-flow UDP destination port from the flow count
// (sinks demultiplex on it).
const flowPortBase = 20000

func (s *NetemSubstrate) StartFlow(spec FlowSpec) error {
	src, ok := s.net.Node(spec.SrcSAP).(*netem.Host)
	if !ok {
		return fmt.Errorf("substrate: no host %q", spec.SrcSAP)
	}
	dst, ok := s.net.Node(spec.DstSAP).(*netem.Host)
	if !ok {
		return fmt.Errorf("substrate: no host %q", spec.DstSAP)
	}
	if spec.FrameSize <= 0 {
		spec.FrameSize = 1000
	}
	s.mu.Lock()
	if _, dup := s.flows[spec.ID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("substrate: flow %q already running", spec.ID)
	}
	port := uint16(flowPortBase + len(s.flows)%30000)
	sink := s.sinks[spec.DstSAP]
	if sink == nil {
		sink = &netemSink{
			stop:  make(chan struct{}),
			done:  make(chan struct{}),
			pkts:  map[uint16]int{},
			bytes: map[uint16]int{},
		}
		s.sinks[spec.DstSAP] = sink
		go sink.run(dst)
	}
	f := &netemFlow{
		spec:    spec,
		startAt: time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		sink:    sink,
		gen: &trafgen.LoadGen{
			Host: src, DstIP: dst.IP(), DstMAC: dst.MAC(),
			SrcPort: port, DstPort: port,
			Size: spec.FrameSize,
			// Emulated rate is scaled with scenario time so a compressed
			// scenario offers the same bits per scenario-second.
			Rate: spec.Rate / float64(spec.FrameSize*8) * s.opts.TimeScale,
		},
	}
	s.flows[spec.ID] = f
	s.mu.Unlock()
	go f.run()
	return nil
}

func (f *netemFlow) run() {
	defer close(f.done)
	// Send in bursts between stop checks: LoadGen paces within a burst.
	const burst = 64
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		rep, err := f.gen.Run(burst)
		if err != nil {
			return
		}
		f.sent += rep.Packets
	}
}

func (sink *netemSink) run(h *netem.Host) {
	defer close(sink.done)
	for {
		select {
		case <-sink.stop:
			return
		case rx := <-h.Recv():
			if port, n, ok := decodeUDPFrame(rx.Frame); ok {
				sink.mu.Lock()
				sink.pkts[port]++
				sink.bytes[port] += n
				sink.mu.Unlock()
			}
		}
	}
}

func (s *NetemSubstrate) StopFlow(id string) (FlowStats, error) {
	s.mu.Lock()
	f := s.flows[id]
	delete(s.flows, id)
	s.mu.Unlock()
	if f == nil {
		return FlowStats{}, fmt.Errorf("substrate: no flow %q", id)
	}
	close(f.stop)
	<-f.done
	// Give in-flight frames a moment to land before reading the sink.
	time.Sleep(2 * time.Millisecond)
	f.sink.mu.Lock()
	pkts := f.sink.pkts[f.gen.DstPort]
	f.sink.mu.Unlock()
	wall := time.Since(f.startAt)
	frameBits := float64(f.spec.FrameSize * 8)
	return FlowStats{
		OfferedBits:   float64(f.sent) * frameBits,
		DeliveredBits: float64(pkts) * frameBits,
		Duration:      time.Duration(float64(wall) * s.opts.TimeScale),
	}, nil
}
