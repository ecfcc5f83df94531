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

// NetemOptions configure the packet-emulation substrate.
type NetemOptions struct {
	// Learning runs a controller with the classic l2_learning component,
	// so SAP-to-SAP flows forward without explicit steering. Without it
	// the network is data-plane-only (decisions-only use: the view can be
	// mapped against without starting).
	Learning bool
}

// NetemSubstrate realizes a TopoSpec as a packet-level emulated network:
// every frame is built, queued, shaped and delivered. It is the
// high-fidelity, low-scale backend.
type NetemSubstrate struct {
	spec *TopoSpec
	net  *netem.Network

	started time.Time
	vnow    time.Duration // monotonic scenario time reached via AdvanceTo

	mu       sync.Mutex
	flows    map[string]*netemFlow
	sinks    map[string]*netemSink // per destination host
	nextPort int                   // flow port counter, offset from flowPortBase
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
// destination port. Running flows hold distinct ports, and a port's
// count starts when its flow does, so each flow counts its own frames.
type netemSink struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	pkts map[uint16]int
}

// NewNetem realizes the spec as an emulated network (nodes and links are
// created immediately; Start launches pipes and the controller).
func NewNetem(spec *TopoSpec, opts NetemOptions) (*NetemSubstrate, error) {
	var ctrl *pox.Controller
	if opts.Learning {
		ctrl = pox.NewController()
		ctrl.Register(pox.NewL2Learning())
	}
	n, err := netem.Build(spec, netem.Options{Controller: ctrl})
	if err != nil {
		return nil, err
	}
	return &NetemSubstrate{
		spec:  spec,
		net:   n,
		flows: map[string]*netemFlow{},
		sinks: map[string]*netemSink{},
	}, nil
}

func (s *NetemSubstrate) Name() string { return "netem" }

func (s *NetemSubstrate) View() (*core.ResourceView, error) {
	return core.ViewFromSpec(s.spec)
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

// Now reports scenario time: the wall clock, but at least the highest AdvanceTo target (so zero-duration waits still
// advance the scenario clock deterministically).
func (s *NetemSubstrate) Now() time.Duration {
	if s.started.IsZero() {
		return 0
	}
	wall := time.Since(s.started)
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
		if d := t - s.Now(); d > 0 {
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

// Flows take UDP ports flowPortBase… from a counter, skipping the ports
// of flows still running to the same host (sinks demultiplex on it).
const (
	flowPortBase = 20000
	flowPorts    = 30000
)

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
	sink := s.sinks[spec.DstSAP]
	if sink == nil {
		sink = &netemSink{
			stop: make(chan struct{}),
			done: make(chan struct{}),
			pkts: map[uint16]int{},
		}
		s.sinks[spec.DstSAP] = sink
		go sink.run(dst)
	}
	sink.mu.Lock()
	if len(sink.pkts) >= flowPorts {
		sink.mu.Unlock()
		s.mu.Unlock()
		return fmt.Errorf("substrate: %d flows already running to %s", flowPorts, spec.DstSAP)
	}
	var port uint16
	for {
		port = uint16(flowPortBase + s.nextPort)
		s.nextPort = (s.nextPort + 1) % flowPorts
		if _, busy := sink.pkts[port]; !busy {
			break
		}
	}
	sink.pkts[port] = 0 // the flow's count starts now
	sink.mu.Unlock()
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
			Rate: spec.Rate / float64(spec.FrameSize*8),
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
			// Flows are UDP; ARP and stray ICMP are not counted.
			if u, ok := pkt.Decode(rx.Frame).Layer(pkt.LayerTypeUDP).(*pkt.UDP); ok {
				sink.mu.Lock()
				if n, running := sink.pkts[u.DstPort]; running {
					sink.pkts[u.DstPort] = n + 1
				}
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
	delete(f.sink.pkts, f.gen.DstPort)
	f.sink.mu.Unlock()
	frameBits := float64(f.spec.FrameSize * 8)
	return FlowStats{
		OfferedBits:   float64(f.sent) * frameBits,
		DeliveredBits: float64(pkts) * frameBits,
		Duration:      time.Since(f.startAt),
	}, nil
}
