// Package substrate carves the seam between the orchestration stack and
// the infrastructure it runs against. internal/core, internal/resilience
// and internal/experiments historically assumed the packet-level netem
// emulator; the Substrate interface names exactly what they actually
// consume — a topology realized into a core.ResourceView, traffic
// generation and measurement, fault injection, and link/EE state events —
// so the same Mapper/Orchestrator code paths can run unchanged
// against either the packet emulator (NetemSubstrate) or the analytic
// flow-level simulator (internal/flowsim), which trades per-frame
// fidelity for 100k-switch / 1M-service scale.
package substrate

import (
	"fmt"
	"sort"
	"time"

	"escape/internal/core"
)

// HostSpec attaches one SAP host to a switch.
type HostSpec struct {
	Name   string
	Switch string
}

// EESpec declares one execution environment (VNF container host) with
// its compute capacity and attachment switch.
type EESpec struct {
	Name   string
	Switch string
	CPU    float64
	Mem    int
}

// LinkSpec is one undirected switch-to-switch link with its shaping.
type LinkSpec struct {
	A, B      string
	Bandwidth float64 // bits per second; 0 = uncapacitated
	Delay     time.Duration
	Loss      float64
}

// TopoSpec is a substrate-neutral topology description: every substrate
// realizes the same spec, and ViewFromSpec derives the orchestrator's
// resource view from it directly. Order matters — ports are numbered in
// declaration order (switch-switch links first, then host attachments),
// matching netem's AddLink port allocation, so a spec-built emulation
// and a spec-derived view agree on port numbers.
type TopoSpec struct {
	Name     string
	Switches []string
	Hosts    []HostSpec
	EEs      []EESpec
	Links    []LinkSpec
}

// Validate checks referential integrity of the spec.
func (s *TopoSpec) Validate() error {
	sw := make(map[string]bool, len(s.Switches))
	for _, name := range s.Switches {
		if sw[name] {
			return fmt.Errorf("substrate: duplicate switch %q", name)
		}
		sw[name] = true
	}
	for _, h := range s.Hosts {
		if !sw[h.Switch] {
			return fmt.Errorf("substrate: host %q attaches to unknown switch %q", h.Name, h.Switch)
		}
	}
	for _, e := range s.EEs {
		if !sw[e.Switch] {
			return fmt.Errorf("substrate: EE %q attaches to unknown switch %q", e.Name, e.Switch)
		}
	}
	for _, l := range s.Links {
		if !sw[l.A] || !sw[l.B] {
			return fmt.Errorf("substrate: link %s-%s references unknown switch", l.A, l.B)
		}
	}
	return nil
}

// FlowSpec describes one service flow to generate: constant-rate traffic
// from SrcSAP to DstSAP along the mapped switch Route.
type FlowSpec struct {
	ID     string
	SrcSAP string
	DstSAP string
	// Route is the mapped switch path (consecutive duplicates allowed;
	// substrates compress them). Packet substrates may ignore it and let
	// the installed steering forward; analytic substrates charge the
	// flow's rate against exactly these links.
	Route []string
	// Rate is the offered load in bits per second.
	Rate float64
	// FrameSize in bytes (default 1000) sets the packetization for
	// substrates that model per-packet service times.
	FrameSize int
}

// FlowStats reports what one flow experienced between start and stop.
type FlowStats struct {
	// Offered/Delivered in bits over the flow's lifetime.
	OfferedBits   float64
	DeliveredBits float64
	// AvgDelay is the mean end-to-end latency (propagation + queueing).
	// Zero when the substrate does not measure it.
	AvgDelay time.Duration
	// Duration is the flow's lifetime in substrate time.
	Duration time.Duration
}

// DeliveredRatio is delivered/offered in [0,1] (1 when nothing was
// offered).
func (s FlowStats) DeliveredRatio() float64 {
	if s.OfferedBits <= 0 {
		return 1
	}
	r := s.DeliveredBits / s.OfferedBits
	if r > 1 {
		r = 1
	}
	return r
}

// Substrate realizes a TopoSpec and exposes the four capabilities the
// orchestration stack consumes. Implementations: NetemSubstrate (packet
// emulation, wall-clock time) and flowsim.Sim (analytic flow-level
// simulation, virtual time).
type Substrate interface {
	// Name identifies the backend ("netem", "flowsim").
	Name() string
	// Spec returns the realized topology description.
	Spec() *TopoSpec
	// View builds the orchestrator's resource view over this substrate.
	// Placement and steering decisions derive from the view alone, which
	// is why both substrates drive identical decisions on one spec.
	View() (*core.ResourceView, error)
	// Start launches the substrate; Stop tears it down.
	Start() error
	Stop()

	// Now is the substrate's elapsed time since Start: wall clock for
	// emulation, virtual for simulation.
	Now() time.Duration
	// AdvanceTo blocks (emulation) or steps the event loop (simulation)
	// until substrate time reaches t. Monotonic; past times are a no-op.
	AdvanceTo(t time.Duration)

	// Fault injection: cut and restore a link.
	FailLink(a, b string) error
	HealLink(a, b string) error

	// Traffic: StartFlow begins generating, StopFlow ends it and
	// reports what the flow experienced.
	StartFlow(spec FlowSpec) error
	StopFlow(id string) (FlowStats, error)
}

// ViewFromSpec derives the orchestrator's resource view directly from a
// spec, without realizing an emulated network: switches get sequential
// DPIDs, links and hosts get ports numbered in declaration order
// (switch-switch links first, then host attachments — the same order
// BuildNetem issues AddLink calls), so the result is structurally
// identical to core.BuildResourceView over the netem realization.
func ViewFromSpec(spec *TopoSpec) (*core.ResourceView, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rv := core.NewResourceView()
	nextDPID := uint64(1)
	for _, name := range spec.Switches {
		rv.Switches[name] = nextDPID
		nextDPID++
	}
	nextPort := make(map[string]uint16, len(spec.Switches))
	port := func(sw string) uint16 {
		nextPort[sw]++
		return nextPort[sw]
	}
	for _, l := range spec.Links {
		rv.Links = append(rv.Links, &core.LinkRes{
			A: l.A, B: l.B,
			PortA: port(l.A), PortB: port(l.B),
			Bandwidth: l.Bandwidth, Delay: l.Delay,
		})
	}
	for _, h := range spec.Hosts {
		rv.SAPs[h.Name] = &core.SAPRes{
			ID: h.Name, Host: h.Name,
			Switch: h.Switch, Port: port(h.Switch),
		}
	}
	for _, e := range spec.EEs {
		rv.EEs[e.Name] = &core.EERes{Name: e.Name, CPU: e.CPU, Mem: e.Mem, Switch: e.Switch}
	}
	return rv, nil
}

// SAPNames returns the spec's host (SAP) names sorted.
func (s *TopoSpec) SAPNames() []string {
	out := make([]string, 0, len(s.Hosts))
	for _, h := range s.Hosts {
		out = append(out, h.Name)
	}
	sort.Strings(out)
	return out
}
