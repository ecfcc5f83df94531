// Package substrate carves the seam between the orchestration stack and
// the infrastructure it runs against. internal/core, internal/resilience
// and internal/experiments historically assumed the packet-level netem
// emulator; the Substrate interface names exactly what they actually
// consume — a topology realized into a core.ResourceView, traffic
// generation and measurement, and link fault injection — so the same
// Mapper/Orchestrator code paths can run unchanged against either the
// packet emulator (NetemSubstrate) or the analytic flow-level simulator
// (internal/flowsim), which trades per-frame fidelity for 100k-switch /
// 1M-service scale.
package substrate

import (
	"time"

	"escape/internal/core"
	"escape/internal/netem"
)

// The topology description is netem's (netem.Topo, the analogue of
// Mininet's Topo): every substrate realizes the same description, and
// core.ViewFromSpec derives the orchestrator's resource view from it.
// TopoSpec is an alias kept for the benchmark program.
type TopoSpec = netem.Topo

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

// Substrate realizes a TopoSpec and exposes the four capabilities the
// orchestration stack consumes. Implementations: NetemSubstrate (packet
// emulation, wall-clock time) and flowsim.Sim (analytic flow-level
// simulation, virtual time).
type Substrate interface {
	// Name identifies the backend ("netem", "flowsim").
	Name() string
	// View derives the orchestrator's resource view from the realized
	// description (core.ViewFromSpec). Placement and steering decisions
	// derive from the view alone, which is why both substrates drive
	// identical decisions on one spec.
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
