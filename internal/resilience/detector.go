// Package resilience is ESCAPE's self-healing layer: a failure detector
// watching the substrate (EE liveness over the NETCONF management plane,
// switch link state over OpenFlow PORT_STATUS) and a healing controller
// that re-maps and migrates the affected slice of every Running service
// chain — only the NFs and paths a failure actually touched — through
// the orchestrator's Healing lifecycle state.
//
// The original ESCAPE assumes a fault-free substrate; dynamic
// re-chaining under failures is the open problem this layer closes for
// the reproduction: experiment E11 kills EEs and links mid-traffic and
// measures detection latency, healing latency and the loss window.
package resilience

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"escape/internal/core"
	"escape/internal/openflow"
	"escape/internal/pox"
	"escape/internal/vnfagent"
)

// FaultKind classifies a detector event.
type FaultKind int

// Fault kinds.
const (
	// EEDown: an execution environment stopped answering its NETCONF
	// liveness probes (crashed container or dead agent).
	EEDown FaultKind = iota
	// EEUp: a down EE answers probes again.
	EEUp
	// LinkDown: a switch-to-switch link lost carrier (PORT_STATUS).
	LinkDown
	// LinkUp: a down link's carrier returned.
	LinkUp
	// Resweep is not a detected fault: it labels heal records produced
	// by the healer's safety re-sweeps (periodic, or on a service
	// reaching Running while faults are active) rather than by a
	// specific detector event.
	Resweep
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case EEDown:
		return "ee-down"
	case EEUp:
		return "ee-up"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case Resweep:
		return "re-sweep"
	}
	return "unknown"
}

// Fault is one detected substrate state change.
type Fault struct {
	Kind FaultKind
	// EE names the container (EEDown/EEUp).
	EE string
	// A, B name the link's switches (LinkDown/LinkUp), in sorted order.
	A, B string
	// Time is the detection timestamp: E11's detection-latency metric is
	// Time minus the injection instant.
	Time time.Time
}

// DetectorConfig wires a Detector to the substrate it watches.
type DetectorConfig struct {
	// View resolves dpids and link endpoints.
	View *core.ResourceView
	// Agents maps EE names to their NETCONF management addresses (the
	// same control network the orchestrator uses).
	Agents map[string]string
	// ProbeInterval is the EE liveness probe period (default 25ms — the
	// emulated management plane answers in microseconds).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one liveness RPC (default 500ms): an agent
	// that accepts connections but never answers is exactly the wedge a
	// liveness detector must catch, and the NETCONF client itself has no
	// read deadline.
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark an EE
	// down (default 2: one flap is not a funeral).
	FailThreshold int
}

// Detector watches EE liveness and link state and publishes Fault events.
// Register it with the pox controller to receive PORT_STATUS events, and
// Start it to begin NETCONF probing.
type Detector struct {
	cfg DetectorConfig

	events chan Fault

	mu         sync.Mutex
	eeDown     map[string]bool
	eeDownAt   map[string]time.Time
	linkDown   map[[2]string]bool
	linkDownAt map[[2]string]time.Time
	dpidSw     map[uint64]string
	stopCh     chan struct{}
	stopped    bool
	wg         sync.WaitGroup
	dropped    int
}

// NewDetector builds a detector over a resource view and agent map.
func NewDetector(cfg DetectorConfig) *Detector {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	d := &Detector{
		cfg:        cfg,
		events:     make(chan Fault, 1024),
		eeDown:     map[string]bool{},
		eeDownAt:   map[string]time.Time{},
		linkDown:   map[[2]string]bool{},
		linkDownAt: map[[2]string]time.Time{},
		dpidSw:     map[uint64]string{},
		stopCh:     make(chan struct{}),
	}
	for sw, dpid := range cfg.View.Switches {
		d.dpidSw[dpid] = sw
	}
	return d
}

// ComponentName implements pox.Component.
func (*Detector) ComponentName() string { return "failure-detector" }

// Events returns the fault stream. It is closed by Stop.
func (d *Detector) Events() <-chan Fault { return d.events }

// EEIsDown reports the detector's current belief about one EE.
func (d *Detector) EEIsDown(ee string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eeDown[ee]
}

// LinkIsDown reports the detector's current belief about one link.
func (d *Detector) LinkIsDown(a, b string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.linkDown[linkID(a, b)]
}

// EEDownSince returns the detection timestamp of an EE's current down
// state (false when the EE is not considered down). Experiments measure
// detection latency from it — exact even when the triggering fault
// event produced no heal record.
func (d *Detector) EEDownSince(ee string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.eeDown[ee] {
		return time.Time{}, false
	}
	return d.eeDownAt[ee], true
}

// LinkDownSince returns the detection timestamp of a link's current
// down state.
func (d *Detector) LinkDownSince(a, b string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := linkID(a, b)
	if !d.linkDown[key] {
		return time.Time{}, false
	}
	return d.linkDownAt[key], true
}

// Start launches one liveness prober per EE.
func (d *Detector) Start() {
	ees := make([]string, 0, len(d.cfg.Agents))
	for ee := range d.cfg.Agents {
		ees = append(ees, ee)
	}
	sort.Strings(ees)
	for _, ee := range ees {
		d.wg.Add(1)
		go d.probeLoop(ee, d.cfg.Agents[ee])
	}
}

// Stop halts probing and closes the event stream. The stream close
// happens under the same lock emit sends under: a PORT_STATUS delivered
// by the pox read loop concurrently with Stop either lands before the
// close or is discarded — never a send on a closed channel.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	d.mu.Unlock()
	close(d.stopCh)
	d.wg.Wait()
	d.mu.Lock()
	close(d.events)
	d.mu.Unlock()
}

// emit publishes a fault; a saturated subscriber just drops it — the
// healer re-reads detector state on every sweep, so a lost duplicate is
// harmless (drops are counted for tests). Sends happen under d.mu so
// Stop's channel close cannot interleave.
func (d *Detector) emit(f Fault) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		d.dropped++
		return
	}
	select {
	case d.events <- f:
	default:
		d.dropped++
	}
}

// probeLoop probes one EE's agent over NETCONF: getVNFInfo doubles as
// the liveness RPC (a crashed EE answers with an error, a dead agent
// does not answer at all). State flips after FailThreshold consecutive
// failures, and back on the first success.
func (d *Detector) probeLoop(ee, addr string) {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.ProbeInterval)
	defer ticker.Stop()
	// One probe-deadline timer for the lifetime of the loop, re-armed per
	// probe: a long soak otherwise allocates a fresh time.After timer
	// every tick for every EE.
	deadline := time.NewTimer(d.cfg.ProbeTimeout)
	defer deadline.Stop()
	var client *vnfagent.Client
	defer func() {
		if client != nil {
			client.Close()
		}
	}()
	strikes := 0
	for {
		select {
		case <-d.stopCh:
			return
		case <-ticker.C:
		}
		ok := false
		if client == nil {
			client, _ = vnfagent.DialClient(addr)
		}
		if client != nil {
			if err := d.probe(client, deadline); err == nil {
				ok = true
			} else if !vnfagent.IsRPCError(err) {
				// Broken transport (or wedged agent, closed by probe):
				// redial next round. An rpc-error (the crashed-EE
				// liveness signal) keeps the healthy session — redialing
				// every probe tick would churn a dial+hello handshake
				// per interval for the whole down period.
				client.Close()
				client = nil
			}
		}
		if ok {
			strikes = 0
			d.mu.Lock()
			wasDown := d.eeDown[ee]
			if wasDown {
				d.eeDown[ee] = false
			}
			d.mu.Unlock()
			if wasDown {
				d.emit(Fault{Kind: EEUp, EE: ee, Time: time.Now()})
			}
			continue
		}
		strikes++
		if strikes < d.cfg.FailThreshold {
			continue
		}
		now := time.Now()
		d.mu.Lock()
		wasDown := d.eeDown[ee]
		if !wasDown {
			d.eeDown[ee] = true
			d.eeDownAt[ee] = now
		}
		d.mu.Unlock()
		if !wasDown {
			d.emit(Fault{Kind: EEDown, EE: ee, Time: now})
		}
	}
}

// probe runs one liveness RPC with a hard deadline: the NETCONF client
// has no read timeout, so a wedged-but-connected agent would otherwise
// block this loop forever (and with it Stop's wg.Wait). On timeout the
// session is closed, which also unblocks the in-flight read so the
// helper goroutine exits. The caller owns deadline so each tick re-arms
// one timer instead of allocating.
func (d *Detector) probe(client *vnfagent.Client, deadline *time.Timer) error {
	done := make(chan error, 1)
	go func() {
		_, err := client.GetVNFInfo()
		done <- err
	}()
	deadline.Reset(d.cfg.ProbeTimeout)
	select {
	case err := <-done:
		return err
	case <-deadline.C:
		client.Close()
		<-done // reaped: the closed conn fails the pending read
		return fmt.Errorf("resilience: liveness probe timed out after %v", d.cfg.ProbeTimeout)
	}
}

// HandlePortStatus implements pox.PortStatusHandler: a MODIFY carrying
// link-down state on a port that belongs to an inter-switch link marks
// that link down (both ends report; the transition is deduplicated).
func (d *Detector) HandlePortStatus(c *pox.Connection, ps *openflow.PortStatus) {
	if ps.Reason != openflow.PortReasonModify {
		return
	}
	d.mu.Lock()
	sw, known := d.dpidSw[c.DPID()]
	d.mu.Unlock()
	if !known {
		return
	}
	lr := d.linkAt(sw, ps.Desc.PortNo)
	if lr == nil {
		return
	}
	key := linkID(lr.A, lr.B)
	down := ps.Desc.LinkDown()
	now := time.Now()
	d.mu.Lock()
	changed := d.linkDown[key] != down
	if changed {
		d.linkDown[key] = down
		if down {
			d.linkDownAt[key] = now
		}
	}
	d.mu.Unlock()
	if !changed {
		return
	}
	kind := LinkUp
	if down {
		kind = LinkDown
	}
	d.emit(Fault{Kind: kind, A: key[0], B: key[1], Time: now})
}

// linkAt resolves (switch, port) to the inter-switch resource link using
// the view's port bindings, or nil for host/EE attachment ports.
func (d *Detector) linkAt(sw string, port uint16) *core.LinkRes {
	for _, l := range d.cfg.View.Links {
		if (l.A == sw && l.PortA == port) || (l.B == sw && l.PortB == port) {
			return l
		}
	}
	return nil
}

// linkID returns the canonical (sorted) endpoint pair for a link.
func linkID(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
