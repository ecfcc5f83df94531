// Package resilience is a failure detector that marks the view: it
// watches the substrate (EE liveness over the NETCONF management plane,
// switch link state over OpenFlow PORT_STATUS) and, at each transition,
// masks the failed EE or link out of the core.ResourceView — or lifts
// the mask on recovery — and pokes Changed. The view's masks are the one
// record of faults: admission avoids masked resources, and
// core.Orchestrator.Heal moves a Running service off the ones its
// mapping touches. The control plane's reconciler wakes on Changed and
// heals; nothing here acts on a service.
//
// The original ESCAPE assumes a fault-free substrate; dynamic
// re-chaining under failures is the open problem this closes for the
// reproduction: experiment E11 kills EEs and links mid-traffic and
// measures detection latency, healing latency and the loss window.
package resilience

import (
	"sort"
	"sync"
	"time"

	"escape/internal/core"
	"escape/internal/openflow"
	"escape/internal/pox"
	"escape/internal/vnfagent"
)

// DetectorConfig wires a Detector to the substrate it watches.
type DetectorConfig struct {
	// View resolves dpids and link endpoints, and carries the masks the
	// detector sets.
	View *core.ResourceView
	// Agents maps EE names to their NETCONF management addresses (the
	// same control network the orchestrator uses).
	Agents map[string]string
	// ProbeInterval is the EE liveness probe period (default 25ms — the
	// emulated management plane answers in microseconds). A probe is one
	// getVNFInfo call, bounded by the NETCONF client's per-RPC deadline:
	// a probe of a hung agent fails at that bound, and its EE is marked
	// down within failThreshold × (ProbeInterval + bound).
	ProbeInterval time.Duration
}

// failThreshold is how many consecutive probe failures mark an EE down:
// one flap is not a funeral.
const failThreshold = 2

// Detector watches EE liveness and link state. Every transition masks
// or unmasks the view and then pokes Changed, both under the detector's
// lock, so a reader woken by Changed finds the view's masks already
// agreeing with the detector; a burst of transitions coalesces into one
// wake and none is lost. Register it with the pox controller to receive
// PORT_STATUS events, and Start it to begin NETCONF probing.
type Detector struct {
	cfg DetectorConfig

	changed chan struct{}

	mu         sync.Mutex
	eeDown     map[string]bool
	eeDownAt   map[string]time.Time
	linkDown   map[[2]string]bool
	linkDownAt map[[2]string]time.Time
	dpidSw     map[uint64]string
	stopCh     chan struct{}
	stopped    bool
	wg         sync.WaitGroup
}

// NewDetector builds a detector over a resource view and agent map.
func NewDetector(cfg DetectorConfig) *Detector {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	d := &Detector{
		cfg:        cfg,
		changed:    make(chan struct{}, 1),
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

// Changed returns a one-slot channel that receives after a down-state
// transition (whose mask is already set or lifted), coalescing with any
// wake still pending. Stop closes it.
func (d *Detector) Changed() <-chan struct{} { return d.changed }

// changedLocked pokes Changed; d.mu is held, which orders it against
// Stop's close.
func (d *Detector) changedLocked() {
	if d.stopped {
		return
	}
	select {
	case d.changed <- struct{}{}:
	default: // a wake is pending; its reader will see this change too
	}
}

// EEDownSince returns the detection timestamp of an EE's current down
// state (false when the EE is not considered down). Experiments measure
// detection latency from it — exact even when one heal covered this
// fault together with others.
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

// Stop halts probing and closes Changed. It returns once every prober
// has finished its probe in flight, which the NETCONF client bounds
// even against a hung agent. The close happens under the lock every
// poke is made under: a PORT_STATUS delivered by the pox read loop
// concurrently with Stop either pokes before the close or not at all.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	close(d.changed)
	d.mu.Unlock()
	close(d.stopCh)
	d.wg.Wait()
}

// probeLoop probes one EE's agent over NETCONF: getVNFInfo doubles as
// the liveness RPC (a crashed EE answers with an error, a dead agent
// does not answer at all). State flips after failThreshold consecutive
// failures, and back on the first success; each flip masks or unmasks
// the EE in the view.
func (d *Detector) probeLoop(ee, addr string) {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.ProbeInterval)
	defer ticker.Stop()
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
		// A probe that outlasted the interval leaves a tick pending beside
		// a Stop: stop wins, so Stop waits for one probe at most.
		select {
		case <-d.stopCh:
			return
		default:
		}
		ok := false
		if client == nil {
			client, _ = vnfagent.DialClient(addr)
		}
		if client != nil {
			if _, err := client.GetVNFInfo(); err == nil {
				ok = true
			} else if !vnfagent.IsRPCError(err) {
				// Broken transport (or a hung agent, whose missed
				// deadline broke it): redial next round. An rpc-error
				// (the crashed-EE liveness signal) keeps the healthy
				// session — redialing every probe tick would churn a
				// dial+hello handshake per interval for the whole down
				// period.
				client.Close()
				client = nil
			}
		}
		if ok {
			strikes = 0
			d.mu.Lock()
			if d.eeDown[ee] {
				d.eeDown[ee] = false
				d.cfg.View.UnexcludeEE(ee)
				d.changedLocked()
			}
			d.mu.Unlock()
			continue
		}
		strikes++
		if strikes < failThreshold {
			continue
		}
		now := time.Now()
		d.mu.Lock()
		if !d.eeDown[ee] {
			d.eeDown[ee] = true
			d.eeDownAt[ee] = now
			d.cfg.View.ExcludeEE(ee)
			d.changedLocked()
		}
		d.mu.Unlock()
	}
}

// HandlePortStatus implements pox's port-status handler: a MODIFY carrying
// link-down state on a port that belongs to an inter-switch link marks
// that link down and masks it in the view, and link-up state lifts both
// (both ends report; the transition is deduplicated).
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
	if d.linkDown[key] != down {
		d.linkDown[key] = down
		if down {
			d.linkDownAt[key] = now
			d.cfg.View.ExcludeLink(lr.A, lr.B)
		} else {
			d.cfg.View.UnexcludeLink(lr.A, lr.B)
		}
		d.changedLocked()
	}
	d.mu.Unlock()
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
