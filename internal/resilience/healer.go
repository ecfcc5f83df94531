package resilience

import (
	"sync"
	"time"

	"escape/internal/core"
)

// HealRecord documents one healing attempt on one service.
type HealRecord struct {
	Service string
	// Fault is the event that triggered the attempt.
	Fault Fault
	// Start/End bound the healing transaction; End-Start is the healing
	// latency E11 reports, Fault.Time-injection the detection latency.
	Start, End time.Time
	// Moved maps migrated NF ids to their new EEs.
	Moved map[string]string
	// Rerouted lists re-steered SG link ids.
	Rerouted []string
	// Err is non-nil when the service could not be healed (it was torn
	// down to Failed).
	Err error
}

// HealerConfig wires a healing controller.
type HealerConfig struct {
	// Orch is the orchestrator whose services are healed.
	Orch *core.Orchestrator
	// View is masked on failures (ExcludeEE/ExcludeLink) so future
	// admissions avoid dead resources, and unmasked on recovery.
	View *core.ResourceView
	// Detector supplies fault events and the current down-state the
	// remap excludes.
	Detector *Detector
}

// Healer is the healing controller: it subscribes to the orchestrator's
// lifecycle events and the detector's fault stream, and drives every
// affected Running service through Healing back to Running.
type Healer struct {
	cfg HealerConfig

	mu      sync.Mutex
	records []HealRecord
	// settled is closed (and dropped, for the next waiter to replace)
	// after every Run loop iteration; nil while nobody waits.
	settled chan struct{}

	done chan struct{}
}

// NewHealer builds a healing controller; call Run (usually in a
// goroutine) to start it.
func NewHealer(cfg HealerConfig) *Healer {
	return &Healer{cfg: cfg, done: make(chan struct{})}
}

// resweepInterval paces the safety re-sweep while faults are active.
const resweepInterval = 200 * time.Millisecond

// Run consumes faults until the detector's event stream closes
// (Detector.Stop). The orchestrator subscription covers the race where a
// service maps onto an EE in the instant before its failure is masked:
// when such a service reaches Running during an active fault, the
// Running event triggers a re-sweep. Because that subscription is lossy
// under churn (setState drops events for laggards, and Run is busy
// inside sweeps), a periodic safety re-sweep runs as long as any fault
// is active — no affected service can stay stranded on a dead resource
// behind a dropped event.
func (h *Healer) Run() {
	orchEvents, cancel := h.cfg.Orch.Subscribe(256)
	defer cancel()
	defer close(h.done)
	ticker := time.NewTicker(resweepInterval)
	defer ticker.Stop()
	for {
		select {
		case f, ok := <-h.cfg.Detector.Events():
			if !ok {
				return
			}
			h.handleFault(f)
		case ev, ok := <-orchEvents:
			if !ok {
				return
			}
			if ev.State == core.StateRunning && h.anyFaultActive() {
				h.sweep(Fault{Kind: Resweep, Time: time.Now()})
			}
		case <-ticker.C:
			// Masks and heals both re-derive from detector state here, so
			// a fault event lost to the (bounded) stream can strand
			// neither a masked-out healthy EE nor an affected service.
			h.reconcileMasks()
			if h.anyFaultActive() {
				h.sweep(Fault{Kind: Resweep, Time: time.Now()})
			}
		}
		h.mu.Lock()
		if h.settled != nil {
			close(h.settled)
			h.settled = nil
		}
		h.mu.Unlock()
	}
}

// reconcileMasks aligns the view's exclusion masks with the detector's
// current belief. The event-driven path (handleFault) reacts instantly;
// this periodic pass is the lossless backstop — in particular a dropped
// EEUp/LinkUp event must not leave a healthy resource masked out of
// admission forever.
func (h *Healer) reconcileMasks() {
	d := h.cfg.Detector
	for ee := range d.cfg.Agents {
		if d.EEIsDown(ee) {
			h.cfg.View.ExcludeEE(ee)
		} else if h.cfg.View.ExcludedEE(ee) {
			h.cfg.View.UnexcludeEE(ee)
		}
	}
	for _, l := range d.cfg.View.Links {
		if d.LinkIsDown(l.A, l.B) {
			h.cfg.View.ExcludeLink(l.A, l.B)
		} else if h.cfg.View.ExcludedLink(l.A, l.B) {
			h.cfg.View.UnexcludeLink(l.A, l.B)
		}
	}
}

// Done is closed when Run returns.
func (h *Healer) Done() <-chan struct{} { return h.done }

// Records snapshots all healing attempts so far.
func (h *Healer) Records() []HealRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]HealRecord(nil), h.records...)
}

// WaitIdle blocks until no Running/Healing service is affected by the
// currently-detected faults, or the timeout elapses. Returns true when
// the system quiesced. The condition is re-checked after every Run loop
// iteration: each fault, lifecycle event and resweep tick ends one.
func (h *Healer) WaitIdle(timeout time.Duration) bool {
	idle := func() bool {
		return len(h.cfg.Orch.AffectedServices(h.cfg.Detector.EEIsDown, h.cfg.Detector.LinkIsDown)) == 0
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		h.mu.Lock()
		if h.settled == nil {
			h.settled = make(chan struct{})
		}
		settled := h.settled
		h.mu.Unlock()
		if idle() {
			return true
		}
		select {
		case <-settled:
		case <-h.done:
			return idle()
		case <-timer.C:
			return idle()
		}
	}
}

// anyFaultActive reports whether the detector currently believes any
// EE or link is down.
func (h *Healer) anyFaultActive() bool {
	d := h.cfg.Detector
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, down := range d.eeDown {
		if down {
			return true
		}
	}
	for _, down := range d.linkDown {
		if down {
			return true
		}
	}
	return false
}

// handleFault masks/unmasks the view and heals on down events.
func (h *Healer) handleFault(f Fault) {
	switch f.Kind {
	case EEDown:
		h.cfg.View.ExcludeEE(f.EE)
		h.sweep(f)
	case EEUp:
		h.cfg.View.UnexcludeEE(f.EE)
	case LinkDown:
		h.cfg.View.ExcludeLink(f.A, f.B)
		h.sweep(f)
	case LinkUp:
		h.cfg.View.UnexcludeLink(f.A, f.B)
	}
}

// sweep heals every service the currently-down resources touch, in
// parallel, and records the outcomes. The down-predicates re-read the
// detector, so one sweep also covers faults that arrived while it ran.
func (h *Healer) sweep(trigger Fault) {
	eeDown := h.cfg.Detector.EEIsDown
	linkDown := h.cfg.Detector.LinkIsDown
	affected := h.cfg.Orch.AffectedServices(eeDown, linkDown)
	var wg sync.WaitGroup
	for _, name := range affected {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			start := time.Now()
			report, err := h.cfg.Orch.Heal(name, eeDown, linkDown)
			rec := HealRecord{
				Service: name,
				Fault:   trigger,
				Start:   start,
				End:     time.Now(),
				Err:     err,
			}
			if report != nil {
				rec.Moved = report.Moved
				rec.Rerouted = report.Rerouted
			}
			h.mu.Lock()
			h.records = append(h.records, rec)
			h.mu.Unlock()
		}(name)
	}
	wg.Wait()
}
