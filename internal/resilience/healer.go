package resilience

import (
	"sync"
	"time"

	"escape/internal/core"
)

// HealRecord documents one healing attempt on one service.
type HealRecord struct {
	Service string
	// Start/End bound the healing transaction; End-Start is the healing
	// latency E11 reports.
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
	// Detector supplies the current down-state the remap excludes, and
	// wakes the healer when it changes.
	Detector *Detector
}

// Healer is the healing controller: woken by the detector's Changed and
// by services reaching Running, it re-reads the detector's down-state
// and drives every affected Running service through Healing back to
// Running.
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

// Run heals until the detector stops (Detector.Stop closes Changed).
// It wakes on two one-slot channels: the detector's Changed, and its
// own, which an OnTransition callback pokes whenever a service reaches
// Running — that covers a service mapped onto an EE in the instant
// before the EE's failure was masked. Each wake aligns the view's masks
// with the detector and, while any fault is active, sweeps. A wake
// reads current state and pokes coalesce, so changes that land while a
// sweep runs leave one wake pending and none is lost.
func (h *Healer) Run() {
	defer close(h.done)
	running := make(chan struct{}, 1)
	cancel := h.cfg.Orch.OnTransition(func(ev core.Event) {
		if ev.State == core.StateRunning {
			select {
			case running <- struct{}{}:
			default:
			}
		}
	})
	defer cancel()
	for {
		select {
		case _, ok := <-h.cfg.Detector.Changed():
			if !ok {
				return
			}
		case <-running:
		}
		h.reconcileMasks()
		if h.anyFaultActive() {
			h.sweep()
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
// current belief: masked while down, unmasked once back. It is the only
// path that masks or unmasks, so a recovery can never leave a healthy
// resource masked out of admission.
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
// iteration: each detector change and each service reaching Running
// ends one.
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

// sweep heals every service the currently-down resources touch, in
// parallel, and records the outcomes. The down-predicates re-read the
// detector, so one sweep also covers faults that arrived while it ran.
func (h *Healer) sweep() {
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
