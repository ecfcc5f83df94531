package core

import (
	"sync"
	"time"
)

// ServiceState is one stage of a service's lifecycle. A deploy walks
// Pending → Mapped → Realizing → Steering → Running; any stage may drop
// to Failed (resources released, name freed), and Undeploy moves a
// running service to Removed. A running service whose substrate fails
// (EE crash, link down) drops to Healing while the resilience layer
// remaps and migrates the affected NFs, then returns to Running (or
// Failed when no feasible re-mapping exists). Failed and Removed are
// terminal.
type ServiceState int

// Lifecycle states.
const (
	// StatePending: the name is reserved, nothing committed yet.
	StatePending ServiceState = iota
	// StateMapped: mapping computed and resources committed atomically.
	StateMapped
	// StateRealizing: VNFs being initiated/connected/started over NETCONF.
	StateRealizing
	// StateSteering: chain flow rules being installed.
	StateSteering
	// StateRunning: deployed, steered, carrying traffic.
	StateRunning
	// StateHealing: a substrate failure hit the service; affected NFs are
	// being re-mapped, migrated and re-steered (unaffected NFs keep
	// carrying traffic throughout).
	StateHealing
	// StateFailed: a deploy stage failed; resources were rolled back.
	StateFailed
	// StateRemoved: torn down by Undeploy.
	StateRemoved
)

var stateNames = [...]string{
	StatePending:   "Pending",
	StateMapped:    "Mapped",
	StateRealizing: "Realizing",
	StateSteering:  "Steering",
	StateRunning:   "Running",
	StateHealing:   "Healing",
	StateFailed:    "Failed",
	StateRemoved:   "Removed",
}

// String implements fmt.Stringer.
func (s ServiceState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "Unknown"
}

// Terminal reports whether no further transitions can occur.
func (s ServiceState) Terminal() bool {
	return s == StateFailed || s == StateRemoved
}

// validNext is the transition relation of the lifecycle state machine.
var validNext = map[ServiceState][]ServiceState{
	StatePending:   {StateMapped, StateFailed},
	StateMapped:    {StateRealizing, StateFailed},
	StateRealizing: {StateSteering, StateFailed},
	StateSteering:  {StateRunning, StateFailed},
	StateRunning:   {StateHealing, StateRemoved, StateFailed},
	StateHealing:   {StateRunning, StateRemoved, StateFailed},
}

// canTransition reports whether from → to is a legal lifecycle step.
func canTransition(from, to ServiceState) bool {
	for _, n := range validNext[from] {
		if n == to {
			return true
		}
	}
	return false
}

// Event is one lifecycle transition, delivered to subscribers.
type Event struct {
	Service string
	State   ServiceState
	// Err carries the failure cause on StateFailed events.
	Err  error
	Time time.Time
}

// lifecycle holds a service's observable state.
type lifecycle struct {
	mu    sync.Mutex
	state ServiceState
	err   error
}

// minSubBuffer holds a full Pending→…→terminal walk, so a subscriber
// that drains at its leisure still sees every transition of a service.
const minSubBuffer = 8

// State returns the service's current lifecycle state.
func (svc *Service) State() ServiceState {
	svc.lc.mu.Lock()
	defer svc.lc.mu.Unlock()
	return svc.lc.state
}

// Err returns the failure cause once the service is Failed, else nil.
func (svc *Service) Err() error {
	svc.lc.mu.Lock()
	defer svc.lc.mu.Unlock()
	return svc.lc.err
}

// setState advances a service's state machine and notifies the
// orchestrator's subscribers. Illegal transitions are refused (the state
// machine never goes backwards) and reported as false — currently
// informational only: Heal and Undeploy serialize on svc.opMu rather
// than racing this edge. Delivery happens under subMu: sends are
// non-blocking, and holding the lock is what makes a concurrent cancel
// unable to interleave between snapshot and send — the
// send-on-closed-channel race.
func (o *Orchestrator) setState(svc *Service, to ServiceState, cause error) bool {
	svc.lc.mu.Lock()
	if !canTransition(svc.lc.state, to) {
		svc.lc.mu.Unlock()
		return false
	}
	svc.lc.state = to
	if to == StateFailed {
		svc.lc.err = cause
	}
	ev := Event{Service: svc.Name, State: to, Err: svc.lc.err, Time: time.Now()}
	svc.lc.mu.Unlock()

	o.subMu.Lock()
	for _, ch := range o.subs {
		select {
		case ch <- ev:
		default: // subscriber stopped draining; drop rather than block deploys
		}
	}
	o.subMu.Unlock()
	return true
}

// Subscribe returns a channel receiving every lifecycle event of every
// service (buffered with buf slots, minimum minSubBuffer) and a cancel
// function that unsubscribes and closes it. Events are dropped, never
// blocked on, when the subscriber lags.
func (o *Orchestrator) Subscribe(buf int) (<-chan Event, func()) {
	if buf < minSubBuffer {
		buf = minSubBuffer
	}
	ch := make(chan Event, buf)
	o.subMu.Lock()
	id := o.nextSub
	o.nextSub++
	o.subs[id] = ch
	o.subMu.Unlock()
	return ch, func() {
		o.subMu.Lock()
		if _, ok := o.subs[id]; ok {
			delete(o.subs, id)
			close(ch)
		}
		o.subMu.Unlock()
	}
}
