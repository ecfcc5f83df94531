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
	statePending ServiceState = iota
	// StateMapped: mapping computed and resources committed atomically.
	StateMapped
	// StateRealizing: VNFs being initiated/connected/started over NETCONF.
	stateRealizing
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
	statePending:   "Pending",
	StateMapped:    "Mapped",
	stateRealizing: "Realizing",
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

// validNext is the transition relation of the lifecycle state machine.
var validNext = map[ServiceState][]ServiceState{
	statePending:   {StateMapped, StateFailed},
	StateMapped:    {stateRealizing, StateFailed},
	stateRealizing: {StateSteering, StateFailed},
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

// setState advances a service's state machine and calls the
// orchestrator's transition callbacks. Illegal transitions are refused
// (the state machine never goes backwards) and reported as false —
// currently informational only: Heal and Undeploy serialize on
// svc.opMu rather than racing this edge. Callbacks run under subMu, so
// a concurrent cancel cannot interleave with a delivery: once cancel
// returns, its callback is never called again.
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
	for _, fn := range o.subs {
		fn(ev)
	}
	o.subMu.Unlock()
	return true
}

// OnTransition registers fn to be called with every lifecycle
// transition of every service, synchronously, on the goroutine that
// made the transition, and returns a cancel function. fn must not block
// and must not call OnTransition or a cancel function: it runs under
// the orchestrator's subscriber lock, in the deploy's own path. The
// intended shape is a wake: mark the service dirty, poke a one-slot
// channel, and let the consumer read current state (Service.State) when
// it gets round to it — no transition can be lost that way, however far
// the consumer lags. Cancel is idempotent.
func (o *Orchestrator) OnTransition(fn func(Event)) (cancel func()) {
	id := o.addSub(fn)
	return func() { o.dropSub(id) }
}

// Subscribe returns a channel receiving every lifecycle event of every
// service (buffered with buf slots, minimum minSubBuffer) and a cancel
// function that unsubscribes and closes it. Events are dropped, never
// blocked on, when the subscriber lags; a consumer that must not miss a
// change uses OnTransition and reads state instead.
func (o *Orchestrator) Subscribe(buf int) (<-chan Event, func()) {
	ch := make(chan Event, max(buf, minSubBuffer))
	id := o.addSub(func(ev Event) {
		select {
		case ch <- ev:
		default:
		}
	})
	return ch, func() {
		if o.dropSub(id) {
			close(ch)
		}
	}
}

func (o *Orchestrator) addSub(fn func(Event)) int {
	o.subMu.Lock()
	defer o.subMu.Unlock()
	id := o.nextSub
	o.nextSub++
	o.subs[id] = fn
	return id
}

// dropSub removes a callback, reporting whether it was registered.
func (o *Orchestrator) dropSub(id int) bool {
	o.subMu.Lock()
	defer o.subMu.Unlock()
	_, ok := o.subs[id]
	delete(o.subs, id)
	return ok
}
