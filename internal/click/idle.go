package click

// The idle state of the driver. Click's userlevel driver blocks in select()
// on its device fds when no task has work; so does this one. When a full
// round of tasks reports nothing done, the Run goroutine parks in one
// blocking select (Router.park) over
//
//   - ctx, so Stop returns at once;
//   - the tick;
//   - the receive channel of each ingress FromDevice: the frame that ends
//     the wait is stashed on that FromDevice and is the first one its next
//     run emits, so order and counts are exact;
//   - its wake channel, kicked by a handler write from another goroutine
//     (WriteHandler, the ControlSocket);
//   - one timer armed to the earliest Deadliner deadline.
//
// Nothing here polls, and no mutex is held while blocked.

import (
	"context"
	"fmt"
	"time"
)

// Deadliner is implemented by time-gated elements (RatedUnqueue): elements
// that can have work to do with no frame arriving and no handler written,
// just because time passed. The idle driver asks each, under the element
// lock, for the next such instant and sleeps no longer than the earliest;
// ok false means the element is waiting for something other than time. A
// deadline in the past makes the driver run another round at once.
type Deadliner interface {
	NextDeadline() (at time.Time, ok bool)
}

// parkArity is how many ingress FromDevices a router may have: the park
// select names each device channel as a case of its own. No catalog type
// has more than two.
const parkArity = 4

// parker is what the driver goroutine blocks on when idle.
type parker struct {
	wake  chan struct{} // cap 1: a kick that finds it full is already pending
	chans []*FromDevice // ingress devices
	recv  [parkArity]<-chan []byte
	timed []Element   // Deadliners
	timer *time.Timer // non-nil iff len(timed) > 0
}

// newParker builds the idle state of a driver that runs tasks and must
// wake for the given Deadliners. It refuses more than parkArity ingress
// FromDevices.
func newParker(timed []Element, tasks []taskEntry) (*parker, error) {
	pk := &parker{wake: make(chan struct{}, 1), timed: timed}
	for _, te := range tasks {
		f, ok := te.eb.self.(*FromDevice)
		if !ok {
			continue
		}
		if len(pk.chans) == parkArity {
			return nil, fmt.Errorf("click: more than %d FromDevice elements in one router", parkArity)
		}
		pk.recv[len(pk.chans)] = f.dev.Recv()
		pk.chans = append(pk.chans, f)
	}
	if len(timed) > 0 {
		pk.timer = time.NewTimer(time.Hour)
		pk.timer.Stop()
	}
	return pk, nil
}

// kick makes the parker's goroutine run another round. It never blocks and
// is safe from any goroutine, with or without element locks held.
func (pk *parker) kick() {
	select {
	case pk.wake <- struct{}{}:
	default:
	}
}

// nextDeadline is the earliest deadline any timed element reports.
func (pk *parker) nextDeadline() (at time.Time, ok bool) {
	for _, e := range pk.timed {
		b := e.base()
		b.mu.Lock()
		t, has := e.(Deadliner).NextDeadline()
		b.mu.Unlock()
		if has && (!ok || t.Before(at)) {
			at, ok = t, true
		}
	}
	return at, ok
}

// park blocks the driver goroutine until something may have created work
// for it and reports false once ctx is done. Receive cases for absent
// devices name nil channels, which never fire.
func (r *Router) park(ctx context.Context, tick <-chan time.Time) bool {
	pk := r.idle
	var deadline <-chan time.Time
	if at, ok := pk.nextDeadline(); ok {
		d := time.Until(at)
		if d <= 0 {
			return true
		}
		pk.timer.Reset(d)
		deadline = pk.timer.C
	}
	select {
	case <-ctx.Done():
		return false
	case now := <-tick:
		r.tick(now)
	case <-pk.wake:
	case <-deadline:
	case frame := <-pk.recv[0]:
		pk.chans[0].stash(frame)
	case frame := <-pk.recv[1]:
		pk.chans[1].stash(frame)
	case frame := <-pk.recv[2]:
		pk.chans[2].stash(frame)
	case frame := <-pk.recv[3]:
		pk.chans[3].stash(frame)
	}
	return true
}
