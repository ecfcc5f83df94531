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
//   - its wake channel, kicked by whatever creates work from another
//     goroutine: WriteHandler, the ControlSocket and InjectPush;
//   - one timer armed to the earliest Deadliner deadline.
//
// Nothing here polls, and no mutex is held while blocked.

import (
	"context"
	"reflect"
	"time"
)

// Deadliner is implemented by time-gated elements (RatedSource,
// TimedSource, RatedUnqueue, BandwidthShaper): elements that can have work
// to do with no frame arriving and no handler written, just because time
// passed. The idle driver asks each, under the element lock, for the next
// such instant and sleeps no longer than the earliest; ok false means the
// element is waiting for something other than time. A deadline in the past
// makes the driver run another round at once.
type Deadliner interface {
	NextDeadline() (at time.Time, ok bool)
}

// refillAt is when a token bucket last refilled at last, holding tokens
// and filling at rate per second, reaches one whole token.
func refillAt(last time.Time, tokens, rate float64) time.Time {
	return last.Add(time.Duration((1 - tokens) / rate * float64(time.Second)))
}

// parkArity is how many device channels the park select names directly;
// routers with more ingress channels than this park through reflect.Select,
// which allocates per wait and is kept off the common path for that reason.
const parkArity = 4

// parker is what the driver goroutine blocks on when idle.
type parker struct {
	wake  chan struct{} // cap 1: a kick that finds it full is already pending
	chans []*FromDevice // ingress devices
	recv  [parkArity]<-chan []byte
	timed []Element            // Deadliners
	timer *time.Timer          // non-nil iff len(timed) > 0
	many  []reflect.SelectCase // built on first use when len(chans) > parkArity
}

// newParker builds the idle state of a driver that must wake for the given
// Deadliners; watch adds the tasks it runs.
func newParker(timed []Element) *parker {
	pk := &parker{wake: make(chan struct{}, 1), timed: timed}
	if len(timed) > 0 {
		pk.timer = time.NewTimer(time.Hour)
		pk.timer.Stop()
	}
	return pk
}

// watch makes the parker wait on e's device if e is an ingress FromDevice;
// other elements announce their work through kicks and deadlines.
func (pk *parker) watch(e Element) {
	f, ok := e.(*FromDevice)
	if !ok {
		return
	}
	if len(pk.chans) < parkArity {
		pk.recv[len(pk.chans)] = f.dev.Recv()
	}
	pk.chans = append(pk.chans, f)
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
// for it and reports false once ctx is done.
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
	if len(pk.chans) > parkArity {
		return r.parkMany(ctx, tick, deadline)
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

// parkMany is park's select for more than parkArity device channels.
func (r *Router) parkMany(ctx context.Context, tick, deadline <-chan time.Time) bool {
	pk := r.idle
	const fixed = 4 // ctx, tick, wake, deadline
	if pk.many == nil {
		pk.many = make([]reflect.SelectCase, fixed, fixed+len(pk.chans))
		for i, c := range []any{ctx.Done(), tick, pk.wake} {
			pk.many[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(c)}
		}
		for _, f := range pk.chans {
			pk.many = append(pk.many, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.dev.Recv())})
		}
	}
	// deadline is nil when no deadline is pending; a nil channel never fires.
	pk.many[3] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(deadline)}
	switch i, v, ok := reflect.Select(pk.many); {
	case i == 0:
		return false
	case i == 1:
		r.tick(v.Interface().(time.Time))
	case i >= fixed && ok:
		pk.chans[i-fixed].stash(v.Bytes())
	}
	return true
}
