package api

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"escape/internal/core"
	"escape/internal/sg"
)

// Reconciler converges actual orchestrator state toward the store's
// desired state. It is a level-triggered controller: work items are
// intent IDs, reconcileOne reads both sides fresh every run and is
// idempotent, so duplicate enqueues are harmless. At most one worker
// touches a given intent at a time (keyed in-flight map); an enqueue
// that lands mid-run marks the intent for a re-run instead of racing.
// Drift wakes it: the backend calls back on every lifecycle transition,
// and a transition of a tenant-owned service enqueues that service.
// Faults wake it too: each receive from Faults enqueues every stored
// intent, so that a Running service on a newly masked EE or link heals
// and a Failed one retries as soon as capacity returns. Enqueue is a
// set insert plus a one-slot kick, so no transition is lost however
// far the workers lag: any number of transitions of one service
// coalesce into one run, which reads the current state. A periodic
// sweep — one reused Ticker — enqueues orphaned backend services whose
// intent is gone. Every finished run closes the settle channel, which
// is what Await blocks on instead of a clock.
type Reconciler struct {
	Store   *Store
	Backend Backend
	Metrics *Metrics
	Log     *slog.Logger
	// Faults wakes the reconciler after a substrate fault or recovery
	// changed the backend's masks (resilience.Detector.Changed); nil when
	// nothing watches the substrate. Its close is not an error: the
	// reconciler just stops listening.
	Faults <-chan struct{}
	// Workers bounds concurrent reconcile actions (default 4). The
	// crash-recovery test pins it to 1 for a deterministic replay
	// order.
	Workers int
	// Resync is the orphan-sweep period (default 2s).
	Resync time.Duration
	// Backoff is the base retry delay after a failed action; it doubles
	// per consecutive failure up to 32x (default 50ms).
	Backoff time.Duration

	mu        sync.Mutex
	queued    map[string]bool
	inflight  map[string]bool
	rerun     map[string]bool
	firstSeen map[string]time.Time
	attempts  map[string]int
	lastErr   map[string]string
	stopped   bool
	// settled is closed (and dropped, for the next waiter to replace)
	// after every reconcile run; nil while nobody waits.
	settled chan struct{}

	kick       chan struct{}
	stop       chan struct{}
	wg         sync.WaitGroup
	unregister func()
}

// Start launches the workers and the orphan sweep, registers for the
// backend's transitions and enqueues every stored intent.
func (r *Reconciler) Start() {
	if r.Workers <= 0 {
		r.Workers = 4
	}
	if r.Resync <= 0 {
		r.Resync = 2 * time.Second
	}
	if r.Backoff <= 0 {
		r.Backoff = 50 * time.Millisecond
	}
	if r.Metrics == nil {
		r.Metrics = &Metrics{}
	}
	if r.Log == nil {
		r.Log = slog.Default()
	}
	r.queued = map[string]bool{}
	r.inflight = map[string]bool{}
	r.rerun = map[string]bool{}
	r.firstSeen = map[string]time.Time{}
	r.attempts = map[string]int{}
	r.lastErr = map[string]string{}
	r.kick = make(chan struct{}, 1)
	r.stop = make(chan struct{})

	for i := 0; i < r.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	r.wg.Add(1)
	go r.resyncLoop()
	r.unregister = r.Backend.OnTransition(func(ev core.Event) {
		if tenantOf(ev.Service) == "" {
			return
		}
		if ev.State == core.StateHealing {
			r.Metrics.Heals.Add(1)
		}
		r.Enqueue(ev.Service)
	})
	r.enqueueAll()
}

// enqueueAll schedules every stored intent.
func (r *Reconciler) enqueueAll() {
	for _, in := range r.Store.Intents("") {
		r.Enqueue(in.ID)
	}
}

// Stop halts the controller; in-flight actions finish first.
func (r *Reconciler) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	r.unregister()
	close(r.stop)
	r.wg.Wait()
}

// Enqueue schedules an intent ID for reconciliation.
func (r *Reconciler) Enqueue(id string) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	if _, seen := r.firstSeen[id]; !seen {
		r.firstSeen[id] = time.Now()
	}
	if r.inflight[id] {
		r.rerun[id] = true
		r.mu.Unlock()
		return
	}
	if !r.queued[id] {
		r.queued[id] = true
		r.Metrics.ReconcileBacklog.Store(int64(len(r.queued) + len(r.inflight)))
	}
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// LastError reports the most recent reconcile failure for an intent
// ("" when the last action succeeded).
func (r *Reconciler) LastError(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr[id]
}

// Await blocks until cond holds or the timeout passes, reporting
// whether it held. cond is re-checked after every reconcile run, so it
// should read state that runs follow: the store, LastError, or the
// backend, whose lifecycle transitions enqueue runs.
func (r *Reconciler) Await(timeout time.Duration, cond func() bool) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Take the channel before checking, so a run that settles in
		// between closes the one this waiter blocks on.
		r.mu.Lock()
		if r.settled == nil {
			r.settled = make(chan struct{})
		}
		settled := r.settled
		r.mu.Unlock()
		if cond() {
			return true
		}
		select {
		case <-settled:
		case <-timer.C:
			return cond()
		}
	}
}

// take claims the lowest queued ID (sorted order keeps single-worker
// replay deterministic), or reports none.
func (r *Reconciler) take() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.queued) == 0 {
		return "", false
	}
	ids := make([]string, 0, len(r.queued))
	for id := range r.queued {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	id := ids[0]
	delete(r.queued, id)
	r.inflight[id] = true
	return id, true
}

// finish releases an ID, re-queueing it when an enqueue landed mid-run,
// and wakes every Await.
func (r *Reconciler) finish(id string) {
	r.mu.Lock()
	delete(r.inflight, id)
	again := r.rerun[id]
	delete(r.rerun, id)
	if again && !r.stopped {
		r.queued[id] = true
	}
	r.Metrics.ReconcileBacklog.Store(int64(len(r.queued) + len(r.inflight)))
	if r.settled != nil {
		close(r.settled)
		r.settled = nil
	}
	r.mu.Unlock()
	if again {
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

func (r *Reconciler) worker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
		}
		for {
			id, ok := r.take()
			if !ok {
				break
			}
			r.reconcileOne(id)
			r.finish(id)
		}
	}
}

// resyncLoop periodically sweeps orphaned tenant services: a backend
// service with a tenant prefix but no intent must go (its intent was
// deleted and forgotten, or predates a store wipe). One Ticker for the
// life of the loop. It also turns each Faults wake into a run of every
// intent.
func (r *Reconciler) resyncLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.Resync)
	defer tick.Stop()
	faults := r.Faults
	for {
		select {
		case <-r.stop:
			return
		case _, ok := <-faults:
			if !ok {
				faults = nil // closed: a nil channel is never ready
				continue
			}
			r.enqueueAll()
		case <-tick.C:
			for _, name := range r.Backend.Services() {
				if tenantOf(name) != "" && r.Store.Intent(name) == nil {
					r.Enqueue(name)
				}
			}
		}
	}
}

// backoffDelay computes the retry delay after another failure of id.
func (r *Reconciler) backoffDelay(id string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.attempts[id]
	r.attempts[id] = n + 1
	d := r.Backoff << uint(min(n, 5))
	return d
}

// requeueAfter re-enqueues id after d (a fresh retry path, off the
// worker goroutine so a backoff never stalls the queue).
func (r *Reconciler) requeueAfter(id string, d time.Duration) {
	time.AfterFunc(d, func() { r.Enqueue(id) })
}

// converged marks id settled: lag observed, failure bookkeeping reset.
func (r *Reconciler) converged(id string) {
	r.mu.Lock()
	first, ok := r.firstSeen[id]
	delete(r.firstSeen, id)
	delete(r.attempts, id)
	delete(r.lastErr, id)
	r.mu.Unlock()
	if ok {
		r.Metrics.observeLag(time.Since(first))
	}
}

// failed records a reconcile error and schedules the retry. The failed
// action's own transitions (a deploy's Pending→Failed) marked the intent
// for a re-run; the backoff retry replaces that re-run, or every failure
// would retry at once.
func (r *Reconciler) failed(id string, err error) {
	r.Metrics.ReconcileErrors.Add(1)
	r.mu.Lock()
	r.lastErr[id] = err.Error()
	delete(r.rerun, id)
	r.mu.Unlock()
	r.Log.Warn("reconcile failed", "intent", id, "err", err)
	r.requeueAfter(id, r.backoffDelay(id))
}

// reconcileOne drives one intent toward its desired state. Reads both
// sides fresh; safe to run any number of times.
func (r *Reconciler) reconcileOne(id string) {
	in := r.Store.Intent(id)
	deployed := r.Backend.Deployed(id)
	running := r.Backend.Running(id)

	if in == nil || in.Desired == desiredRemoved {
		switch {
		case running:
			r.Metrics.ReconcileRuns.Add(1)
			if err := r.Backend.Undeploy(id); err != nil {
				r.failed(id, fmt.Errorf("undeploy: %w", err))
				return
			}
		case deployed:
			// A deploy is still in flight; it cannot be torn down until
			// it settles. Check back shortly.
			r.requeueAfter(id, r.Backoff)
			return
		}
		if in != nil {
			if err := r.Store.Forget(id); err != nil {
				r.failed(id, fmt.Errorf("forget: %w", err))
				return
			}
		}
		r.converged(id)
		return
	}

	// Desired: run. A Running service touching a masked EE or link is
	// drift too: Heal moves it off them (and is a no-op otherwise). A
	// heal that gave up left the service Failed and unregistered, so the
	// backoff retry is an ordinary redeploy around the masks.
	if running {
		if err := r.Backend.Heal(id); err != nil {
			r.Metrics.HealFailures.Add(1)
			r.failed(id, fmt.Errorf("heal: %w", err))
			return
		}
		r.converged(id)
		return
	}
	if deployed {
		// In flight (another worker, or a pre-crash deploy settling).
		r.requeueAfter(id, r.Backoff)
		return
	}
	// The stored graph is canonical already (NewIntent), so decoding it
	// gives the graph CanonicalGraph would.
	g, err := sg.FromJSON(in.Graph)
	if err != nil {
		// A graph that no longer parses is permanently broken; surface
		// it on the intent and stop retrying.
		r.mu.Lock()
		r.lastErr[id] = "invalid graph: " + err.Error()
		r.mu.Unlock()
		return
	}
	r.Metrics.ReconcileRuns.Add(1)
	if err := r.Backend.Deploy(g); err != nil {
		r.failed(id, fmt.Errorf("deploy: %w", err))
		return
	}
	r.converged(id)
}
