package api

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"escape/internal/core"
)

// Reconciler converges actual orchestrator state toward the store's
// desired state. It is a level-triggered controller: work items are
// intent IDs, reconcileOne reads both sides fresh every run and is
// idempotent, so duplicate enqueues are harmless. At most one worker
// touches a given intent at a time (keyed in-flight map); an enqueue
// that lands mid-run marks the intent for a re-run instead of racing.
// Drift is detected two ways: lifecycle events from the backend
// enqueue the affected service immediately, and a periodic resync —
// one reused Ticker, not a timer per iteration — re-enqueues
// everything and sweeps orphaned backend services whose intent is
// gone. Every finished run closes the settle channel, which
// is what Await blocks on instead of a clock.
type Reconciler struct {
	Store   *Store
	Backend Backend
	Metrics *Metrics
	Log     *slog.Logger
	// Workers bounds concurrent reconcile actions (default 4). The
	// crash-recovery test pins it to 1 for a deterministic replay
	// order.
	Workers int
	// Resync is the full re-enqueue period (default 2s).
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

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// Start launches the workers, the resync loop and the drift watcher.
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
	events, cancel := r.Backend.Subscribe(256)
	r.wg.Add(1)
	go r.driftLoop(events, cancel)
	r.EnqueueAll()
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

// EnqueueAll schedules every stored intent.
func (r *Reconciler) EnqueueAll() {
	for _, in := range r.Store.Intents("") {
		r.Enqueue(in.ID)
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
// backend, whose lifecycle events and the resync both enqueue runs.
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

// AwaitIdle blocks until no intent is queued or in flight (or the
// timeout passes), reporting whether the controller went idle. Backoff
// requeues count as pending work only once they fire, so callers
// should pair this with a check of their own convergence condition.
func (r *Reconciler) AwaitIdle(timeout time.Duration) bool {
	return r.Await(timeout, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.queued) == 0 && len(r.inflight) == 0
	})
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

// resyncLoop periodically re-enqueues all intents and sweeps orphaned
// tenant services. One Ticker for the life of the loop.
func (r *Reconciler) resyncLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.Resync)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.EnqueueAll()
			// Orphan sweep: a backend service with a tenant prefix but no
			// intent must go (its intent was deleted and forgotten, or
			// predates a store wipe).
			for _, name := range r.Backend.Services() {
				if TenantOf(name) != "" && r.Store.Intent(name) == nil {
					r.Enqueue(name)
				}
			}
		}
	}
}

// driftLoop reacts to backend lifecycle events: any transition of a
// tenant-owned service re-evaluates its intent, so failures (a heal
// that gave up, a deploy cancelled by shutdown) are retried without
// waiting for resync, and convergence is observed promptly.
func (r *Reconciler) driftLoop(events <-chan core.Event, cancel func()) {
	defer r.wg.Done()
	defer cancel()
	for {
		select {
		case <-r.stop:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if TenantOf(ev.Service) != "" {
				r.Enqueue(ev.Service)
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
		r.Metrics.ObserveLag(time.Since(first))
	}
}

// failed records a reconcile error and schedules the retry.
func (r *Reconciler) failed(id string, err error) {
	r.Metrics.ReconcileErrors.Add(1)
	r.mu.Lock()
	r.lastErr[id] = err.Error()
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

	if in == nil || in.Desired == DesiredRemoved {
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

	// Desired: run.
	if running {
		r.converged(id)
		return
	}
	if deployed {
		// In flight (another worker, or a pre-crash deploy settling).
		r.requeueAfter(id, r.Backoff)
		return
	}
	g, _, _, err := CanonicalGraph(in.Graph)
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
