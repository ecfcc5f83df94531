// Corpus for epochpin rule 1: a Snapshot pin must not be used after a
// Commit/Release on the same view. The bad cases reproduce the PR 5
// double-spend: admission validated against capacities pinned before a
// concurrent commit advanced the epoch.
package epochpin

import "core"

func use(interface{}) {}

// Regression: validate against a pin, commit, then keep reading the
// now-stale pin.
func staleAfterCommit(rv *core.ResourceView, m *core.Mapping) {
	caps := rv.Snapshot()
	use(caps)
	rv.Commit(m)
	use(caps) // want `snapshot pin caps is stale`
}

func staleAfterRelease(rv *core.ResourceView, m *core.Mapping) {
	caps := rv.Snapshot()
	rv.Release(m)
	use(caps.CPU) // want `snapshot pin caps is stale`
}

// A validated commit of a mapping computed elsewhere advances the epoch
// just the same.
func staleAfterTryCommit(rv *core.ResourceView, m *core.Mapping) {
	caps := rv.Snapshot()
	if ok, _ := rv.TryCommitMapping(m); ok {
		use(caps) // want `snapshot pin caps is stale`
	}
}

func refreshedAfterCommit(rv *core.ResourceView, m *core.Mapping) {
	caps := rv.Snapshot()
	use(caps)
	rv.Commit(m)
	caps = rv.Snapshot()
	use(caps)
}

// Committing a different view does not invalidate this pin.
func otherViewCommit(a, b *core.ResourceView, m *core.Mapping) {
	caps := a.Snapshot()
	b.Commit(m)
	use(caps)
}

// The optimistic retry loop is the sanctioned shape: every iteration
// takes a fresh snapshot before the commit attempt.
func optimisticRetry(rv *core.ResourceView, m *core.Mapping) {
	for i := 0; i < 3; i++ {
		caps := rv.Snapshot()
		use(caps)
		rv.Commit(m)
	}
}

// A pin hoisted out of the loop goes stale on the second iteration.
func pinHoistedOutOfLoop(rv *core.ResourceView, m *core.Mapping) {
	caps := rv.Snapshot()
	for i := 0; i < 3; i++ {
		use(caps) // want `snapshot pin caps is stale`
		rv.Commit(m)
	}
}

// A clone of a pin is a pin of the same epoch and goes stale with it.
func cloneGoesStale(rv *core.ResourceView, m *core.Mapping) {
	caps := rv.Snapshot()
	cp := caps.Clone()
	rv.Commit(m)
	use(cp) // want `snapshot pin cp is stale`
}

// A commit on only one branch still poisons the pin afterwards: the
// analyzer must merge branch outcomes pessimistically.
func commitOnOneBranch(rv *core.ResourceView, m *core.Mapping, ok bool) {
	caps := rv.Snapshot()
	if ok {
		rv.Commit(m)
	}
	use(caps) // want `snapshot pin caps is stale`
}

func suppressed(rv *core.ResourceView, m *core.Mapping) {
	caps := rv.Snapshot()
	rv.Commit(m)
	//lint:ignore epochpin reading a stale epoch is fine for this metrics-only path
	use(caps)
}
