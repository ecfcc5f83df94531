// Package core is a structural stand-in for escape/internal/core: the
// epochpin analyzer matches by package name + type name, so the corpus
// can exercise the copy-on-write rules — including the ones that only
// arise inside the core package itself, where viewState and the
// shared-return methods are visible — without importing the real thing.
package core

import "sort"

type Mapping struct{}

type eeRec struct {
	cpu    int64
	mem    int
	masked bool
}

type viewBase struct {
	ee map[string]eeRec
}

type viewDelta struct {
	ee map[string]eeRec
}

// viewState is one published, immutable epoch.
type viewState struct {
	epoch uint64
	base  *viewBase
	delta *viewDelta
}

// Capacities is a snapshot pin of one epoch.
type Capacities struct {
	CPU map[string]float64
	st  *viewState
}

func (c *Capacities) Clone() *Capacities { return &Capacities{CPU: c.CPU, st: c.st} }

type ResourceView struct {
	state *viewState
}

func (rv *ResourceView) Snapshot() *Capacities      { return &Capacities{st: rv.state} }
func (rv *ResourceView) Commit(m *Mapping)          {}
func (rv *ResourceView) Release(m *Mapping)         {}
func (rv *ResourceView) tryPublish(m *Mapping) bool { return true }
func (rv *ResourceView) TryCommitMapping(m *Mapping) (bool, error) {
	return true, nil
}
func (rv *ResourceView) AdmitAndCommit(m *Mapping)    {}
func (rv *ResourceView) neighbors(sw string) []string { return nil }
func (rv *ResourceView) hopDistancesShared() map[string]int {
	return nil
}

// --- rule 2: published epochs are immutable ---

func writesThroughPublishedState(rv *ResourceView, st *viewState) {
	st.base.ee["ee1"] = eeRec{cpu: 4}  // want `write through a published viewState epoch`
	st.delta.ee["ee1"] = eeRec{mem: 1} // want `write through a published viewState epoch`
	delete(rv.state.delta.ee, "ee2")   // want `write through a published viewState epoch`
}

// Regression: the PR 5 aliasing bug wrote through the pin's epoch
// pointer instead of building a fresh delta.
func writesThroughPinState(caps *Capacities) {
	caps.st.base.ee["ee1"] = eeRec{masked: true} // want `write through a published viewState epoch`
}

// The legal shape: mutate a fresh, unpublished delta/base, then publish
// the assembled state in one shot.
func legalPublish(rv *ResourceView) {
	d := &viewDelta{ee: map[string]eeRec{}}
	d.ee["ee1"] = eeRec{cpu: 4}
	nb := &viewBase{ee: map[string]eeRec{}}
	nb.ee["ee1"] = eeRec{cpu: 8}
	delete(nb.ee, "ee2")
	rv.state = &viewState{epoch: 1, base: nb, delta: d}
}

// --- rule 3: shared returns are read-only ---

func mutatesSharedReturns(rv *ResourceView) {
	ns := rv.neighbors("sw1")
	ns[0] = "sw9"          // want `mutating result of neighbors`
	ns = append(ns, "sw2") // want `append on result of neighbors`
	sort.Strings(ns)       // want `sorting result of neighbors in place`
	hd := rv.hopDistancesShared()
	hd["sw1"] = 3     // want `mutating result of hopDistancesShared`
	delete(hd, "sw2") // want `delete on result of hopDistancesShared`
}

func copiesBeforeMutating(rv *ResourceView) {
	ns := rv.neighbors("sw1")
	cp := append([]string(nil), ns...)
	cp[0] = "sw9"
	sort.Strings(cp)
	hd := rv.hopDistancesShared()
	own := make(map[string]int, len(hd))
	for k, v := range hd {
		own[k] = v
	}
	delete(own, "sw2")
}
