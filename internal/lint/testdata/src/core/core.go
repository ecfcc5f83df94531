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

// records is one epoch's records by ID, in copy-on-write chunks.
type records struct {
	chunks []*[32]eeRec
}

// recordsEdit builds the next epoch's records on fresh chunks.
type recordsEdit struct {
	prev, next records
}

// viewState is one published, immutable epoch.
type viewState struct {
	epoch  uint64
	ee     records
	masked []int32
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
func (rv *ResourceView) AdmitAndCommit(m *Mapping) {}
func (rv *ResourceView) eeNamesShared() []string   { return nil }
func (rv *ResourceView) hopDistancesShared() map[string]int {
	return nil
}

// --- rule 2: published epochs are immutable ---

func writesThroughPublishedState(rv *ResourceView, st *viewState) {
	st.ee.chunks[0][1] = eeRec{cpu: 4}     // want `write through a published viewState epoch`
	rv.state.ee.chunks[1] = nil            // want `write through a published viewState epoch`
	st.masked[0]++                         // want `write through a published viewState epoch`
	rv.state.ee.chunks[0][2].masked = true // want `write through a published viewState epoch`
}

// Regression: the PR 5 aliasing bug wrote through the pin's epoch
// pointer instead of building fresh records.
func writesThroughPinState(caps *Capacities) {
	caps.st.ee.chunks[0][0] = eeRec{masked: true} // want `write through a published viewState epoch`
}

// The legal shape: write fresh chunks of an unpublished edit, then
// publish the assembled state in one shot.
func legalPublish(rv *ResourceView) {
	e := &recordsEdit{prev: rv.state.ee}
	e.next.chunks = append([]*[32]eeRec(nil), e.prev.chunks...)
	e.next.chunks[0] = new([32]eeRec)
	e.next.chunks[0][1] = eeRec{cpu: 4}
	rv.state = &viewState{epoch: 1, ee: e.next}
}

// --- rule 3: shared returns are read-only ---

func mutatesSharedReturns(rv *ResourceView) {
	ns := rv.eeNamesShared()
	ns[0] = "sw9"          // want `mutating result of eeNamesShared`
	ns = append(ns, "sw2") // want `append on result of eeNamesShared`
	sort.Strings(ns)       // want `sorting result of eeNamesShared in place`
	hd := rv.hopDistancesShared()
	hd["sw1"] = 3     // want `mutating result of hopDistancesShared`
	delete(hd, "sw2") // want `delete on result of hopDistancesShared`
}

func copiesBeforeMutating(rv *ResourceView) {
	ns := rv.eeNamesShared()
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
