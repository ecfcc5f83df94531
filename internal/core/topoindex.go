package core

import (
	"slices"
	"sort"
	"sync"

	"escape/internal/sg"
)

// topoIndex is the frozen topology in dense integer form, built once on
// first use: from then on the path engine searches int slices and an
// epoch's records are arrays indexed by ID, so no admission hashes a
// switch name per edge.
//
// Switch IDs follow sorted switch names and each adjacency list is sorted
// by neighbour ID, so every search visits neighbours in sorted-name order
// and breaks ties exactly as a name-keyed search would. Link IDs follow
// rv.Links with parallel links collapsed onto the first; EE IDs follow
// sorted EE names.
//
// Capacities freeze with the topology: each frozen EE's and link's
// capacity is converted to view units (sg.CPU, sg.BW) once, here, and
// every capacity check reads the stored value.
//
// Names outside the frozen index — an EE or link that is not part of the
// topology the index was built from — still carry records: a write gives
// such a name the next extra ID past the frozen ones, and its capacity
// resolves as it always did (an EE through rv.EEs, a link to none).
type topoIndex struct {
	swID   map[string]int32
	swName []string
	adj    [][]edge // by switch ID, sorted by neighbour

	links []*LinkRes // by link ID
	lcap  []linkCap  // by link ID

	eeID    map[string]int32
	eeNames []string // by EE ID: the sorted EE names
	ees     []*EERes // by EE ID
	ecap    []eeCap  // by EE ID
	eeSw    []int32  // attach switch ID by EE ID

	// xmu guards the extra IDs of names outside the frozen index.
	xmu   sync.Mutex
	xee   extraIDs[string]
	xlink extraIDs[linkKey]

	// pool holds the path searches' reusable *searchScratch.
	pool sync.Pool
}

// extraIDs numbers the names outside the frozen index, past its IDs.
type extraIDs[K comparable] struct {
	ids   map[K]int32
	names []K // by ID - the frozen count
}

// ref returns k's extra ID; a new name gets the next one when add is
// set, and -1 otherwise. Caller holds xmu.
func (x *extraIDs[K]) ref(k K, frozen int, add bool) int32 {
	if id, ok := x.ids[k]; ok {
		return id
	}
	if !add {
		return -1
	}
	if x.ids == nil {
		x.ids = map[K]int32{}
	}
	id := int32(frozen + len(x.names))
	x.ids[k] = id
	x.names = append(x.names, k)
	return id
}

// edge is one adjacency entry: the neighbour and the link reaching it.
type edge struct{ to, link int32 }

// eeCap is an EE's capacity in view units.
type eeCap struct {
	cpu sg.CPU
	mem int
}

// linkCap is a link's bandwidth capacity in view units. capped is false
// for an uncapacitated link (Bandwidth ≤ 0), which takes any bandwidth;
// a positive Bandwidth that rounds to 0 bit/s stays capped.
type linkCap struct {
	bw     sg.BW
	capped bool
}

// topo returns the frozen index, building it on first use.
func (rv *ResourceView) topo() *topoIndex {
	rv.topoOnce.Do(func() { rv.ix = buildTopoIndex(rv) })
	return rv.ix
}

// buildTopoIndex freezes the view's topology. The switch set is every
// named switch, link endpoint and EE or SAP attachment, so every attach
// switch has an ID even when no link reaches it.
func buildTopoIndex(rv *ResourceView) *topoIndex {
	names := map[string]bool{}
	for s := range rv.Switches {
		names[s] = true
	}
	for _, l := range rv.Links {
		names[l.A], names[l.B] = true, true
	}
	for _, e := range rv.EEs {
		names[e.Switch] = true
	}
	for _, s := range rv.SAPs {
		names[s.Switch] = true
	}
	ix := &topoIndex{swID: make(map[string]int32, len(names)), eeID: make(map[string]int32, len(rv.EEs))}
	for n := range names {
		ix.swName = append(ix.swName, n)
	}
	sort.Strings(ix.swName)
	for i, n := range ix.swName {
		ix.swID[n] = int32(i)
	}
	ix.adj = make([][]edge, len(ix.swName))
	seen := make(map[linkKey]bool, len(rv.Links))
	for _, l := range rv.Links {
		k := mkLinkKey(l.A, l.B)
		if seen[k] {
			continue // parallel links collapse onto the first
		}
		seen[k] = true
		id := int32(len(ix.links))
		ix.links = append(ix.links, l)
		ix.lcap = append(ix.lcap, linkCap{bw: capBW(l), capped: l.Bandwidth > 0})
		a, b := ix.swID[l.A], ix.swID[l.B]
		ix.adj[a] = append(ix.adj[a], edge{b, id})
		ix.adj[b] = append(ix.adj[b], edge{a, id})
	}
	for _, nbs := range ix.adj {
		sort.Slice(nbs, func(i, j int) bool { return nbs[i].to < nbs[j].to })
	}
	for n := range rv.EEs {
		ix.eeNames = append(ix.eeNames, n)
	}
	sort.Strings(ix.eeNames)
	for i, n := range ix.eeNames {
		ix.eeID[n] = int32(i)
		ix.ees = append(ix.ees, rv.EEs[n])
		ix.ecap = append(ix.ecap, eeCap{cpu: capCPU(rv.EEs[n]), mem: rv.EEs[n].Mem})
		ix.eeSw = append(ix.eeSw, ix.swID[rv.EEs[n].Switch])
	}
	return ix
}

// linkOf returns the link joining two switches, or -1.
func (ix *topoIndex) linkOf(a, b int32) int32 {
	nbs := ix.adj[a]
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i].to >= b })
	if i < len(nbs) && nbs[i].to == b {
		return nbs[i].link
	}
	return -1
}

// linkByName returns the link joining two named switches, or -1.
func (ix *topoIndex) linkByName(a, b string) int32 {
	ia, ok := ix.swID[a]
	if !ok {
		return -1
	}
	ib, ok := ix.swID[b]
	if !ok {
		return -1
	}
	return ix.linkOf(ia, ib)
}

// routeIDs resolves a switch route's hops to their link IDs (nil for no
// route). Every hop of a route the path engine found is a frozen link.
func (ix *topoIndex) routeIDs(route []string) []int32 {
	if len(route) < 2 {
		return nil
	}
	ids := make([]int32, len(route)-1)
	for i := range ids {
		ids[i] = ix.linkByName(route[i], route[i+1])
	}
	return ids
}

// eeRef resolves an EE name to its record ID. A name outside the frozen
// index gets an extra ID when add is set, and -1 otherwise.
func (ix *topoIndex) eeRef(name string, add bool) int32 {
	if id, ok := ix.eeID[name]; ok {
		return id
	}
	ix.xmu.Lock()
	defer ix.xmu.Unlock()
	return ix.xee.ref(name, len(ix.ees), add)
}

// linkRef resolves the link between two switches to its record ID, with
// eeRef's rule for pairs outside the frozen index.
func (ix *topoIndex) linkRef(a, b string, add bool) int32 {
	if id := ix.linkByName(a, b); id >= 0 {
		return id
	}
	ix.xmu.Lock()
	defer ix.xmu.Unlock()
	return ix.xlink.ref(mkLinkKey(a, b), len(ix.links), add)
}

// eeCapOf returns an EE's capacity and whether the EE exists: the frozen
// capacity, or for an extra ID that of whatever rv.EEs holds under its
// name now.
func (ix *topoIndex) eeCapOf(rv *ResourceView, id int32) (eeCap, bool) {
	if int(id) < len(ix.ecap) {
		return ix.ecap[id], true
	}
	ix.xmu.Lock()
	name := ix.xee.names[int(id)-len(ix.ees)]
	ix.xmu.Unlock()
	res := rv.EEs[name]
	if res == nil {
		return eeCap{}, false
	}
	return eeCap{cpu: capCPU(res), mem: res.Mem}, true
}

// frozenLink reports whether a link ID is one of the frozen index's: an
// extra ID is no link and has no capacity.
func (ix *topoIndex) frozenLink(id int32) bool { return id >= 0 && int(id) < len(ix.lcap) }

// recChunk is how many records one copy-on-write chunk holds.
const recChunk = 32

// records is one epoch's accounting records by ID, in fixed-size chunks.
// An epoch shares every chunk it did not touch with the epoch before it;
// a nil or missing chunk holds zero records. Immutable once published.
type records[T any] struct{ chunks []*[recChunk]T }

// at returns the record with the given ID; an ID of -1 (a name that never
// got one) reads as zero.
func (r records[T]) at(id int32) (v T) {
	if c := int(id) / recChunk; id >= 0 && c < len(r.chunks) && r.chunks[c] != nil {
		v = r.chunks[c][int(id)%recChunk]
	}
	return v
}

// recordsEdit derives the next epoch's records from prev: the first write
// copies the chunk-pointer slice, and the first write to a chunk copies
// that chunk, so a publish costs O(chunks + touched chunks × recChunk).
// next stays nil until the first write.
type recordsEdit[T any] struct{ prev, next records[T] }

func (e *recordsEdit[T]) get(id int32) T { return e.result().at(id) }

func (e *recordsEdit[T]) set(id int32, v T) {
	c := int(id) / recChunk
	if e.next.chunks == nil {
		e.next.chunks = slices.Clone(e.prev.chunks)
	}
	for len(e.next.chunks) <= c {
		e.next.chunks = append(e.next.chunks, nil)
	}
	// A chunk is this edit's own once it differs from prev's.
	if ch := e.next.chunks[c]; ch == nil || c < len(e.prev.chunks) && ch == e.prev.chunks[c] {
		fresh := new([recChunk]T)
		if ch != nil {
			*fresh = *ch
		}
		e.next.chunks[c] = fresh
	}
	e.next.chunks[c][int(id)%recChunk] = v
}

// result is the edited records: prev itself when nothing was written.
func (e *recordsEdit[T]) result() records[T] {
	if e.next.chunks != nil {
		return e.next
	}
	return e.prev
}
