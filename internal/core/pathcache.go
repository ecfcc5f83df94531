package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/sg"
)

// pathCacheK is how many candidate routes the path engine keeps per
// switch pair.
const pathCacheK = 4

// pairKey is a normalized (a < b) switch pair.
type pairKey struct{ a, b string }

func mkPairKey(a, b string) (pairKey, bool) {
	if a > b {
		return pairKey{b, a}, true // reversed
	}
	return pairKey{a, b}, false
}

// pathEntry holds the candidates for one switch pair, computed
// progressively: the first candidate is a single BFS (a cache miss costs
// no more than the uncached search), and further Yen-style alternatives
// are generated only when every known candidate is infeasible for some
// query. Candidates enumerate shortest loopless routes in nondecreasing
// hop order with a deterministic tie-break; avoided records the link
// masks in force at creation (so an unmask can invalidate exactly the
// entries that routed around the failure).
type pathEntry struct {
	routes  [][]string
	delays  []time.Duration
	avoided map[linkKey]bool

	// Yen extension state.
	pool      [][]string
	seenSig   map[string]bool
	exhausted bool
}

// pathCache is the shared cached path engine: candidates per
// (attach-switch pair), consumed by every registered mapper through
// mapContext.routeLinks → Capacities.ShortestFeasiblePath. Feasibility
// (bandwidth headroom, view-local masks, delay bounds) is checked at
// lookup time against the caller's Capacities overlay, so correctness
// never depends on invalidation; invalidation keeps the candidates
// *good* under failures:
//
//   - link masked (failure): drop exactly the entries whose candidates
//     cross the dead link — fresh candidates will route around it;
//   - link unmasked (heal): drop exactly the entries computed while the
//     link was down — they may be missing now-shorter paths.
//
// EE masks never touch the cache: they affect placement, not
// switch-level routing.
type pathCache struct {
	mu      sync.Mutex
	entries map[pairKey]*pathEntry
	users   map[linkKey]map[pairKey]bool // link → entries routing over it

	hits        atomic.Uint64
	misses      atomic.Uint64
	fallbacks   atomic.Uint64
	invalidated atomic.Uint64
}

// PathCacheStats is a snapshot of the path engine's counters. Hits and
// Fallbacks partition lookups: every lookup is served from cached
// candidates (hit) or falls back to a live BFS (no candidate feasible).
// Misses counts candidate-set creations (cold pairs) and Invalidated
// entries dropped by mask transitions; both are capacity/churn gauges,
// not lookup outcomes.
type PathCacheStats struct {
	Hits, Misses, Fallbacks, Invalidated uint64
}

func newPathCache() *pathCache {
	return &pathCache{
		entries: map[pairKey]*pathEntry{},
		users:   map[linkKey]map[pairKey]bool{},
	}
}

// PathCacheStats reports the engine's counters.
func (rv *ResourceView) PathCacheStats() PathCacheStats {
	pc := rv.paths
	return PathCacheStats{
		Hits:        pc.hits.Load(),
		Misses:      pc.misses.Load(),
		Fallbacks:   pc.fallbacks.Load(),
		Invalidated: pc.invalidated.Load(),
	}
}

// lookup serves one route query: the first known candidate passing the
// caller's feasibility overlay wins; when all known candidates fail the
// entry is extended by the next-shortest alternative until exhausted.
// Because candidates enumerate shortest paths in nondecreasing hop
// order, a feasible candidate is also a minimum-hop feasible route.
// Returns (nil, false) when no candidate exists — the caller falls back
// to BFS.
func (pc *pathCache) lookup(c *Capacities, a, b string, bw sg.BW, maxDelay time.Duration) ([]string, bool) {
	key, reversed := mkPairKey(a, b)
	pc.mu.Lock()
	e := pc.entries[key]
	if e == nil {
		pc.misses.Add(1)
		e = pc.newEntry(c.rv, key)
		pc.entries[key] = e
	}
	routes, delays := e.routes, e.delays
	pc.mu.Unlock()

	tried := 0
	for {
		for i := tried; i < len(routes); i++ {
			route := routes[i]
			if maxDelay > 0 && delays[i] > maxDelay {
				continue
			}
			feasible := true
			for j := 0; j+1 < len(route); j++ {
				if !c.linkFits(route[j], route[j+1], bw) {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			pc.hits.Add(1)
			out := make([]string, len(route))
			copy(out, route)
			if reversed {
				for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
					out[l], out[r] = out[r], out[l]
				}
			}
			return out, true
		}
		tried = len(routes)
		pc.mu.Lock()
		if len(e.routes) == tried && !e.exhausted && tried < pathCacheK {
			pc.extend(c.rv, key, e)
		}
		routes, delays = e.routes, e.delays
		pc.mu.Unlock()
		if len(routes) == tried {
			break // exhausted (or capped at k) with nothing feasible
		}
	}
	pc.fallbacks.Add(1)
	return nil, false
}

// bfsAvoiding is a deterministic BFS over the frozen adjacency index,
// skipping masked/banned links and banned nodes.
func bfsAvoiding(rv *ResourceView, src, dst string, masked, bannedEdges map[linkKey]bool, bannedNodes map[string]bool) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{}
	seen := map[string]bool{src: true}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range rv.adj[cur] {
			if seen[nb] || bannedNodes[nb] {
				continue
			}
			k := mkLinkKey(cur, nb)
			if masked[k] || bannedEdges[k] {
				continue
			}
			seen[nb] = true
			prev[nb] = cur
			if nb == dst {
				route := []string{dst}
				for at := dst; at != src; {
					at = prev[at]
					route = append([]string{at}, route...)
				}
				return route
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

// newEntry creates an entry with its first (shortest) candidate — one
// BFS, the same work the uncached path would do. Caller holds pc.mu.
func (pc *pathCache) newEntry(rv *ResourceView, key pairKey) *pathEntry {
	rv.buildTopoIndex()
	masked := rv.state.Load().maskedLinks()
	e := &pathEntry{avoided: masked, seenSig: map[string]bool{}}
	first := bfsAvoiding(rv, key.a, key.b, masked, nil, nil)
	if first == nil {
		e.exhausted = true
		return e
	}
	e.seenSig[strings.Join(first, ">")] = true
	pc.accept(rv, key, e, first)
	return e
}

// extend appends the next-shortest loopless alternative (Yen's spur
// step from the last accepted route, candidates pooled across rounds),
// or marks the entry exhausted. Caller holds pc.mu.
func (pc *pathCache) extend(rv *ResourceView, key pairKey, e *pathEntry) {
	last := e.routes[len(e.routes)-1]
	for i := 0; i+1 < len(last); i++ {
		root := last[:i+1]
		banned := map[linkKey]bool{}
		for _, p := range e.routes {
			if len(p) > i+1 && equalRoute(p[:i+1], root) {
				banned[mkLinkKey(p[i], p[i+1])] = true
			}
		}
		bannedNodes := map[string]bool{}
		for _, n := range root[:len(root)-1] {
			bannedNodes[n] = true
		}
		tail := bfsAvoiding(rv, last[i], key.b, e.avoided, banned, bannedNodes)
		if tail == nil {
			continue
		}
		full := append(append([]string{}, root...), tail[1:]...)
		sig := strings.Join(full, ">")
		if !e.seenSig[sig] {
			e.seenSig[sig] = true
			e.pool = append(e.pool, full)
		}
	}
	if len(e.pool) == 0 {
		e.exhausted = true
		return
	}
	sort.Slice(e.pool, func(x, y int) bool {
		if len(e.pool[x]) != len(e.pool[y]) {
			return len(e.pool[x]) < len(e.pool[y])
		}
		return strings.Join(e.pool[x], ">") < strings.Join(e.pool[y], ">")
	})
	next := e.pool[0]
	e.pool = e.pool[1:]
	pc.accept(rv, key, e, next)
}

// accept records one candidate route: delay precomputed, reverse index
// updated. Caller holds pc.mu.
func (pc *pathCache) accept(rv *ResourceView, key pairKey, e *pathEntry, route []string) {
	var total time.Duration
	for j := 0; j+1 < len(route); j++ {
		k := mkLinkKey(route[j], route[j+1])
		if l := rv.linkIdx[k]; l != nil {
			total += l.Delay
		}
		if pc.users[k] == nil {
			pc.users[k] = map[pairKey]bool{}
		}
		pc.users[k][key] = true
	}
	e.routes = append(e.routes, route)
	e.delays = append(e.delays, total)
}

func equalRoute(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dropEntry removes an entry and unregisters it from the reverse index,
// so a later rebuild of the same pair cannot be spuriously invalidated
// by links only its dead predecessor crossed. Caller holds pc.mu.
func (pc *pathCache) dropEntry(key pairKey, e *pathEntry) {
	for _, route := range e.routes {
		for i := 0; i+1 < len(route); i++ {
			lk := mkLinkKey(route[i], route[i+1])
			if set := pc.users[lk]; set != nil {
				delete(set, key)
				if len(set) == 0 {
					delete(pc.users, lk)
				}
			}
		}
	}
	delete(pc.entries, key)
	pc.invalidated.Add(1)
}

// onLinkMasked drops exactly the entries whose candidates cross the
// failed link (targeted invalidation: a failure touches only the pairs
// routing over it).
func (pc *pathCache) onLinkMasked(k linkKey) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key := range pc.users[k] {
		if e, ok := pc.entries[key]; ok {
			pc.dropEntry(key, e)
		}
	}
	delete(pc.users, k)
}

// onLinkUnmasked drops the entries that were computed while the link was
// down: their candidates routed around it and may now be longer than
// necessary.
func (pc *pathCache) onLinkUnmasked(k linkKey) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key, e := range pc.entries {
		if e.avoided[k] {
			pc.dropEntry(key, e)
		}
	}
}
