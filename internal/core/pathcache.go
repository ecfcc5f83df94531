package core

import (
	"slices"
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

// pairKey is a normalized (a < b) switch-ID pair. IDs follow sorted
// names, so the normalization is the same as by name.
type pairKey struct{ a, b int32 }

func mkPairKey(a, b int32) (pairKey, bool) {
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
	routes  [][]string // switch names, for the caller
	nodes   [][]int32  // the same routes as switch IDs
	links   [][]int32  // link IDs along each route
	delays  []time.Duration
	avoided []int32 // ascending link IDs

	// Yen extension state.
	pool      []candidate
	seenSig   map[string]bool
	exhausted bool
}

// candidate is a pooled Yen alternative and its signature: the route's
// switch names joined with ">". The pool sorts on the signature, not on
// IDs or names element by element, which order "s1>…" and "s10>…"
// differently.
type candidate struct {
	nodes []int32
	sig   string
}

// pathCache is the shared cached path engine: candidates per
// (attach-switch pair), consumed by every registered mapper through
// mapContext.routeLinks → Capacities.shortestFeasible. Feasibility
// (bandwidth headroom, view-local masks, delay bounds) is checked at
// lookup time against the caller's Capacities overlay, so correctness
// never depends on invalidation. When no known candidate fits, one live
// search (bfsPath) on the same overlay decides the query before the
// entry grows: a query it finds no route for is rejected at once, so an
// infeasible query costs one search and never extends the entry.
// Invalidation keeps the candidates *good* under failures:
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
	users   map[int32]map[pairKey]bool // link ID → entries routing over it

	hits        atomic.Uint64
	misses      atomic.Uint64
	fallbacks   atomic.Uint64
	invalidated atomic.Uint64
}

// PathCacheStats is a snapshot of the path engine's counters. Hits and
// Fallbacks partition lookups: every lookup is served from cached
// candidates (hit) or answered by its one live search (fallback): a
// reject, or the search's route when none of the pair's up to
// pathCacheK candidates fits. Misses counts candidate-set creations
// (cold pairs) and Invalidated entries dropped by mask transitions; both
// are capacity/churn gauges, not lookup outcomes.
type PathCacheStats struct {
	Hits, Misses, Fallbacks, Invalidated uint64
}

func newPathCache() *pathCache {
	return &pathCache{
		entries: map[pairKey]*pathEntry{},
		users:   map[int32]map[pairKey]bool{},
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

// lookup serves one route query, answering the route together with its
// link IDs in hop order, so the caller reserves by ID without resolving
// a hop again: the first known candidate passing the caller's
// feasibility overlay wins, and hands back the entry's own link IDs
// (reversed into a copy when the query runs against the pair's order),
// which the caller only reads. When all known candidates fail, one
// live search (bfsPath) runs on the same overlay before anything else:
// if it finds no route, no candidate can be feasible either, and the
// query is rejected without growing the entry. Otherwise the entry is
// extended by the next-shortest alternative until one fits, the entry
// holds pathCacheK candidates or it is exhausted; then the search's
// route is the answer. Because candidates enumerate shortest paths in
// nondecreasing hop order, a feasible candidate is also a minimum-hop
// feasible route. Candidate order depends only on the entry's masks, not
// on when it grows, so skipping extension on infeasible queries changes
// no later answer. The live search's route is resolved to link IDs once,
// when it is the answer.
func (pc *pathCache) lookup(c *Capacities, a, b string, bw sg.BW, maxDelay time.Duration) ([]string, []int32) {
	ia, ok := c.ix.swID[a]
	ib, ok2 := c.ix.swID[b]
	if !ok || !ok2 {
		pc.fallbacks.Add(1)
		return nil, nil
	}
	key, reversed := mkPairKey(ia, ib)
	pc.mu.Lock()
	e := pc.entries[key]
	if e == nil {
		pc.misses.Add(1)
		e = pc.newEntry(c.rv, key)
		pc.entries[key] = e
	}
	routes, links, delays := e.routes, e.links, e.delays
	pc.mu.Unlock()

	var found []string // the live search's route, once it has run
	tried := 0
	for {
	candidates:
		for i := tried; i < len(routes); i++ {
			if maxDelay > 0 && delays[i] > maxDelay {
				continue
			}
			for _, l := range links[i] {
				if !c.linkFitsID(l, bw) {
					continue candidates
				}
			}
			pc.hits.Add(1)
			out, ids := slices.Clone(routes[i]), links[i]
			if reversed {
				slices.Reverse(out)
				ids = slices.Clone(ids)
				slices.Reverse(ids)
			}
			return out, ids
		}
		tried = len(routes)
		if found == nil {
			if found = c.bfsPath(a, b, bw, maxDelay); found == nil {
				break // no feasible route: a reject, proved by one search
			}
		}
		pc.mu.Lock()
		if len(e.routes) == tried && !e.exhausted && tried < pathCacheK {
			pc.extend(c.ix, key, e)
		}
		routes, links, delays = e.routes, e.links, e.delays
		pc.mu.Unlock()
		if len(routes) == tried {
			break // exhausted (or capped at k) with nothing feasible
		}
	}
	pc.fallbacks.Add(1)
	return found, c.ix.routeIDs(found)
}

// searchScratch is one search's working memory, reused across searches
// through its index's pool. Marks are generation-stamped: a search bumps
// gen instead of clearing O(switches + links) arrays, and an entry of
// prev or best is meaningful only where seen carries the current gen.
type searchScratch struct {
	gen     uint32
	seen    []uint32        // by switch ID: gen once reached (or banned)
	blocked []uint32        // by link ID: gen when masked or banned
	prev    []int32         // by switch ID: predecessor (bfsAvoiding)
	best    []time.Duration // by switch ID: lowest arrival delay (bfsPath)
	queue   []int32         // bfsAvoiding's frontier
	labels  []label         // bfsPath's arrivals, in BFS order
}

// label is one bfsPath arrival: a switch, the label it came from (an
// index into the labels; -1 at the source) and its delay from the source.
type label struct {
	sw, from int32
	delay    time.Duration
}

// scratch takes a search's working memory from the index's pool, sized
// to the index with every mark stale. Searches in flight at the same
// time each hold their own; the caller hands it back with
// ix.pool.Put.
func (ix *topoIndex) scratch() *searchScratch {
	s, _ := ix.pool.Get().(*searchScratch)
	if s == nil {
		n := len(ix.swName)
		s = &searchScratch{
			seen:    make([]uint32, n),
			blocked: make([]uint32, len(ix.links)),
			prev:    make([]int32, n),
			best:    make([]time.Duration, n),
		}
	}
	if s.gen++; s.gen == 0 { // wrapped: an old stamp could read as current
		clear(s.seen)
		clear(s.blocked)
		s.gen = 1
	}
	return s
}

// block marks links as unusable for the current search; an ID outside
// the index (a masked pair the index does not hold) is no link.
func (s *searchScratch) block(links []int32) {
	for _, l := range links {
		if int(l) < len(s.blocked) {
			s.blocked[l] = s.gen
		}
	}
}

// bfsAvoiding is a deterministic BFS over the frozen index from src to
// dst, skipping masked and banned links and banned switches. The sets
// are small, so they become marks by iterating them, never the whole
// link list; the marks live in pooled scratch, so the returned route is
// the search's only allocation.
func bfsAvoiding(ix *topoIndex, src, dst int32, masked, bannedLinks, bannedNodes []int32) []int32 {
	if src == dst {
		return []int32{src}
	}
	s := ix.scratch()
	defer ix.pool.Put(s)
	s.block(masked)
	s.block(bannedLinks)
	for _, n := range bannedNodes {
		s.seen[n] = s.gen // a banned switch counts as seen
	}
	s.seen[src] = s.gen
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		cur := s.queue[head]
		for _, e := range ix.adj[cur] {
			if s.seen[e.to] == s.gen || s.blocked[e.link] == s.gen {
				continue
			}
			s.seen[e.to], s.prev[e.to] = s.gen, cur
			if e.to == dst {
				hops := 0
				for at := dst; at != src; at = s.prev[at] {
					hops++
				}
				route := make([]int32, hops+1)
				for at := dst; ; at = s.prev[at] {
					route[hops] = at
					if at == src {
						return route
					}
					hops--
				}
			}
			s.queue = append(s.queue, e.to)
		}
	}
	return nil
}

// newEntry creates an entry with its first (shortest) candidate — one
// BFS, the same work the uncached path would do. Caller holds pc.mu.
func (pc *pathCache) newEntry(rv *ResourceView, key pairKey) *pathEntry {
	ix := rv.topo()
	masked := rv.state.Load().masked
	e := &pathEntry{avoided: masked, seenSig: map[string]bool{}}
	first := bfsAvoiding(ix, key.a, key.b, masked, nil, nil)
	if first == nil {
		e.exhausted = true
		return e
	}
	e.seenSig[routeSig(ix, first)] = true
	pc.accept(ix, key, e, first)
	return e
}

// routeSig is a route's signature: its switch names joined with ">".
func routeSig(ix *topoIndex, route []int32) string {
	var sb strings.Builder
	for i, n := range route {
		if i > 0 {
			sb.WriteByte('>')
		}
		sb.WriteString(ix.swName[n])
	}
	return sb.String()
}

// extend appends the next-shortest loopless alternative (Yen's spur
// step from the last accepted route, candidates pooled across rounds),
// or marks the entry exhausted. Caller holds pc.mu.
func (pc *pathCache) extend(ix *topoIndex, key pairKey, e *pathEntry) {
	last := e.nodes[len(e.nodes)-1]
	for i := 0; i+1 < len(last); i++ {
		root := last[:i+1]
		var banned []int32
		for j, p := range e.nodes {
			if len(p) > i+1 && slices.Equal(p[:i+1], root) {
				banned = append(banned, e.links[j][i])
			}
		}
		tail := bfsAvoiding(ix, last[i], key.b, e.avoided, banned, root[:len(root)-1])
		if tail == nil {
			continue
		}
		full := append(slices.Clone(root), tail[1:]...)
		sig := routeSig(ix, full)
		if !e.seenSig[sig] {
			e.seenSig[sig] = true
			e.pool = append(e.pool, candidate{nodes: full, sig: sig})
		}
	}
	if len(e.pool) == 0 {
		e.exhausted = true
		return
	}
	sort.Slice(e.pool, func(x, y int) bool {
		if len(e.pool[x].nodes) != len(e.pool[y].nodes) {
			return len(e.pool[x].nodes) < len(e.pool[y].nodes)
		}
		return e.pool[x].sig < e.pool[y].sig
	})
	next := e.pool[0].nodes
	e.pool = e.pool[1:]
	pc.accept(ix, key, e, next)
}

// accept records one candidate route: names, link IDs and delay
// precomputed, reverse index updated. Caller holds pc.mu.
func (pc *pathCache) accept(ix *topoIndex, key pairKey, e *pathEntry, route []int32) {
	names := make([]string, len(route))
	links := make([]int32, len(route)-1)
	var total time.Duration
	for j, n := range route {
		names[j] = ix.swName[n]
		if j+1 < len(route) {
			l := ix.linkOf(n, route[j+1])
			links[j] = l
			total += ix.links[l].Delay
			if pc.users[l] == nil {
				pc.users[l] = map[pairKey]bool{}
			}
			pc.users[l][key] = true
		}
	}
	e.routes = append(e.routes, names)
	e.nodes = append(e.nodes, route)
	e.links = append(e.links, links)
	e.delays = append(e.delays, total)
}

// dropEntry removes an entry and unregisters it from the reverse index,
// so a later rebuild of the same pair cannot be spuriously invalidated
// by links only its dead predecessor crossed. Caller holds pc.mu.
func (pc *pathCache) dropEntry(key pairKey, e *pathEntry) {
	for _, links := range e.links {
		for _, l := range links {
			if set := pc.users[l]; set != nil {
				delete(set, key)
				if len(set) == 0 {
					delete(pc.users, l)
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
func (pc *pathCache) onLinkMasked(l int32) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key := range pc.users[l] {
		if e, ok := pc.entries[key]; ok {
			pc.dropEntry(key, e)
		}
	}
	delete(pc.users, l)
}

// onLinkUnmasked drops the entries that were computed while the link was
// down: their candidates routed around it and may now be longer than
// necessary.
func (pc *pathCache) onLinkUnmasked(l int32) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key, e := range pc.entries {
		if _, found := slices.BinarySearch(e.avoided, l); found {
			pc.dropEntry(key, e)
		}
	}
}
