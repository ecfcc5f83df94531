package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"escape/internal/netem"
	"escape/internal/sg"
)

// The cached path engine suite: cached lookups must be hop-equivalent to
// the live BFS, survive bandwidth pressure by falling through candidates,
// and invalidate exactly on link fail/heal transitions. The reference
// engine is (*Capacities).bfsPath, queried on the same snapshot.

func TestCachedRoutesHopEquivalentToBFS(t *testing.T) {
	rv := ringView(10, 1, 1024, 1e6)
	caps := rv.Snapshot()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i == j {
				continue
			}
			a, b := ringName(i), ringName(j)
			rc := caps.ShortestFeasiblePath(a, b, 1000, 0)
			rb := caps.bfsPath(a, b, 1000, 0)
			if (rc == nil) != (rb == nil) {
				t.Fatalf("%s→%s: cached=%v bfs=%v", a, b, rc, rb)
			}
			if rc != nil && len(rc) != len(rb) {
				t.Errorf("%s→%s: cached %d hops (%v), bfs %d hops (%v)", a, b, len(rc)-1, rc, len(rb)-1, rb)
			}
			if rc != nil && (rc[0] != a || rc[len(rc)-1] != b) {
				t.Errorf("%s→%s: cached route endpoints wrong: %v", a, b, rc)
			}
		}
	}
	if st := rv.PathCacheStats(); st.Hits == 0 {
		t.Errorf("no cache hits recorded: %+v", st)
	}
}

// fatTreeView is a k-ary fat-tree resource view (no EEs: routing only).
func fatTreeView(t *testing.T, k int) *ResourceView {
	t.Helper()
	n := netem.New("pathcache", netem.Options{})
	if err := netem.BuildFatTree(n, k); err != nil {
		t.Fatal(err)
	}
	rv, err := BuildResourceView(n, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

// TestPathCacheDifferentialAgainstBFS drives seeded random histories —
// bandwidth reservations and releases, link masks and unmasks, random
// delay bounds over mixed link delays — on a ring and a k=4 fat-tree,
// and at every step demands that the cached engine and bfsPath agree on
// the same snapshot: same nil-ness, same hop count, and every cached hop
// fits, within the delay bound.
func TestPathCacheDifferentialAgainstBFS(t *testing.T) {
	const (
		steps   = 600
		linkCap = 10.0
	)
	for _, tc := range []struct {
		name string
		rv   *ResourceView
	}{
		{"ring", ringView(10, 1, 1024, 0)},
		{"fattree-k4", fatTreeView(t, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rv := tc.rv
			rng := rand.New(rand.NewSource(25))
			for _, l := range rv.Links {
				l.Bandwidth, l.Delay = linkCap, time.Duration(1+rng.Intn(4))*time.Millisecond
			}
			switches := make([]string, 0, len(rv.Switches))
			for s := range rv.Switches {
				switches = append(switches, s)
			}
			sort.Strings(switches)
			var held []*Mapping
			var masked []int // indexes into rv.Links
			unroutable := 0

			for step := 0; step < steps; step++ {
				var maxDelay time.Duration // 0 = unbounded
				if rng.Intn(3) > 0 {
					maxDelay = time.Duration(1+rng.Intn(12)) * time.Millisecond
				}
				caps := rv.Snapshot()
				var cached []string
				var bw sg.BW
				for q := 0; q < 4; q++ {
					a := switches[rng.Intn(len(switches))]
					b := switches[rng.Intn(len(switches))]
					for b == a {
						b = switches[rng.Intn(len(switches))]
					}
					bw = sg.BW(rng.Intn(5)) // 0 = no bandwidth demand
					cached = caps.ShortestFeasiblePath(a, b, bw, maxDelay)
					ref := caps.bfsPath(a, b, bw, maxDelay)
					if (cached == nil) != (ref == nil) {
						t.Fatalf("step %d %s→%s bw=%v delay≤%v: cached=%v bfs=%v", step, a, b, bw, maxDelay, cached, ref)
					}
					if cached == nil {
						unroutable++
						continue
					}
					if len(cached) != len(ref) {
						t.Fatalf("step %d %s→%s bw=%v delay≤%v: cached %d hops %v, bfs %d hops %v",
							step, a, b, bw, maxDelay, len(cached)-1, cached, len(ref)-1, ref)
					}
					if cached[0] != a || cached[len(cached)-1] != b {
						t.Fatalf("step %d: cached route %v does not join %s→%s", step, cached, a, b)
					}
					var d time.Duration
					for j := 0; j+1 < len(cached); j++ {
						if !caps.linkFits(cached[j], cached[j+1], bw) {
							t.Fatalf("step %d: cached route %v hop %s–%s does not fit bw=%v", step, cached, cached[j], cached[j+1], bw)
						}
						d += rv.linkBetween(cached[j], cached[j+1]).Delay
					}
					if maxDelay > 0 && d > maxDelay {
						t.Fatalf("step %d: cached route %v takes %v, over the delay bound %v", step, cached, d, maxDelay)
					}
				}

				switch op := rng.Intn(10); {
				case op < 4: // reserve the last route found
					if cached != nil && bw > 0 {
						g := &sg.Graph{Links: []*sg.Link{{ID: "l", Bandwidth: float64(bw)}}}
						m := &Mapping{Graph: g, Routes: map[string][]string{"l": cached}}
						rv.Commit(m)
						held = append(held, m)
					}
				case op < 8: // release a random reservation
					if len(held) > 0 {
						i := rng.Intn(len(held))
						rv.Release(held[i])
						held = append(held[:i], held[i+1:]...)
					}
				case op < 9: // mask a random link (at most three at once)
					i := rng.Intn(len(rv.Links))
					if len(masked) < 3 && !rv.ExcludedLink(rv.Links[i].A, rv.Links[i].B) {
						rv.ExcludeLink(rv.Links[i].A, rv.Links[i].B)
						masked = append(masked, i)
					}
				default: // unmask a random masked link
					if len(masked) > 0 {
						j := rng.Intn(len(masked))
						l := rv.Links[masked[j]]
						rv.UnexcludeLink(l.A, l.B)
						masked = append(masked[:j], masked[j+1:]...)
					}
				}
			}
			st := rv.PathCacheStats()
			if st.Hits == 0 || st.Invalidated == 0 || unroutable == 0 {
				t.Errorf("history did not exercise hits, invalidations and unroutable queries: %d unroutable, %+v", unroutable, st)
			}
		})
	}
}

// TestBFSDelayBoundIsExact: a switch first reached over a slow link
// must be re-entered when a route over more hops reaches it sooner, or
// the only route within the bound is lost. a–b is 4 ms, a–c, c–b and b–d
// 1 ms each: a-b-d takes 5 ms, a-c-b-d 3 ms.
func TestBFSDelayBoundIsExact(t *testing.T) {
	rv := NewResourceView()
	for i, s := range []string{"a", "b", "c", "d"} {
		rv.Switches[s] = uint64(i + 1)
	}
	for _, l := range []struct {
		a, b string
		ms   time.Duration
	}{{"a", "b", 4}, {"a", "c", 1}, {"c", "b", 1}, {"b", "d", 1}} {
		rv.Links = append(rv.Links, &LinkRes{A: l.a, B: l.b, Delay: l.ms * time.Millisecond})
	}
	caps := rv.Snapshot()
	bound := 4500 * time.Microsecond
	if got, want := caps.bfsPath("a", "d", 0, bound), []string{"a", "c", "b", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("bfsPath a→d within %v: %v, want %v", bound, got, want)
	}
	if got, want := caps.bfsPath("a", "d", 0, 0), []string{"a", "b", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("bfsPath a→d unbounded: %v, want the 2-hop %v", got, want)
	}
	if got := caps.bfsPath("a", "d", 0, 2500*time.Microsecond); got != nil {
		t.Errorf("bfsPath a→d within 2.5ms: %v, want none", got)
	}
	if got, want := caps.ShortestFeasiblePath("a", "d", 0, bound), []string{"a", "c", "b", "d"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ShortestFeasiblePath a→d within %v: %v, want %v", bound, got, want)
	}
}

func TestPathCacheFallsThroughCandidatesUnderPressure(t *testing.T) {
	rv := ringView(6, 1, 1024, 1e6)
	caps := rv.Snapshot()
	short := caps.ShortestFeasiblePath(ringName(0), ringName(2), 1000, 0)
	if len(short) != 3 {
		t.Fatalf("expected the 2-hop route, got %v", short)
	}
	// Saturate the short way: the next lookup must take the detour.
	caps.takePath(short, 1e6)
	detour := caps.ShortestFeasiblePath(ringName(0), ringName(2), 1000, 0)
	if len(detour) != 5 {
		t.Fatalf("expected the 4-hop detour, got %v", detour)
	}
	// Saturate the detour too: no feasible route remains.
	caps.takePath(detour, 1e6)
	if r := caps.ShortestFeasiblePath(ringName(0), ringName(2), 1000, 0); r != nil {
		t.Fatalf("expected no route, got %v", r)
	}
}

// TestPathCacheRejectGrowsNoEntry: a query no route can satisfy is
// answered by the one live search without growing its entry, a feasible
// query that needs a new candidate still grows it, and every lookup is
// counted as exactly one hit or one fallback.
func TestPathCacheRejectGrowsNoEntry(t *testing.T) {
	rv := ringView(6, 1, 1024, 1e6)
	caps := rv.Snapshot()
	a, b := ringName(0), ringName(2)
	ix := rv.topo()
	key, _ := mkPairKey(ix.swID[a], ix.swID[b])
	candidates := func() int {
		rv.paths.mu.Lock()
		defer rv.paths.mu.Unlock()
		return len(rv.paths.entries[key].routes)
	}
	lookups := 0
	route := func(from, to string) []string {
		lookups++
		return caps.ShortestFeasiblePath(from, to, 1000, 0)
	}

	short := route(a, b)
	if len(short) != 3 || candidates() != 1 {
		t.Fatalf("cold lookup: route %v and %d candidates, want the 2-hop route and 1", short, candidates())
	}
	caps.takePath(short, 1e6)
	detour := caps.bfsPath(a, b, 1000, 0)
	caps.takePath(detour, 1e6)
	for i := 0; i < 3; i++ {
		if r := route(a, b); r != nil {
			t.Fatalf("saturated ring routed %v", r)
		}
		if n := candidates(); n != 1 {
			t.Fatalf("reject %d grew the entry to %d candidates", i, n)
		}
	}
	if r := route("nowhere", b); r != nil {
		t.Fatalf("unknown switch routed %v", r)
	}

	// Free the detour: the next lookup needs the second candidate.
	caps = rv.Snapshot()
	caps.takePath(short, 1e6)
	if r := route(a, b); !slices.Equal(r, detour) || candidates() != 2 {
		t.Fatalf("detour lookup: route %v and %d candidates, want %v and 2", r, candidates(), detour)
	}

	st := rv.PathCacheStats()
	if st.Hits+st.Fallbacks != uint64(lookups) {
		t.Errorf("%d lookups counted as %d hits + %d fallbacks", lookups, st.Hits, st.Fallbacks)
	}
	if st.Fallbacks != 4 {
		t.Errorf("fallbacks = %d, want the 3 rejects and the unknown switch", st.Fallbacks)
	}
}

// TestPathSearchAllocatesOnlyItsRoute: warmed searches take their marks,
// delays, queue and labels from pooled scratch, so the route they return
// is their one allocation.
func TestPathSearchAllocatesOnlyItsRoute(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rv := regionView(4, 30)
	for _, l := range rv.Links {
		l.Bandwidth, l.Delay = 10, time.Millisecond
	}
	ix := rv.topo()
	caps := rv.Snapshot()
	a, b := "r0s7", "r2s23"
	src, dst := ix.swID[a], ix.swID[b]
	bannedLinks := []int32{ix.linkByName("r0s5", "r0s6")}
	bannedNodes := []int32{ix.swID["r1s0"]}
	for _, search := range []struct {
		name string
		run  func() bool
	}{
		{"bfsPath", func() bool { return caps.bfsPath(a, b, 1, 40*time.Millisecond) != nil }},
		{"bfsAvoiding", func() bool { return bfsAvoiding(ix, src, dst, nil, bannedLinks, bannedNodes) != nil }},
	} {
		if !search.run() { // also warms the pool
			t.Fatalf("%s found no route %s→%s", search.name, a, b)
		}
		if n := testing.AllocsPerRun(200, func() { search.run() }); n != 1 {
			t.Errorf("%s: %v allocations per search, want 1 (the route)", search.name, n)
		}
	}
}

// TestPathEngineConcurrentSearches runs bfsPath, bfsAvoiding and cached
// lookups from several goroutines at once on one view, and requires each
// to answer what the same query answers on an identical view alone:
// searches in flight must never share scratch.
func TestPathEngineConcurrentSearches(t *testing.T) {
	build := func() *ResourceView {
		rv := regionView(3, 12)
		rng := rand.New(rand.NewSource(41))
		for _, l := range rv.Links {
			l.Bandwidth, l.Delay = 10, time.Duration(1+rng.Intn(3))*time.Millisecond
			if rng.Intn(3) == 0 { // leave a third of the links nearly full
				g := &sg.Graph{Links: []*sg.Link{{ID: "l", Bandwidth: 9}}}
				rv.Commit(&Mapping{Graph: g, Routes: map[string][]string{"l": {l.A, l.B}}})
			}
		}
		return rv
	}
	type query struct {
		a, b     string
		bw       sg.BW
		maxDelay time.Duration
		banned   []int32
	}
	type answer struct{ path, avoid, cached []string }
	ask := func(rv *ResourceView, caps *Capacities, q query) answer {
		ix := rv.topo()
		var avoid []string
		for _, id := range bfsAvoiding(ix, ix.swID[q.a], ix.swID[q.b], nil, q.banned, nil) {
			avoid = append(avoid, ix.swName[id])
		}
		return answer{
			path:   caps.bfsPath(q.a, q.b, q.bw, q.maxDelay),
			avoid:  avoid,
			cached: caps.ShortestFeasiblePath(q.a, q.b, q.bw, q.maxDelay),
		}
	}

	alone := build()
	switches := slices.Clone(alone.topo().swName)
	rng := rand.New(rand.NewSource(42))
	queries := make([]query, 300)
	for i := range queries {
		q := query{a: switches[rng.Intn(len(switches))], b: switches[rng.Intn(len(switches))], bw: sg.BW(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			q.maxDelay = time.Duration(2+rng.Intn(10)) * time.Millisecond
		}
		for n := rng.Intn(3); n > 0; n-- {
			q.banned = append(q.banned, int32(rng.Intn(len(alone.Links))))
		}
		queries[i] = q
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		want[i] = ask(alone, alone.Snapshot(), q)
	}

	shared := build()
	caps := shared.Snapshot()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range queries {
				i := (k + w*len(queries)/workers) % len(queries)
				if got := ask(shared, caps, queries[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d query %+v: %+v, alone %+v", w, queries[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPathCacheInvalidationOnFailAndHeal(t *testing.T) {
	rv := ringView(6, 1, 1024, 0)
	a, b := ringName(0), ringName(2)

	if r := rv.Snapshot().ShortestFeasiblePath(a, b, 0, 0); len(r) != 3 {
		t.Fatalf("pre-failure route %v, want 2 hops", r)
	}

	// Fail a link on the short way: the entry crossing it must drop and
	// fresh candidates must route around the failure.
	rv.ExcludeLink(ringName(1), ringName(2))
	if st := rv.PathCacheStats(); st.Invalidated == 0 {
		t.Errorf("link failure invalidated nothing: %+v", st)
	}
	if r := rv.Snapshot().ShortestFeasiblePath(a, b, 0, 0); len(r) != 5 {
		t.Fatalf("post-failure route %v, want the 4-hop detour", r)
	}

	// Heal it: entries computed around the failure must drop so the
	// short path comes back.
	rv.UnexcludeLink(ringName(1), ringName(2))
	if r := rv.Snapshot().ShortestFeasiblePath(a, b, 0, 0); len(r) != 3 {
		t.Fatalf("post-heal route %v, want 2 hops again", r)
	}
}

// TestPathCacheDeterministic re-runs the same query matrix on a fresh
// identical view and demands identical routes (the conformance suite's
// determinism contract extends to the path engine).
func TestPathCacheDeterministic(t *testing.T) {
	run := func() map[string][]string {
		rv := ringView(8, 1, 1024, 0)
		out := map[string][]string{}
		caps := rv.Snapshot()
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				out[fmt.Sprintf("%d-%d", i, j)] = caps.ShortestFeasiblePath(ringName(i), ringName(j), 0, 0)
			}
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("cached routing not deterministic:\n%v\nvs\n%v", a, b)
	}
}
