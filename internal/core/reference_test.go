package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"escape/internal/sg"
)

// The string-keyed path engine the integer index replaced, kept verbatim
// as the reference the ID engine must reproduce route for route: an
// adjacency map of sorted neighbour names, and name-keyed seen/prev sets.

// refAdjacency rebuilds the name-keyed adjacency index: sorted neighbour
// names, parallel links collapsed onto the first.
func refAdjacency(rv *ResourceView) map[string][]string {
	adj := map[string][]string{}
	seen := map[linkKey]bool{}
	for _, l := range rv.Links {
		k := mkLinkKey(l.A, l.B)
		if seen[k] {
			continue
		}
		seen[k] = true
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, nbs := range adj {
		sort.Strings(nbs)
	}
	return adj
}

// refBFSPath is the name-keyed bfsPath: a switch is entered once, on its
// first arrival, also under a delay bound.
func refBFSPath(c *Capacities, adj map[string][]string, a, b string, bw sg.BW, maxDelay time.Duration) []string {
	type state struct {
		sw    string
		delay time.Duration
	}
	prev := map[string]string{}
	seen := map[string]bool{a: true}
	queue := []state{{sw: a}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur.sw] {
			if seen[nb] {
				continue
			}
			if !c.linkFits(cur.sw, nb, bw) {
				continue
			}
			l := c.rv.linkBetween(cur.sw, nb)
			nd := cur.delay + l.Delay
			if maxDelay > 0 && nd > maxDelay {
				continue
			}
			seen[nb] = true
			prev[nb] = cur.sw
			if nb == b {
				// Reconstruct.
				route := []string{b}
				for at := b; at != a; {
					at = prev[at]
					route = append([]string{at}, route...)
				}
				return route
			}
			queue = append(queue, state{sw: nb, delay: nd})
		}
	}
	return nil
}

// refBFSAvoiding is the name-keyed bfsAvoiding.
func refBFSAvoiding(adj map[string][]string, src, dst string, masked, bannedEdges map[linkKey]bool, bannedNodes map[string]bool) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{}
	seen := map[string]bool{src: true}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
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

// regionView is a multi-region topology in the shape of the operator
// scale generator: each region a chain r<i>s0…s<n-1> with a shortcut from
// its head every 5 switches, the heads on a ring. Names like r1s1 and
// r1s10 make name order differ from numeric order.
func regionView(regions, perRegion int) *ResourceView {
	rv := newResourceView()
	sw := func(r, i int) string { return fmt.Sprintf("r%ds%d", r, i) }
	for r := 0; r < regions; r++ {
		for i := 0; i < perRegion; i++ {
			rv.Switches[sw(r, i)] = uint64(r*perRegion + i + 1)
			if i > 0 {
				rv.Links = append(rv.Links, &LinkRes{A: sw(r, i-1), B: sw(r, i)})
			}
			if i > 0 && i%5 == 0 {
				rv.Links = append(rv.Links, &LinkRes{A: sw(r, 0), B: sw(r, i)})
			}
		}
		rv.Links = append(rv.Links, &LinkRes{A: sw(r, 0), B: sw((r+1)%regions, 0)})
	}
	return rv
}

// TestPathEngineDifferentialAgainstReference drives seeded histories —
// bandwidth reservations and releases, link masks and unmasks — on a
// ring, the k=4 fat-tree and a multi-region topology, and at every step
// requires bfsPath and bfsAvoiding to return exactly the node sequence
// of their name-keyed references (or nil for both), under random
// bandwidth demands, delay bounds, banned links and banned switches.
//
// With uniform link delays a delay bound is a hop bound, and the two
// bfsPath searches coincide exactly. With mixed delays the reference's
// first-arrival pruning can miss routes that meet the bound, which the
// Pareto search does not: there bfsPath must equal the reference without
// a bound, and under one it must find a route whenever the reference
// does, over no more hops, within the bound.
//
// A saturated history first reserves most links down to zero or one
// unit of headroom, so most queries with a demand find no route: the
// searches then mostly end empty, with stale marks left behind for the
// next search to ignore.
func TestPathEngineDifferentialAgainstReference(t *testing.T) {
	const steps = 300
	for _, topo := range []struct {
		name  string
		build func() *ResourceView
	}{
		{"ring", func() *ResourceView { return ringView(10, 1, 1024, 0) }},
		{"fattree-k4", func() *ResourceView { return fatTreeView(t, 4) }},
		{"regions", func() *ResourceView { return regionView(3, 12) }},
	} {
		for _, mode := range []struct {
			mixed     bool
			saturated string
		}{{false, ""}, {true, ""}, {false, "/saturated"}, {true, "/saturated"}} {
			mixed := mode.mixed
			t.Run(fmt.Sprintf("%s/mixed-delays=%v%s", topo.name, mixed, mode.saturated), func(t *testing.T) {
				rv := topo.build()
				rng := rand.New(rand.NewSource(32))
				for _, l := range rv.Links {
					l.Bandwidth, l.Delay = 10, time.Millisecond
					if mixed {
						l.Delay = time.Duration(1+rng.Intn(4)) * time.Millisecond
					}
				}
				if mode.saturated != "" {
					for _, l := range rv.Links {
						if rng.Intn(10) > 0 {
							g := &sg.Graph{Links: []*sg.Link{{ID: "l", Bandwidth: float64(10 - rng.Intn(2))}}}
							rv.Commit(&Mapping{Graph: g, Routes: map[string][]string{"l": {l.A, l.B}}})
						}
					}
				}
				adj := refAdjacency(rv)
				ix := rv.topo()
				switches := slices.Clone(ix.swName)
				var held []*Mapping
				var masked []int
				found := 0
				for step := 0; step < steps; step++ {
					caps := rv.Snapshot()
					a := switches[rng.Intn(len(switches))]
					b := switches[rng.Intn(len(switches))]
					bw := sg.BW(rng.Intn(5))
					var maxDelay time.Duration
					if rng.Intn(2) == 0 {
						maxDelay = time.Duration(1+rng.Intn(8)) * time.Millisecond
					}

					got, want := caps.bfsPath(a, b, bw, maxDelay), refBFSPath(caps, adj, a, b, bw, maxDelay)
					if !mixed || maxDelay == 0 {
						if !slices.Equal(got, want) {
							t.Fatalf("step %d bfsPath %s→%s bw=%d delay≤%v: %v, reference %v", step, a, b, bw, maxDelay, got, want)
						}
					} else if want != nil && (got == nil || len(got) > len(want)) {
						t.Fatalf("step %d bfsPath %s→%s bw=%d delay≤%v: %v, reference found %v", step, a, b, bw, maxDelay, got, want)
					}
					if got != nil {
						found++
						var d time.Duration
						for i := 0; i+1 < len(got); i++ {
							if !caps.linkFits(got[i], got[i+1], bw) {
								t.Fatalf("step %d: route %v hop %s–%s does not fit bw=%d", step, got, got[i], got[i+1], bw)
							}
							d += rv.linkBetween(got[i], got[i+1]).Delay
						}
						if maxDelay > 0 && d > maxDelay {
							t.Fatalf("step %d: route %v takes %v > %v", step, got, d, maxDelay)
						}
					}

					// bfsAvoiding under the epoch's masks plus a few banned
					// links and switches.
					refMasked, bannedEdges, bannedNodes := map[linkKey]bool{}, map[linkKey]bool{}, map[string]bool{}
					var bannedLinkIDs, bannedNodeIDs []int32
					for _, id := range rv.state.Load().masked {
						l := ix.links[id]
						refMasked[mkLinkKey(l.A, l.B)] = true
					}
					for n := rng.Intn(3); n > 0; n-- {
						id := int32(rng.Intn(len(ix.links)))
						l := ix.links[id]
						bannedEdges[mkLinkKey(l.A, l.B)] = true
						bannedLinkIDs = append(bannedLinkIDs, id)
					}
					for n := rng.Intn(3); n > 0; n-- {
						s := switches[rng.Intn(len(switches))]
						if s != a && s != b {
							bannedNodes[s] = true
							bannedNodeIDs = append(bannedNodeIDs, ix.swID[s])
						}
					}
					var avoid []string
					for _, id := range bfsAvoiding(ix, ix.swID[a], ix.swID[b], rv.state.Load().masked, bannedLinkIDs, bannedNodeIDs) {
						avoid = append(avoid, ix.swName[id])
					}
					if ref := refBFSAvoiding(adj, a, b, refMasked, bannedEdges, bannedNodes); !slices.Equal(avoid, ref) {
						t.Fatalf("step %d bfsAvoiding %s→%s masked=%v banned=%v %v: %v, reference %v",
							step, a, b, refMasked, bannedEdges, bannedNodes, avoid, ref)
					}

					switch op := rng.Intn(10); {
					case op < 4: // reserve the route found
						if got != nil && bw > 0 {
							g := &sg.Graph{Links: []*sg.Link{{ID: "l", Bandwidth: float64(bw)}}}
							m := &Mapping{Graph: g, Routes: map[string][]string{"l": got}}
							rv.Commit(m)
							held = append(held, m)
						}
					case op < 8: // release a reservation
						if len(held) > 0 {
							i := rng.Intn(len(held))
							rv.Release(held[i])
							held = append(held[:i], held[i+1:]...)
						}
					case op < 9: // mask a link (at most three at once)
						i := rng.Intn(len(rv.Links))
						if len(masked) < 3 && !rv.excludedLink(rv.Links[i].A, rv.Links[i].B) {
							rv.ExcludeLink(rv.Links[i].A, rv.Links[i].B)
							masked = append(masked, i)
						}
					default: // unmask one
						if len(masked) > 0 {
							j := rng.Intn(len(masked))
							l := rv.Links[masked[j]]
							rv.UnexcludeLink(l.A, l.B)
							masked = append(masked[:j], masked[j+1:]...)
						}
					}
				}
				if found == 0 {
					t.Fatal("history found no route at all")
				}
				if mode.saturated != "" && 2*found > steps {
					t.Fatalf("saturated history routed %d of %d queries: most should find none", found, steps)
				}
			})
		}
	}
}
