package core

import (
	"fmt"
	"testing"

	"escape/internal/catalog"
)

// Hot-path microbenchmarks for the admission pipeline (run as a CI smoke
// step with -benchtime 1x so regressions are at least exercised):
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/core
//
// BenchmarkSnapshot pins the O(1) copy-on-write claim, ablating view
// size; BenchmarkAdmitAndCommit times one optimistic admit + release;
// BenchmarkAdmitReject times one admission that places its NFs and then
// fails to route; BenchmarkRouteLinks times a chain's routes through the
// cached path engine against bfsPath, the live BFS, on the same snapshot.

func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("switches=%d", n), func(b *testing.B) {
			rv := ringView(n, 64, 1<<20, 0)
			// Commit first, so FreeCPU resolves a record an epoch wrote.
			mapper := &KSPMapper{Catalog: catalog.Default()}
			for i := 0; i < 40; i++ {
				if _, err := rv.AdmitAndCommit(mapper, cowChain(fmt.Sprintf("s%d", i), 2, 0.25, 32)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := rv.Snapshot()
				_ = c.FreeCPU("ee00") // resolve one key, as a mapper would
			}
		})
	}
}

func BenchmarkAdmitAndCommit(b *testing.B) {
	rv := ringView(32, 1<<16, 1<<30, 0)
	mapper := &KSPMapper{Catalog: catalog.Default()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp, err := rv.AdmitAndCommit(mapper, cowChain(fmt.Sprintf("b%d", i), 3, 0.25, 32))
		if err != nil {
			b.Fatal(err)
		}
		rv.Release(mp)
	}
}

// BenchmarkAdmitReject: the ring's links are too thin for the chain, so
// KSP places every NF and then routing fails on bandwidth; each attempt
// checks the pair's known candidates, and one live search (bfsPath)
// finding no route proves the reject without growing the entry.
func BenchmarkAdmitReject(b *testing.B) {
	rv := ringView(32, 1<<16, 1<<30, 1e6)
	mapper := &KSPMapper{Catalog: catalog.Default()}
	g := cowChain("reject", 3, 0.25, 32)
	for _, l := range g.Links {
		l.Bandwidth = 2e6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rv.AdmitAndCommit(mapper, g); err == nil {
			b.Fatal("admitted a chain no link can carry")
		}
	}
}

func BenchmarkRouteLinks(b *testing.B) {
	rv := ringView(64, 1<<16, 1<<30, 0)
	g := cowChain("route", 4, 0.25, 32)
	mc, err := newMapContext(g, rv, catalog.Default())
	if err != nil {
		b.Fatal(err)
	}
	placements := map[string]string{}
	for i, nf := range mc.nfsInChainOrder() {
		placements[nf.ID] = fmt.Sprintf("ee%02d", (i*16)%64) // spread across the ring
	}
	// The chain's hops as (src, dst) attach switches; same-switch hops
	// need no route from either engine.
	var hops [][2]string
	for _, l := range g.Links {
		src, err := mc.attachSwitch(l.Src.Node, placements)
		if err != nil {
			b.Fatal(err)
		}
		dst, err := mc.attachSwitch(l.Dst.Node, placements)
		if err != nil {
			b.Fatal(err)
		}
		if src != dst {
			hops = append(hops, [2]string{src, dst})
		}
	}
	for _, engine := range []struct {
		name  string
		route func(c *Capacities, a, b string) []string
	}{
		{"cold", func(c *Capacities, a, b string) []string { return c.bfsPath(a, b, 0, 0) }},
		{"cached", func(c *Capacities, a, b string) []string { return c.ShortestFeasiblePath(a, b, 0, 0) }},
	} {
		b.Run(engine.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				caps := rv.Snapshot()
				for _, h := range hops {
					if engine.route(caps, h[0], h[1]) == nil {
						b.Fatalf("no route %s→%s", h[0], h[1])
					}
				}
			}
		})
	}
}
