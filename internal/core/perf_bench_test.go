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
// size; BenchmarkAdmitAndCommit ablates serialized vs optimistic;
// BenchmarkRouteLinks ablates the cached path engine against live BFS.

func BenchmarkSnapshot(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("switches=%d", n), func(b *testing.B) {
			rv := ringView(n, 64, 1<<20, 0)
			// Deepen the committed state so resolution walks real deltas.
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

func BenchmarkRouteLinks(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "cold"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			rv := ringView(64, 1<<16, 1<<30, 0)
			if !cached {
				rv.DisablePathCache()
			}
			g := cowChain("route", 4, 0.25, 32)
			mc, err := newMapContext(g, rv, catalog.Default())
			if err != nil {
				b.Fatal(err)
			}
			placements := map[string]string{}
			for i, nf := range mc.nfsInChainOrder() {
				placements[nf.ID] = fmt.Sprintf("ee%02d", (i*16)%64) // spread across the ring
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mc.routeLinks(placements, rv.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
