// Scale drives the scale-out admission pipeline: it derives a k-ary
// fat-tree resource view from its description (nothing is emulated —
// this exercises the control plane), then admits service chains from many goroutines at
// once through the optimistic validate-and-commit protocol, prints
// admission throughput and path-cache counters, and verifies the
// copy-on-write view restores exactly after releasing everything.
//
//	go run ./examples/scale [-k 8] [-conc 64] [-n 2000] [-chain 3]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/sg"
)

func chainGraph(name string, rng *rand.Rand, saps []string, chain int) *sg.Graph {
	src := saps[rng.Intn(len(saps))]
	dst := saps[rng.Intn(len(saps))]
	for dst == src {
		dst = saps[rng.Intn(len(saps))]
	}
	types := make([]string, chain)
	for i := range types {
		types[i] = "monitor"
	}
	g := sg.NewChainGraph(name, types...)
	for _, nf := range g.NFs {
		nf.CPU = 0.125
		nf.Mem = 32
	}
	for _, l := range g.Links {
		l.Bandwidth = 1e6
	}
	g.SAPs[0].ID = src
	g.SAPs[1].ID = dst
	g.Links[0].Src.Node = src
	g.Links[len(g.Links)-1].Dst.Node = dst
	return g
}

// run admits n chains from conc goroutines and releases them all,
// returning the admission wall time.
func run(rv *core.ResourceView, saps []string, n, conc, chain int) time.Duration {
	mapper := &core.KSPMapper{Catalog: catalog.Default()}
	per := n / conc
	if per < 1 {
		per = 1
	}
	mappings := make([]*core.Mapping, per*conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				g := chainGraph(fmt.Sprintf("svc-%d-%d", w, i), rng, saps, chain)
				m, err := rv.AdmitAndCommit(mapper, g)
				if err != nil {
					log.Fatalf("admission failed: %v", err)
				}
				mappings[w*per+i] = m
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, m := range mappings {
		rv.Release(m)
	}
	return wall
}

func main() {
	k := flag.Int("k", 8, "fat-tree arity (even)")
	conc := flag.Int("conc", 64, "concurrent admitters")
	n := flag.Int("n", 2000, "total admissions")
	chain := flag.Int("chain", 3, "NFs per chain")
	flag.Parse()

	topo, err := netem.FatTree(*k, netem.Sizing{TrunkBW: 10e9, EECPU: float64(*n**chain)*0.125 + 1, EEMem: *n**chain*32 + 256})
	if err != nil {
		log.Fatal(err)
	}
	rv, err := core.ViewFromSpec(topo)
	if err != nil {
		log.Fatal(err)
	}
	saps := topo.SAPNames()
	fmt.Printf("fat-tree k=%d: %d switches, %d EEs, %d SAPs, %d links\n",
		*k, len(rv.Switches), len(rv.EEs), len(rv.SAPs), len(rv.Links))

	total := *n / *conc * *conc
	wall := run(rv, saps, *n, *conc, *chain)
	fmt.Printf("admitted %d chains in %v (%.0f adm/s)\n",
		total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())

	st := rv.AdmissionStats()
	pcs := rv.PathCacheStats()
	fmt.Printf("admission stats: %d admitted, %d conflicts, %d serialized fallbacks\n",
		st.Admitted, st.Conflicts, st.SerializedFallbacks)
	fmt.Printf("path cache: %d hits, %d misses, %d fallbacks\n", pcs.Hits, pcs.Misses, pcs.Fallbacks)

	// The copy-on-write invariant: everything released, exact restore.
	for _, ee := range rv.EENames() {
		if cpu, mem := rv.Committed(ee); cpu != 0 || mem != 0 {
			log.Fatalf("view not restored: %s has %v cpu / %d mem committed", ee, cpu, mem)
		}
	}
	fmt.Println("view restored exactly after release (epoch", rv.Epoch(), ")")
}
