package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/sg"
)

// E12 — scale-out admission. The admission hot path (Snapshot → Map →
// validate+commit: lock-free mapping against a pinned copy-on-write
// epoch, retry on conflict) runs against fat-tree resource views of
// increasing size (netem.BuildFatTree, no emulation started: E12
// measures the control plane, not the data plane), sweeping concurrency
// and the path engine: cold (live BFS per route) vs cached (precomputed
// k-shortest candidates per attach-switch pair).
//
// Reported per cell: wall time, admission throughput, per-admission
// latency percentiles, validation conflicts, and path-cache hit rate.
// After every cell all mappings are released and the view must restore
// exactly — the copy-on-write bookkeeping invariant — or the experiment
// fails.

// e12TotalAdmissions is the per-cell workload size (split across
// workers).
const e12TotalAdmissions = 192

// e12View builds a k-ary fat-tree resource view with one EE per edge
// switch, sized so admission never rejects for capacity (E12 measures
// the machinery, not rejection). Returns the view and the sorted SAP
// ids.
func e12View(k, chainLen int) (*core.ResourceView, []string, error) {
	net_ := netem.New("e12", netem.Options{})
	if err := netem.BuildFatTree(net_, k); err != nil {
		return nil, nil, err
	}
	// Chains demand an explicit 0.125 CPU / 32 MB per NF (binary
	// fractions, so commit/release round-trips bit-exactly and the
	// exact-restore check can be strict); give every EE room for the
	// whole workload so placement never fails.
	cpu := float64(e12TotalAdmissions*chainLen)*0.125 + 1
	mem := e12TotalAdmissions*chainLen*32 + 256
	eeSwitch := map[string]string{}
	for p := 0; p < k; p++ {
		for j := 1; j <= k/2; j++ {
			edge := fmt.Sprintf("p%de%d", p, j)
			ee := "ee-" + edge
			if _, err := net_.AddEE(ee, netem.EEConfig{CPU: cpu, Mem: mem}); err != nil {
				return nil, nil, err
			}
			eeSwitch[ee] = edge
		}
	}
	rv, err := core.BuildResourceView(net_, eeSwitch)
	if err != nil {
		return nil, nil, err
	}
	// Capacitated trunks (10 Gb/s) so bandwidth accounting does real
	// work on every admission; chains demand 1 Mb/s per link.
	for _, l := range rv.Links {
		l.Bandwidth = 10e9
	}
	saps := make([]string, 0, len(rv.SAPs))
	for id := range rv.SAPs {
		saps = append(saps, id)
	}
	sort.Strings(saps)
	return rv, saps, nil
}

// e12Graph builds one admission's chain between a deterministic SAP
// pair.
func e12Graph(name string, rng *rand.Rand, saps []string, chainLen int) *sg.Graph {
	src := saps[rng.Intn(len(saps))]
	dst := saps[rng.Intn(len(saps))]
	for dst == src {
		dst = saps[rng.Intn(len(saps))]
	}
	types := make([]string, chainLen)
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

// E12Admission sweeps fat-tree size × concurrency × path engine and
// reports admission throughput and latency.
func E12Admission(ks, concs []int, chainLen int) (*Table, error) {
	if len(ks) == 0 {
		ks = []int{4, 8, 12}
	}
	if len(concs) == 0 {
		concs = []int{1, 16, 64}
	}
	if chainLen <= 0 {
		chainLen = 3
	}
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("Admission throughput vs fat-tree size × concurrency (chains of %d NFs; cold vs cached paths)", chainLen),
		Columns: []string{"k", "sw", "conc", "paths", "total_ms", "adm_per_s", "p50_ms", "p99_ms", "conflicts", "hit_pct"},
		Notes: []string{
			"cold = live BFS per route; cached = precomputed k-shortest candidates per attach-switch pair",
			"every cell releases all mappings and must restore the exact initial view (COW invariant)",
		},
	}
	for _, k := range ks {
		for _, conc := range concs {
			for _, paths := range []string{"cold", "cached"} {
				if err := e12Run(t, k, conc, chainLen, paths); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// e12Run measures one cell on a fresh view.
func e12Run(t *Table, k, conc, chainLen int, paths string) error {
	rv, saps, err := e12View(k, chainLen)
	if err != nil {
		return err
	}
	if paths == "cached" {
		rv.EnablePathCache(0)
	} else {
		rv.DisablePathCache()
	}
	mapper := &core.KSPMapper{Catalog: catalog.Default()}

	per := e12TotalAdmissions / conc
	if per < 1 {
		per = 1
	}
	total := per * conc
	latencies := make([]time.Duration, total)
	mappings := make([]*core.Mapping, total)
	errs := make([]error, conc)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000*k + w)))
			for i := 0; i < per; i++ {
				idx := w*per + i
				g := e12Graph(fmt.Sprintf("e12-%d-%d", w, i), rng, saps, chainLen)
				t0 := time.Now()
				m, err := rv.AdmitAndCommit(mapper, g)
				latencies[idx] = time.Since(t0)
				if err != nil {
					errs[w] = fmt.Errorf("experiments: E12 admit %d/%d (k=%d %s): %w",
						w, i, k, paths, err)
					return
				}
				mappings[idx] = m
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Release everything (concurrently, exercising the writer path) and
	// verify the exact-restore invariant.
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rv.Release(mappings[w*per+i])
			}
		}(w)
	}
	wg.Wait()
	for _, ee := range rv.EENames() {
		cpu, mem := rv.Committed(ee)
		if cpu != 0 || mem != 0 {
			return fmt.Errorf("experiments: E12 view not restored: EE %s has %.3f CPU / %d mem committed after release", ee, cpu, mem)
		}
	}
	for _, l := range rv.Links {
		if bw := rv.CommittedBW(l.A, l.B); bw != 0 {
			return fmt.Errorf("experiments: E12 view not restored: link %s–%s has %.0f bw committed after release", l.A, l.B, bw)
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rate := float64(total) / wall.Seconds()
	stats := rv.AdmissionStats()
	pcs := rv.PathCacheStats()
	// Hits and Fallbacks partition lookups (Misses counts entry
	// creations, which also end in one of the two).
	hitPct := 0.0
	if lookups := pcs.Hits + pcs.Fallbacks; lookups > 0 {
		hitPct = 100 * float64(pcs.Hits) / float64(lookups)
	}
	t.AddRow(fmt.Sprint(k), fmt.Sprint(len(rv.Switches)), fmt.Sprint(conc),
		paths,
		ms(wall),
		fmt.Sprintf("%.0f", rate),
		ms(percentile(latencies, 50)),
		ms(percentile(latencies, 99)),
		fmt.Sprint(stats.Conflicts),
		fmt.Sprintf("%.0f", hitPct))
	return nil
}
