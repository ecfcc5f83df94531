package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// The versioned copy-on-write view suite: epochs advance monotonically
// (one per mutation), Release restores the exact pre-Commit state across
// many epochs, exclusion masks are epoch transitions pinned
// snapshots don't see, and optimistic admission under contention admits
// exactly what the capacity allows.

// ringName names switch i of a test ring.
func ringName(i int) string { return fmt.Sprintf("r%02d", i) }

// ringView builds a synthetic ring of n switches (n ≥ 4), one EE per
// switch, SAP sap1 on switch 0 and sap2 on switch n/2. Binary-fraction
// demands round-trip bit-exactly through commit/release.
func ringView(n int, cpu float64, mem int, bw float64) *ResourceView {
	rv := NewResourceView()
	for i := 0; i < n; i++ {
		rv.Switches[ringName(i)] = uint64(i + 1)
		ee := fmt.Sprintf("ee%02d", i)
		rv.EEs[ee] = &EERes{Name: ee, CPU: cpu, Mem: mem, Switch: ringName(i)}
	}
	for i := 0; i < n; i++ {
		rv.Links = append(rv.Links, &LinkRes{
			A: ringName(i), B: ringName((i + 1) % n),
			PortA: 10, PortB: 11, Bandwidth: bw,
		})
	}
	rv.SAPs["sap1"] = &SAPRes{ID: "sap1", Switch: ringName(0), Port: 1}
	rv.SAPs["sap2"] = &SAPRes{ID: "sap2", Switch: ringName(n / 2), Port: 1}
	return rv
}

// cowChain builds a sap1→nf…→sap2 chain with explicit binary-fraction
// demands.
func cowChain(name string, nfs int, cpu float64, mem int) *sg.Graph {
	types := make([]string, nfs)
	for i := range types {
		types[i] = "monitor"
	}
	g := sg.NewChainGraph(name, types...)
	for _, nf := range g.NFs {
		nf.CPU = cpu
		nf.Mem = mem
	}
	return g
}

func TestEpochPerMutationAndExactRestoreAcrossManyEpochs(t *testing.T) {
	rv := ringView(8, 64, 1<<20, 0)
	cpu0, mem0, bw0 := capsSnapshot(rv)
	ep0 := rv.Epoch()

	mapper := &KSPMapper{Catalog: catalog.Default()}
	n := 133 // many epochs, each sharing the record chunks it did not touch
	var mappings []*Mapping
	for i := 0; i < n; i++ {
		m, err := rv.AdmitAndCommit(mapper, cowChain(fmt.Sprintf("svc%d", i), 2, 0.25, 32))
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if got, want := rv.Epoch(), ep0+uint64(i+1); got != want {
			t.Fatalf("admit %d: epoch %d, want %d (one epoch per commit)", i, got, want)
		}
		mappings = append(mappings, m)
	}
	for i, m := range mappings {
		rv.Release(m)
		if got, want := rv.Epoch(), ep0+uint64(n+i+1); got != want {
			t.Fatalf("release %d: epoch %d, want %d (one epoch per release)", i, got, want)
		}
	}

	cpu1, mem1, bw1 := capsSnapshot(rv)
	if !reflect.DeepEqual(cpu0, cpu1) || !reflect.DeepEqual(mem0, mem1) || !reflect.DeepEqual(bw0, bw1) {
		t.Errorf("state not exactly restored after %d commit/release pairs:\n cpu %v → %v\n mem %v → %v\n bw %v → %v",
			n, cpu0, cpu1, mem0, mem1, bw0, bw1)
	}
}

func TestMaskTransitionsAreEpochs(t *testing.T) {
	rv := ringView(6, 1, 1024, 0)
	pre := rv.Snapshot() // pinned before any mask

	ep := rv.Epoch()
	rv.ExcludeEE("ee01")
	if rv.Epoch() != ep+1 {
		t.Fatalf("ExcludeEE: epoch %d, want %d", rv.Epoch(), ep+1)
	}
	rv.ExcludeEE("ee01") // idempotent: no epoch
	if rv.Epoch() != ep+1 {
		t.Fatalf("idempotent ExcludeEE published an epoch")
	}
	if !rv.ExcludedEE("ee01") {
		t.Fatal("ee01 not excluded")
	}
	if pre.ExcludedEE("ee01") {
		t.Fatal("pinned pre-mask snapshot sees the mask")
	}
	if pre.FitsEE("ee01", 500_000, 128) != true {
		t.Fatal("pinned snapshot should still fit ee01")
	}
	if rv.Snapshot().FitsEE("ee01", 500_000, 128) {
		t.Fatal("fresh snapshot must not fit a masked EE")
	}

	rv.UnexcludeEE("ee01")
	if rv.Epoch() != ep+2 {
		t.Fatalf("UnexcludeEE: epoch %d, want %d", rv.Epoch(), ep+2)
	}
	rv.UnexcludeEE("ee01") // idempotent
	if rv.Epoch() != ep+2 {
		t.Fatal("idempotent UnexcludeEE published an epoch")
	}

	rv.ExcludeLink(ringName(0), ringName(1))
	if rv.Epoch() != ep+3 {
		t.Fatalf("ExcludeLink: epoch %d, want %d", rv.Epoch(), ep+3)
	}
	if !rv.ExcludedLink(ringName(1), ringName(0)) {
		t.Fatal("link mask not visible (either direction)")
	}
	if pre.linkFits(ringName(0), ringName(1), 0) {
		// pinned pre-mask snapshot still routes over it
	} else {
		t.Fatal("pinned snapshot sees the link mask")
	}
	rv.UnexcludeLink(ringName(0), ringName(1))
	if rv.Epoch() != ep+4 {
		t.Fatalf("UnexcludeLink: epoch %d, want %d", rv.Epoch(), ep+4)
	}
}

// TestOptimisticAdmissionExactCapacity floods a view whose capacity
// admits exactly 8 single-NF chains with 32 concurrent deploys: the
// conflict-retry protocol must admit exactly 8, reject the rest with a
// mapping error, and release back to the exact initial state —
// regardless of interleaving.
func TestOptimisticAdmissionExactCapacity(t *testing.T) {
	rv := ringView(4, 1, 1024, 0) // 4 EEs × 1 CPU; chains demand 0.5 ⇒ 8 fit
	cpu0, mem0, bw0 := capsSnapshot(rv)

	const workers = 32
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		wins []*Mapping
		errs int
	)
	mapper := &GreedyMapper{Catalog: catalog.Default()}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := rv.AdmitAndCommit(mapper, cowChain(fmt.Sprintf("c%d", i), 1, 0.5, 64))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			wins = append(wins, m)
		}(i)
	}
	wg.Wait()

	if len(wins) != 8 || errs != workers-8 {
		t.Fatalf("admitted %d / rejected %d, want exactly 8 / %d", len(wins), errs, workers-8)
	}
	if st := rv.AdmissionStats(); st.Admitted != 8 {
		t.Errorf("stats.Admitted = %d, want 8", st.Admitted)
	}
	for _, ee := range rv.EENames() {
		cpu, _ := rv.Committed(ee)
		if cpu > capCPU(rv.EEs[ee]) {
			t.Errorf("EE %s oversubscribed: %v committed", ee, cpu)
		}
	}
	for _, m := range wins {
		rv.Release(m)
	}
	cpu1, mem1, bw1 := capsSnapshot(rv)
	if !reflect.DeepEqual(cpu0, cpu1) || !reflect.DeepEqual(mem0, mem1) || !reflect.DeepEqual(bw0, bw1) {
		t.Errorf("state not exactly restored after contended run")
	}
}

// TestConcurrentHealAdmitMaskEpochs races optimistic admissions,
// mask flapping and AdmitHeal deltas on one view (-race covers the
// memory model; the final check proves exact restore).
func TestConcurrentHealAdmitMaskEpochs(t *testing.T) {
	rv := ringView(8, 64, 1<<20, 0)
	cpu0, mem0, bw0 := capsSnapshot(rv)
	cat := catalog.Default()
	mapper := &KSPMapper{Catalog: cat}

	// One long-lived service the healer migrates back and forth.
	healed, err := rv.AdmitAndCommit(mapper, cowChain("healed", 2, 0.25, 32))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const rounds = 25
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m, err := rv.AdmitAndCommit(mapper, cowChain(fmt.Sprintf("w%d-%d", w, i), 2, 0.25, 32))
				if err != nil {
					t.Errorf("worker %d admit %d: %v", w, i, err)
					return
				}
				rv.Release(m)
			}
		}(w)
	}
	wg.Add(1)
	go func() { // mask flapper on a spare EE and a spare link
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rv.ExcludeEE("ee07")
			rv.ExcludeLink(ringName(6), ringName(7))
			rv.UnexcludeEE("ee07")
			rv.UnexcludeLink(ringName(6), ringName(7))
		}
	}()
	wg.Add(1)
	go func() { // healer: alternately declare the EEs hosting the service dead
		defer wg.Done()
		current := healed
		for i := 0; i < rounds; i++ {
			down := fmt.Sprintf("ee%02d", i%4)
			plan, err := rv.AdmitHeal(current,
				func(ee string) bool { return ee == down },
				func(a, b string) bool { return false })
			if err != nil {
				t.Errorf("heal %d: %v", i, err)
				return
			}
			current = current.WithPlan(plan)
		}
		healed = current
	}()
	wg.Wait()

	rv.Release(healed)
	cpu1, mem1, bw1 := capsSnapshot(rv)
	if !reflect.DeepEqual(cpu0, cpu1) || !reflect.DeepEqual(mem0, mem1) || !reflect.DeepEqual(bw0, bw1) {
		t.Errorf("state not exactly restored after heal/admit/mask race:\n cpu %v → %v", cpu0, cpu1)
	}
}

// rivalMapper is a Mapper that loses the optimistic race on purpose: for
// its first admitOptimisticRetries calls it maps a twin of the request
// on the same epoch and commits it between computing the caller's
// mapping and returning it, so the caller's validation finds its EE
// already full.
type rivalMapper struct {
	Mapper
	committed []*Mapping
}

func (r *rivalMapper) Map(g *sg.Graph, rv *ResourceView) (*Mapping, error) {
	m, err := r.Mapper.Map(g, rv)
	if err != nil || len(r.committed) >= admitOptimisticRetries {
		return m, err
	}
	twin := *g
	twin.Name = fmt.Sprintf("rival%d", len(r.committed))
	rival, err := r.Mapper.Map(&twin, rv)
	if err != nil {
		return nil, err
	}
	if ok, err := rv.TryCommitMapping(rival); !ok || err != nil {
		return nil, fmt.Errorf("rival commit: ok=%v err=%v", ok, err)
	}
	r.committed = append(r.committed, rival)
	return m, nil
}

// TestOptimisticRetriesExhaustedFallsBackToAdmitMu drives the one path
// nothing else reaches: an admitter that loses validation
// admitOptimisticRetries times in a row serializes on admitMu, still
// validates there, and succeeds once the contention stops.
func TestOptimisticRetriesExhaustedFallsBackToAdmitMu(t *testing.T) {
	// Each EE fits exactly one 1-NF chain, so a committed rival always
	// invalidates the mapping computed on the same epoch; 12 EEs leave
	// room for the 8 rivals plus the admission itself.
	rv := ringView(12, 0.25, 32, 0)
	cpu0, mem0, bw0 := capsSnapshot(rv)
	mapper := &rivalMapper{Mapper: &KSPMapper{Catalog: catalog.Default()}}

	m, err := rv.AdmitAndCommit(mapper, cowChain("victim", 1, 0.25, 32))
	if err != nil {
		t.Fatalf("admission after fallback: %v", err)
	}
	if len(mapper.committed) != admitOptimisticRetries {
		t.Fatalf("rival committed %d times, want %d", len(mapper.committed), admitOptimisticRetries)
	}
	want := AdmissionStats{
		Admitted:            uint64(admitOptimisticRetries) + 1, // every rival + the victim
		Conflicts:           uint64(admitOptimisticRetries),
		SerializedFallbacks: 1,
	}
	if got := rv.AdmissionStats(); got != want {
		t.Errorf("AdmissionStats = %+v, want %+v", got, want)
	}
	checkNoOversubscription(t, m, rv)

	rv.Release(m)
	for _, rival := range mapper.committed {
		rv.Release(rival)
	}
	cpu1, mem1, bw1 := capsSnapshot(rv)
	if !reflect.DeepEqual(cpu0, cpu1) || !reflect.DeepEqual(mem0, mem1) || !reflect.DeepEqual(bw0, bw1) {
		t.Errorf("view not exactly restored after fallback admission:\n cpu %v → %v", cpu0, cpu1)
	}
}
