package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// The reference ledger: plain maps, updated by hand beside a ResourceView
// that is driven only through its public mutations, and compared with it
// after every step, in sg's exact units, so every comparison is ==.

type ledger struct {
	cpu      map[string]sg.CPU
	mem      map[string]int
	bw       map[linkKey]sg.BW
	exclEE   map[string]bool
	exclLink map[linkKey]bool
}

func newLedger() *ledger {
	return &ledger{
		cpu: map[string]sg.CPU{}, mem: map[string]int{}, bw: map[linkKey]sg.BW{},
		exclEE: map[string]bool{}, exclLink: map[linkKey]bool{},
	}
}

func (l *ledger) clone() *ledger {
	c := newLedger()
	for k, v := range l.cpu {
		c.cpu[k] = v
	}
	for k, v := range l.mem {
		c.mem[k] = v
	}
	for k, v := range l.bw {
		c.bw[k] = v
	}
	for k, v := range l.exclEE {
		c.exclEE[k] = v
	}
	for k, v := range l.exclLink {
		c.exclLink[k] = v
	}
	return c
}

// apply books a mapping (sign +1) or its release (-1). The ledger graphs
// carry explicit demands, so it reads them straight off the graph rather
// than through the view's own demand resolution.
func (l *ledger) apply(m *Mapping, sign int) {
	for nfID, ee := range m.Placements {
		nf := m.Graph.NF(nfID)
		cpu, _ := sg.CPUOf(nf.CPU)
		l.cpu[ee] += sg.CPU(sign) * cpu
		l.mem[ee] += sign * nf.Mem
	}
	for linkID, route := range m.Routes {
		bw, _ := sg.BWOf(m.Graph.Link(linkID).Bandwidth)
		if bw <= 0 {
			continue
		}
		for i := 0; i+1 < len(route); i++ {
			l.bw[mkLinkKey(route[i], route[i+1])] += sg.BW(sign) * bw
		}
	}
}

// ledgerChain is a sap1→nf…→sap2 chain with explicit binary-fraction
// demands on every NF and SG link.
func ledgerChain(name string, rng *rand.Rand) *sg.Graph {
	g := cowChain(name, 1+rng.Intn(3), []float64{0.125, 0.25}[rng.Intn(2)], 32)
	bw := []float64{0, 1e6}[rng.Intn(2)]
	for _, l := range g.Links {
		l.Bandwidth = bw
	}
	return g
}

// checkLedger compares every EE's and link's committed accounting and
// masks with the ledger, and checks that nothing is oversubscribed.
func checkLedger(t *testing.T, rv *ResourceView, want *ledger, where string) {
	t.Helper()
	for _, ee := range rv.EENames() {
		cpu, mem := rv.Committed(ee)
		if cpu != want.cpu[ee] || mem != want.mem[ee] {
			t.Fatalf("%s: EE %s committed (%v, %d), ledger (%v, %d)", where, ee, cpu, mem, want.cpu[ee], want.mem[ee])
		}
		if got := rv.excludedEE(ee); got != want.exclEE[ee] {
			t.Fatalf("%s: EE %s excluded %v, ledger %v", where, ee, got, want.exclEE[ee])
		}
		if res := rv.EEs[ee]; cpu > capCPU(res) || mem > res.Mem {
			t.Fatalf("%s: EE %s oversubscribed: (%v, %d) of (%v, %d)", where, ee, cpu, mem, res.CPU, res.Mem)
		}
	}
	for _, l := range rv.Links {
		k := mkLinkKey(l.A, l.B)
		bw := rv.CommittedBW(l.A, l.B)
		if bw != want.bw[k] {
			t.Fatalf("%s: link %s–%s committed %v, ledger %v", where, l.A, l.B, bw, want.bw[k])
		}
		if got := rv.excludedLink(l.A, l.B); got != want.exclLink[k] {
			t.Fatalf("%s: link %s–%s excluded %v, ledger %v", where, l.A, l.B, got, want.exclLink[k])
		}
		if l.Bandwidth > 0 && bw > capBW(l) {
			t.Fatalf("%s: link %s–%s oversubscribed: %v of %v", where, l.A, l.B, bw, l.Bandwidth)
		}
	}
}

// checkPin reads a snapshot pinned before a step (first resolution after
// it) and compares it with the ledger of the moment it was pinned.
func checkPin(t *testing.T, rv *ResourceView, pin *Capacities, before *ledger, where string) {
	t.Helper()
	for _, ee := range rv.EENames() {
		res := rv.EEs[ee]
		if got, want := pin.FreeCPU(ee), capCPU(res)-before.cpu[ee]; got != want {
			t.Fatalf("%s: pinned free CPU of %s moved: %v, pinned %v", where, ee, got, want)
		}
		if got, want := pin.eeFree(pin.ix.eeRef(ee, false)).mem, res.Mem-before.mem[ee]; got != want {
			t.Fatalf("%s: pinned free mem of %s moved: %d, pinned %d", where, ee, got, want)
		}
		if got := pin.eeFree(pin.ix.eeRef(ee, false)).masked; got != before.exclEE[ee] {
			t.Fatalf("%s: pinned mask of %s moved: %v", where, ee, got)
		}
	}
	for _, l := range rv.Links {
		k := mkLinkKey(l.A, l.B)
		if got := pin.linkFree(k).masked; got != before.exclLink[k] {
			t.Fatalf("%s: pinned mask of %s–%s moved: %v", where, l.A, l.B, got)
		}
		if l.Bandwidth > 0 {
			if got, want := pin.linkFree(k).bw, capBW(l)-before.bw[k]; got != want {
				t.Fatalf("%s: pinned free bandwidth of %s–%s moved: %v, pinned %v", where, l.A, l.B, got, want)
			}
		}
	}
}

// sortedLive returns the names of the live services in a fixed order, so
// a seed replays the same history.
func sortedLive(live map[string]*Mapping) []string {
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A flip either masks a resource (while fewer than the maximum are down)
// or lifts its mask, a no-op when it was up: more masks than this cut the
// ring between the SAPs most of the time, and nothing would be admitted.
const (
	maxMaskedEEs   = 2
	maxMaskedLinks = 1
)

func countTrue[K comparable](m map[K]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// ledgerSeeds are the serial histories: fixed seeds plus one from the
// clock, printed on failure.
func ledgerSeeds() []int64 {
	return []int64{1, 2, 3, time.Now().UnixNano()}
}

// TestLedgerSerialHistories drives seeded random histories of admission,
// release, healing and EE/link mask flips on a small ring and checks the
// view against the ledger, the epoch count and a pre-step pin after
// every step.
func TestLedgerSerialHistories(t *testing.T) {
	mappers := RegisteredMappers(catalog.Default())
	for _, seed := range ledgerSeeds() {
		rng := rand.New(rand.NewSource(seed))
		rv := ringView(8, 1, 256, 8e6)
		led := newLedger()
		live := map[string]*Mapping{}
		counts := map[string]int{}
		for step := 0; step < 400; step++ {
			pin := rv.Snapshot()
			before := led.clone()
			ep := rv.Epoch()
			published := 0
			var op string
			switch r := rng.Intn(20); {
			case r < 9:
				op = "admit"
				name := fmt.Sprintf("s%d", step)
				m, err := rv.AdmitAndCommit(mappers[rng.Intn(len(mappers))], ledgerChain(name, rng))
				if err == nil {
					led.apply(m, +1)
					live[name] = m
					published = 1
				}
			case r < 13:
				op = "release"
				if names := sortedLive(live); len(names) > 0 {
					name := names[rng.Intn(len(names))]
					rv.Release(live[name])
					led.apply(live[name], -1)
					delete(live, name)
					published = 1
				}
			case r < 17:
				op = "heal"
				if names := sortedLive(live); len(names) > 0 {
					name := names[rng.Intn(len(names))]
					m := live[name]
					plan, err := rv.AdmitHeal(m,
						func(ee string) bool { return led.exclEE[ee] },
						func(a, b string) bool { return led.exclLink[mkLinkKey(a, b)] })
					if err == nil && !plan.Empty() {
						healed := m.WithPlan(plan)
						led.apply(m, -1)
						led.apply(healed, +1)
						live[name] = healed
						published = 1
					}
				}
			case r < 18:
				op = "mask-ee"
				ee := rv.EENames()[rng.Intn(len(rv.EEs))]
				mask := !led.exclEE[ee] && countTrue(led.exclEE) < maxMaskedEEs
				if mask {
					rv.ExcludeEE(ee)
				} else {
					rv.UnexcludeEE(ee)
				}
				if led.exclEE[ee] != mask {
					published = 1
				}
				led.exclEE[ee] = mask
			default:
				op = "mask-link"
				l := rv.Links[rng.Intn(len(rv.Links))]
				k := mkLinkKey(l.A, l.B)
				mask := !led.exclLink[k] && countTrue(led.exclLink) < maxMaskedLinks
				if mask {
					rv.ExcludeLink(l.A, l.B)
				} else {
					rv.UnexcludeLink(l.A, l.B)
				}
				if led.exclLink[k] != mask {
					published = 1
				}
				led.exclLink[k] = mask
			}
			counts[op] += published
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			if got := rv.Epoch() - ep; got != uint64(published) {
				t.Fatalf("%s: published %d epochs, want %d", where, got, published)
			}
			checkLedger(t, rv, led, where)
			checkPin(t, rv, pin, before, where)
		}
		for _, op := range []string{"admit", "release", "heal", "mask-ee", "mask-link"} {
			if counts[op] == 0 {
				t.Errorf("seed %d: the history never published a %s", seed, op)
			}
		}
	}
}

// TestLedgerConcurrentHistories races workers admitting, releasing and
// healing their own services against a mask flapper. Once everyone is
// done and the masks are lifted, the view must hold exactly the ledger of
// the surviving mappings.
func TestLedgerConcurrentHistories(t *testing.T) {
	seed := time.Now().UnixNano()
	mappers := RegisteredMappers(catalog.Default())
	rv := ringView(8, 1, 256, 8e6)
	const workers = 4
	survivors := make([]map[string]*Mapping, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			mapper := mappers[w%len(mappers)]
			live := map[string]*Mapping{}
			for step := 0; step < 150; step++ {
				names := sortedLive(live)
				switch r := rng.Intn(10); {
				case r < 5 || len(names) == 0:
					name := fmt.Sprintf("w%d-%d", w, step)
					if m, err := rv.AdmitAndCommit(mapper, ledgerChain(name, rng)); err == nil {
						live[name] = m
					}
				case r < 8:
					name := names[rng.Intn(len(names))]
					rv.Release(live[name])
					delete(live, name)
				default:
					name := names[rng.Intn(len(names))]
					if plan, err := rv.AdmitHeal(live[name], rv.excludedEE, rv.excludedLink); err == nil {
						live[name] = live[name].WithPlan(plan)
					}
				}
			}
			survivors[w] = live
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed - 1))
		for i := 0; i < 200; i++ {
			ee := rv.EENames()[rng.Intn(len(rv.EEs))]
			l := rv.Links[rng.Intn(len(rv.Links))]
			rv.ExcludeEE(ee)
			rv.ExcludeLink(l.A, l.B)
			rv.UnexcludeEE(ee)
			rv.UnexcludeLink(l.A, l.B)
		}
	}()
	wg.Wait()

	led := newLedger()
	for _, live := range survivors {
		for _, m := range live {
			led.apply(m, +1)
		}
	}
	checkLedger(t, rv, led, fmt.Sprintf("seed %d, after the race", seed))
	for _, live := range survivors {
		for _, m := range live {
			rv.Release(m)
		}
	}
	checkLedger(t, rv, newLedger(), fmt.Sprintf("seed %d, after releasing the survivors", seed))
}

// TestReleaseLeavesNoResidue interleaves admissions and releases of
// catalog-default chains (decimal demands, 0.1–0.4 CPU) in seeded
// shuffled orders: after every full drain the view is the empty view
// again — every committed value exactly zero, the same Fingerprint.
func TestReleaseLeavesNoResidue(t *testing.T) {
	types := []string{"monitor", "firewall", "nat", "dpi", "headerCompressor", "headerDecompressor", "loadbalancer", "ratelimiter"}
	for _, seed := range ledgerSeeds() {
		rng := rand.New(rand.NewSource(seed))
		rv := ringView(6, 2, 4096, 0)
		empty := rv.Fingerprint()
		mapper := &KSPMapper{Catalog: catalog.Default()}
		live := map[string]*Mapping{}
		drains := 0
		for step := 0; drains < 20; step++ {
			if rng.Intn(3) > 0 {
				chain := make([]string, 1+rng.Intn(3))
				for i := range chain {
					chain[i] = types[rng.Intn(len(types))]
				}
				name := fmt.Sprintf("s%d", step)
				if m, err := rv.AdmitAndCommit(mapper, sg.NewChainGraph(name, chain...)); err == nil {
					live[name] = m
				}
				continue
			}
			names := sortedLive(live)
			rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
			for _, name := range names[:rng.Intn(len(names)+1)] {
				rv.Release(live[name])
				delete(live, name)
			}
			if len(live) > 0 {
				continue
			}
			drains++
			for _, ee := range rv.EENames() {
				if cpu, mem := rv.Committed(ee); cpu != 0 || mem != 0 {
					t.Fatalf("seed %d drain %d: EE %s keeps (%v, %d)", seed, drains, ee, cpu, mem)
				}
			}
			if fp := rv.Fingerprint(); fp != empty {
				t.Fatalf("seed %d drain %d: fingerprint %s, empty view %s", seed, drains, fp, empty)
			}
		}
	}
}
