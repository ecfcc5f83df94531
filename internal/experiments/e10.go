package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"escape/internal/core"
	"escape/internal/domain"
	"escape/internal/pkt"
	"escape/internal/sg"
)

// e10Spec builds the E10 multi-domain substrate: nDomains domains, each
// two switches (di.s1—di.s2) with conc ingress hosts and one EE per
// switch, joined by a linear chain of gateway trunks
// (di.s2—d(i+1).s1). EEs are sized so admission never rejects the sweep.
func e10Spec(nDomains, conc, chainLen int) domain.Spec {
	cpu := float64(conc*chainLen)*0.1/2 + 1
	mem := conc*chainLen*32/2 + 256
	var spec domain.Spec
	for i := 0; i < nDomains; i++ {
		d := fmt.Sprintf("d%d", i)
		ds := domain.DomainSpec{
			Name:     d,
			Switches: []string{d + ".s1", d + ".s2"},
			Hosts:    map[string]string{},
			EEs: map[string]core.EESpec{
				d + ".e1": {Switch: d + ".s1", CPU: cpu, Mem: mem},
				d + ".e2": {Switch: d + ".s2", CPU: cpu, Mem: mem},
			},
			Trunks: []core.TrunkSpec{{A: d + ".s1", B: d + ".s2"}},
		}
		for j := 0; j < conc; j++ {
			ds.Hosts[fmt.Sprintf("%s.a%d", d, j)] = d + ".s1"
			ds.Hosts[fmt.Sprintf("%s.b%d", d, j)] = d + ".s2"
		}
		spec.Domains = append(spec.Domains, ds)
	}
	for i := 0; i+1 < nDomains; i++ {
		spec.Inter = append(spec.Inter, domain.InterLink{
			ADomain: fmt.Sprintf("d%d", i), ASwitch: fmt.Sprintf("d%d.s2", i),
			BDomain: fmt.Sprintf("d%d", i+1), BSwitch: fmt.Sprintf("d%d.s1", i+1),
		})
	}
	return spec
}

// e10Graph builds tenant j's chain from d0's a-host to the span's last
// domain's b-host.
func e10Graph(name string, span, j, chainLen int) *sg.Graph {
	types := make([]string, chainLen)
	for i := range types {
		types[i] = "monitor"
	}
	g := sg.NewChainGraph(name, types...)
	g.SAPs[0].ID = fmt.Sprintf("d0.a%d", j)
	g.SAPs[1].ID = fmt.Sprintf("d%d.b%d", span-1, j)
	g.Links[0].Src.Node = g.SAPs[0].ID
	g.Links[len(g.Links)-1].Dst.Node = g.SAPs[1].ID
	return g
}

// e10Pump retransmits a UDP frame until the destination host sees the
// payload (chains are installed synchronously, so the first try usually
// lands).
func e10Pump(env *domain.Environment, src, dst, payload string) error {
	hs, hd := env.Host(src), env.Host(dst)
	if hs == nil || hd == nil {
		return fmt.Errorf("experiments: E10 hosts %s/%s missing", src, dst)
	}
	hd.SetAutoRespond(false)
	frame, err := pkt.BuildUDP(hs.MAC(), hd.MAC(), hs.IP(), hd.IP(), 4000, 4001, []byte(payload))
	if err != nil {
		return err
	}
	if _, err := pumpFrame(hs, hd, frame, payload, 10*time.Second); err != nil {
		return fmt.Errorf("experiments: E10 payload never delivered %s→%s", src, dst)
	}
	return nil
}

// E10MultiDomain measures hierarchical (global → per-domain) against flat
// (one orchestrator over everything) service deployment on a multi-domain
// substrate. For every span s in 1..nDomains it deploys conc chains
// concurrently from domain 0 to domain s-1 and reports wall time,
// throughput, latency percentiles, gateway crossings vs switch-level
// hops, and a stitching proof: one tenant's traffic pumped end to end
// with the steered packet counters read back.
func E10MultiDomain(nDomains, chainLen, conc int) (*Table, error) {
	t := &Table{
		ID: "E10",
		Title: fmt.Sprintf("Multi-domain orchestration: %d domains, %d-NF chains, %d concurrent tenants (hierarchical vs flat)",
			nDomains, chainLen, conc),
		Columns: []string{"span", "mode", "total_ms", "svc_per_s", "p50_ms", "p95_ms", "inter_hops", "intra_hops", "stitched_pkts"},
		Notes: []string{
			"inter_hops counts gateway-trunk crossings, intra_hops switch-level route hops",
			"stitched_pkts: steered-flow counters after pumping tenant 0's chain end to end",
			"shape check: hierarchical matches flat on small spans and keeps mapping domain-local",
		},
	}
	for span := 1; span <= nDomains; span++ {
		for _, mode := range []string{"hier", "flat"} {
			if err := e10Run(t, nDomains, chainLen, conc, span, mode); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// e10Run measures one (span, mode) cell on a fresh environment.
func e10Run(t *Table, nDomains, chainLen, conc, span int, mode string) error {
	env, err := domain.StartEnvironment(e10Spec(nDomains, conc, chainLen))
	if err != nil {
		return err
	}
	defer env.Close()

	graphs := make([]*sg.Graph, conc)
	for j := range graphs {
		graphs[j] = e10Graph(fmt.Sprintf("e10-s%d-%s-%d", span, mode, j), span, j, chainLen)
	}

	latencies := make([]time.Duration, conc)
	errs := make([]error, conc)
	interHops := make([]int, conc)
	intraHops := make([]int, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for j, g := range graphs {
		wg.Add(1)
		go func(j int, g *sg.Graph) {
			defer wg.Done()
			t0 := time.Now()
			if mode == "hier" {
				svc, err := env.Global.Deploy(g)
				latencies[j] = time.Since(t0)
				if err != nil {
					errs[j] = err
					return
				}
				interHops[j] = svc.InterDomainHops()
				intraHops[j] = svc.IntraDomainHops()
			} else {
				svc, err := env.Orch.Deploy(g)
				latencies[j] = time.Since(t0)
				if err != nil {
					errs[j] = err
					return
				}
				inter, intra := e10FlatHops(svc.Mapping)
				interHops[j] = inter
				intraHops[j] = intra
			}
		}(j, g)
	}
	wg.Wait()
	total := time.Since(start)
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("experiments: E10 deploy %d (span=%d %s): %w", j, span, mode, err)
		}
	}

	// Stitching proof on tenant 0: live traffic through the chain, then
	// the steered-flow counters.
	if err := e10Pump(env, graphs[0].SAPs[0].ID, graphs[0].SAPs[1].ID, graphs[0].Name); err != nil {
		return err
	}
	var pkts uint64
	if mode == "hier" {
		pkts, _, err = env.Global.ChainFlowStats(graphs[0].Name)
	} else {
		pkts, _, err = env.Orch.ChainFlowStats(graphs[0].Name)
	}
	if err != nil {
		return err
	}
	if pkts == 0 {
		return fmt.Errorf("experiments: E10 span=%d %s: chain carried traffic but steering counted 0 packets", span, mode)
	}

	for j, g := range graphs {
		wg.Add(1)
		go func(j int, name string) {
			defer wg.Done()
			if mode == "hier" {
				errs[j] = env.Global.Undeploy(name)
			} else {
				errs[j] = env.Orch.Undeploy(name)
			}
		}(j, g.Name)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("experiments: E10 undeploy %d: %w", j, err)
		}
	}
	if env.Steering.ActivePaths() != 0 {
		return fmt.Errorf("experiments: E10 leaked %d steering paths", env.Steering.ActivePaths())
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	t.AddRow(fmt.Sprint(span), mode,
		ms(total),
		fmt.Sprintf("%.1f", float64(conc)/total.Seconds()),
		ms(percentile(latencies, 50)),
		ms(percentile(latencies, 95)),
		fmt.Sprint(sum(interHops)), fmt.Sprint(sum(intraHops)),
		fmt.Sprint(pkts))
	return nil
}

// e10FlatHops classifies a flat mapping's route hops: crossings between
// switches of different domains (named "d<i>.s<j>") vs intra-domain hops.
func e10FlatHops(m *core.Mapping) (inter, intra int) {
	domOf := func(sw string) string {
		if i := strings.IndexByte(sw, '.'); i >= 0 {
			return sw[:i]
		}
		return sw
	}
	for _, route := range m.Routes {
		for i := 0; i+1 < len(route); i++ {
			if domOf(route[i]) != domOf(route[i+1]) {
				inter++
			} else {
				intra++
			}
		}
	}
	return inter, intra
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
