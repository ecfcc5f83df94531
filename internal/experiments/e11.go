package experiments

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/core"
	"escape/internal/domain"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/pox"
	"escape/internal/resilience"
	"escape/internal/sg"
)

// E11 — self-healing service chains. Chains carry live traffic while
// 1..K EEs (or a trunk link) are killed; the resilience layer detects
// the failures (NETCONF liveness + OpenFlow PORT_STATUS), transitions
// the affected services into Healing, migrates only the hit NFs, and
// re-steers the changed paths. Reported per cell: worst-case detection
// latency, healing-latency percentiles, packets sent vs lost during the
// run, NFs migrated, and the steered-flow counter delta proving live
// traffic after healing — flat (one orchestrator) against hierarchical
// (per-domain healers, failures healed domain-locally).

const (
	e11HealTimeout = 30 * time.Second
	e11SendGap     = 300 * time.Microsecond
)

// e11Spec builds the flat substrate: two switches joined by twin trunks
// (so a trunk kill leaves a detour), kills+2 EEs alternating sides, one
// SAP pair per tenant. EEs are sized so any one EE could host every NF:
// healing never fails for lack of room.
func e11Spec(conc, chainLen, kills int) core.TopoSpec {
	cpu := float64(conc*chainLen)*0.1 + 1
	mem := conc*chainLen*32 + 256
	hosts := map[string]string{}
	for i := 0; i < conc; i++ {
		hosts[fmt.Sprintf("h%da", i)] = "s1"
		hosts[fmt.Sprintf("h%db", i)] = "s2"
	}
	spec := core.TopoSpec{
		Switches: []string{"s1", "s2", "s3"},
		Hosts:    hosts,
		EEs:      map[string]core.EESpec{},
		Trunks: []core.TrunkSpec{
			{A: "s1", B: "s2"}, {A: "s1", B: "s3"}, {A: "s2", B: "s3"},
		},
	}
	for i := 0; i < kills+2; i++ {
		sw := "s1"
		if i%2 == 1 {
			sw = "s2"
		}
		spec.EEs[fmt.Sprintf("ee%d", i+1)] = core.EESpec{Switch: sw, CPU: cpu, Mem: mem}
	}
	return spec
}

// e11Graph builds tenant i's chain between its SAP pair.
func e11Graph(name string, i, chainLen int, lastDomain string) *sg.Graph {
	types := make([]string, chainLen)
	for j := range types {
		types[j] = "monitor"
	}
	g := sg.NewChainGraph(name, types...)
	if lastDomain == "" { // flat naming
		g.SAPs[0].ID = fmt.Sprintf("h%da", i)
		g.SAPs[1].ID = fmt.Sprintf("h%db", i)
	} else { // hierarchical naming (d0 ingress, last-domain egress)
		g.SAPs[0].ID = fmt.Sprintf("d0.a%d", i)
		g.SAPs[1].ID = fmt.Sprintf("%s.b%d", lastDomain, i)
	}
	g.Links[0].Src.Node = g.SAPs[0].ID
	g.Links[len(g.Links)-1].Dst.Node = g.SAPs[1].ID
	return g
}

// e11Traffic pumps tagged UDP frames from every tenant's a-host to its
// b-host until stopped, counting sends and deliveries.
type e11Traffic struct {
	sent, delivered atomic.Uint64
	stop            chan struct{}
	wg              sync.WaitGroup
}

func startE11Traffic(hostOf func(string) *netem.Host, pairs [][2]string) (*e11Traffic, error) {
	tr := &e11Traffic{stop: make(chan struct{})}
	for i, pair := range pairs {
		src, dst := hostOf(pair[0]), hostOf(pair[1])
		if src == nil || dst == nil {
			return nil, fmt.Errorf("experiments: E11 hosts %s/%s missing", pair[0], pair[1])
		}
		dst.SetAutoRespond(false)
		payload := fmt.Sprintf("e11-tenant-%d", i)
		frame, err := pkt.BuildUDP(src.MAC(), dst.MAC(), src.IP(), dst.IP(), 6000, 6001, []byte(payload))
		if err != nil {
			return nil, err
		}
		tr.wg.Add(2)
		go func(dst *netem.Host, payload string) { // receiver
			defer tr.wg.Done()
			rx := dst.Recv()
			for {
				select {
				case <-tr.stop:
					return
				case f := <-rx:
					dec := pkt.Decode(f.Frame)
					if u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP); ok && string(u.Payload()) == payload {
						tr.delivered.Add(1)
					}
				}
			}
		}(dst, payload)
		go func(src *netem.Host, frame []byte) { // sender
			defer tr.wg.Done()
			ticker := time.NewTicker(e11SendGap)
			defer ticker.Stop()
			for {
				select {
				case <-tr.stop:
					return
				case <-ticker.C:
					src.Send(frame)
					tr.sent.Add(1)
				}
			}
		}(src, frame)
	}
	return tr, nil
}

func (tr *e11Traffic) halt() {
	close(tr.stop)
	tr.wg.Wait()
}

// e11Cell is one measured run.
type e11Cell struct {
	detect   time.Duration // worst-case fault detection latency
	heals    []time.Duration
	moved    int
	sent     uint64
	lost     uint64
	healedPk uint64 // steered packets counted after healing
}

// E11SelfHealing measures the resilience subsystem: for every K in
// kills it crashes K EEs under live traffic (plus one link-kill row per
// mode) and reports detection latency, healing latency p50/p95, loss
// window and migration size, flat vs hierarchical.
func E11SelfHealing(kills []int, chainLen, conc int) (*Table, error) {
	t := &Table{
		ID: "E11",
		Title: fmt.Sprintf("Self-healing service chains: %d-NF chains, %d tenants, EE kills and a trunk kill under live traffic (flat vs hierarchical)",
			chainLen, conc),
		Columns: []string{"fault", "kills", "mode", "detect_ms", "heal_p50_ms", "heal_p95_ms", "moved_nfs", "sent_pkts", "lost_pkts", "healed_pkts"},
		Notes: []string{
			"detect_ms: injection → detector event (worst case over kills); heal latency: Healing → Running per affected service",
			"lost_pkts: sent minus delivered over the whole run — bounded by the detection+healing window",
			"healed_pkts: steered-flow counter delta after healing, proving the migrated chain forwards",
			"hier heals domain-locally: a failure in d0 never remaps d1's sub-services",
		},
	}
	for _, k := range kills {
		for _, mode := range []string{"flat", "hier"} {
			cell, err := e11Run(k, "ee", mode, chainLen, conc)
			if err != nil {
				return nil, fmt.Errorf("experiments: E11 kills=%d mode=%s: %w", k, mode, err)
			}
			e11AddRow(t, "ee", k, mode, cell)
		}
	}
	for _, mode := range []string{"flat", "hier"} {
		cell, err := e11Run(1, "link", mode, chainLen, conc)
		if err != nil {
			return nil, fmt.Errorf("experiments: E11 link mode=%s: %w", mode, err)
		}
		e11AddRow(t, "link", 1, mode, cell)
	}
	return t, nil
}

func e11AddRow(t *Table, fault string, k int, mode string, c *e11Cell) {
	sort.Slice(c.heals, func(i, j int) bool { return c.heals[i] < c.heals[j] })
	t.AddRow(fault, fmt.Sprint(k), mode,
		ms(c.detect),
		ms(percentile(c.heals, 50)),
		ms(percentile(c.heals, 95)),
		fmt.Sprint(c.moved),
		fmt.Sprint(c.sent),
		fmt.Sprint(c.lost),
		fmt.Sprint(c.healedPk))
}

// e11Run measures one (kills, fault, mode) cell on a fresh environment.
func e11Run(kills int, fault, mode string, chainLen, conc int) (*e11Cell, error) {
	if mode == "flat" {
		return e11RunFlat(kills, fault, chainLen, conc)
	}
	return e11RunHier(kills, fault, chainLen, conc)
}

// e11Detector builds, registers and starts a detector+healer pair over
// one orchestrator/view (flat, or one domain of the hierarchy).
func e11Detector(ctrl *pox.Controller, orch *core.Orchestrator, view *core.ResourceView, agents map[string]string) (*resilience.Detector, *resilience.Healer) {
	det := resilience.NewDetector(resilience.DetectorConfig{
		View:          view,
		Agents:        agents,
		ProbeInterval: 5 * time.Millisecond,
		FailThreshold: 2,
	})
	ctrl.Register(det)
	det.Start()
	healer := resilience.NewHealer(resilience.HealerConfig{Orch: orch, View: view, Detector: det})
	go healer.Run()
	return det, healer
}

// e11Victims picks the EEs to kill: those hosting NFs first (sorted),
// padded with idle EEs, capped at kills.
func e11Victims(kills int, placedEEs map[string]bool, allEEs []string) []string {
	var placed, idle []string
	for _, ee := range allEEs {
		if placedEEs[ee] {
			placed = append(placed, ee)
		} else {
			idle = append(idle, ee)
		}
	}
	victims := append(placed, idle...)
	if len(victims) > kills {
		victims = victims[:kills]
	}
	return victims
}

// e11Collect derives heal latency, migration and traffic metrics from
// healer records and traffic counters.
func e11Collect(records []resilience.HealRecord, tr *e11Traffic) *e11Cell {
	cell := &e11Cell{}
	for _, rec := range records {
		if rec.Err != nil {
			continue
		}
		if len(rec.Moved) == 0 && len(rec.Rerouted) == 0 {
			continue
		}
		cell.heals = append(cell.heals, rec.End.Sub(rec.Start))
		cell.moved += len(rec.Moved)
	}
	cell.sent = tr.sent.Load()
	delivered := tr.delivered.Load()
	if cell.sent > delivered {
		cell.lost = cell.sent - delivered
	}
	return cell
}

// e11Detect computes the worst-case detection latency straight from the
// detectors' transition timestamps: every injected fault yields its
// sample even when a single sweep healed several faults at once (so its
// later triggers produced no heal records).
func e11Detect(dets []*resilience.Detector, injected map[string]time.Time, linkA, linkB string, linkInject time.Time) time.Duration {
	var worst time.Duration
	for ee, t0 := range injected {
		for _, det := range dets {
			if at, ok := det.EEDownSince(ee); ok {
				if d := at.Sub(t0); d > worst {
					worst = d
				}
				break
			}
		}
	}
	if !linkInject.IsZero() {
		for _, det := range dets {
			if at, ok := det.LinkDownSince(linkA, linkB); ok {
				if d := at.Sub(linkInject); d > worst {
					worst = d
				}
				break
			}
		}
	}
	return worst
}

func e11RunFlat(kills int, fault string, chainLen, conc int) (*e11Cell, error) {
	env, err := core.StartEnvironment(e11Spec(conc, chainLen, kills))
	if err != nil {
		return nil, err
	}
	defer env.Close()
	agents := map[string]string{}
	for name, a := range env.Agents {
		agents[name] = a.Addr()
	}
	det, healer := e11Detector(env.Ctrl, env.Orch, env.View, agents)
	defer func() { det.Stop(); <-healer.Done() }()

	svcs := make([]*core.Service, conc)
	pairs := make([][2]string, conc)
	for i := range svcs {
		g := e11Graph(fmt.Sprintf("e11-%s-%d-%d", fault, kills, i), i, chainLen, "")
		if svcs[i], err = env.Orch.Deploy(g); err != nil {
			return nil, err
		}
		pairs[i] = [2]string{g.SAPs[0].ID, g.SAPs[1].ID}
	}

	tr, err := startE11Traffic(env.Host, pairs)
	if err != nil {
		return nil, err
	}
	stopTraffic := tr.halt
	defer func() { stopTraffic() }()
	time.Sleep(20 * time.Millisecond) // a pre-fault traffic baseline

	// Inject.
	injected := map[string]time.Time{}
	var linkInject time.Time
	var victims []string
	if fault == "ee" {
		placed := map[string]bool{}
		for _, svc := range svcs {
			for _, ee := range svc.Placements() {
				placed[ee] = true
			}
		}
		victims = e11Victims(kills, placed, env.View.EENames())
		for _, ee := range victims {
			injected[ee] = time.Now()
			env.Net.Node(ee).(*netem.EE).Crash()
		}
	} else {
		linkInject = time.Now()
		env.Net.FindLink("s1", "s2").Fail()
	}

	// Wait for complete healing: every service Running and clear of every
	// killed resource.
	victimSet := map[string]bool{}
	for _, ee := range victims {
		victimSet[ee] = true
	}
	deadline := time.Now().Add(e11HealTimeout)
	for {
		healed := true
		for _, svc := range svcs {
			if svc.State() != core.StateRunning {
				healed = false
				break
			}
			if fault == "ee" {
				for _, ee := range svc.Placements() {
					if victimSet[ee] {
						healed = false
					}
				}
			} else {
				for _, route := range svc.Routes() {
					for i := 0; i+1 < len(route); i++ {
						if (route[i] == "s1" && route[i+1] == "s2") || (route[i] == "s2" && route[i+1] == "s1") {
							healed = false
						}
					}
				}
			}
			if !healed {
				break
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			states := map[string]string{}
			for _, svc := range svcs {
				states[svc.Name] = fmt.Sprintf("%s placements=%v", svc.State(), svc.Placements())
			}
			return nil, fmt.Errorf("services did not heal within %v: %v; heal records: %+v",
				e11HealTimeout, states, healer.Records())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Live stitched traffic after healing, proved by flow counters.
	before, _, err := env.Orch.ChainFlowStats(svcs[0].Name)
	if err != nil {
		return nil, err
	}
	time.Sleep(20 * time.Millisecond)
	after, _, err := env.Orch.ChainFlowStats(svcs[0].Name)
	if err != nil {
		return nil, err
	}
	if after <= before {
		return nil, fmt.Errorf("steered counters flat after healing (%d → %d): chain not forwarding", before, after)
	}

	stopTraffic()
	stopTraffic = func() {}
	cell := e11Collect(healer.Records(), tr)
	cell.detect = e11Detect([]*resilience.Detector{det}, injected, "s1", "s2", linkInject)
	cell.healedPk = after - before

	// Determinism-suite hygiene: tear everything down.
	for _, svc := range svcs {
		if err := env.Orch.Undeploy(svc.Name); err != nil {
			return nil, fmt.Errorf("undeploy %s after heal: %w", svc.Name, err)
		}
	}
	if env.Steering.ActivePaths() != 0 {
		return nil, fmt.Errorf("leaked %d steering paths", env.Steering.ActivePaths())
	}
	return cell, nil
}

// e11DomainSpec builds the hierarchical substrate: two domains bridged
// by one gateway trunk; d0 (where faults land) gets kills+2 EEs and an
// internal twin-switch triangle so link kills have a detour.
func e11DomainSpec(conc, chainLen, kills int) domain.Spec {
	cpu := float64(conc*chainLen)*0.1 + 1
	mem := conc*chainLen*32 + 256
	var spec domain.Spec
	d0 := domain.DomainSpec{
		Name:     "d0",
		Switches: []string{"d0.s1", "d0.s2", "d0.s3"},
		Hosts:    map[string]string{},
		EEs:      map[string]core.EESpec{},
		Trunks: []core.TrunkSpec{
			{A: "d0.s1", B: "d0.s2"}, {A: "d0.s1", B: "d0.s3"}, {A: "d0.s2", B: "d0.s3"},
		},
	}
	for i := 0; i < kills+2; i++ {
		sw := "d0.s1"
		if i%2 == 1 {
			sw = "d0.s2"
		}
		d0.EEs[fmt.Sprintf("d0.e%d", i+1)] = core.EESpec{Switch: sw, CPU: cpu, Mem: mem}
	}
	d1 := domain.DomainSpec{
		Name:     "d1",
		Switches: []string{"d1.s1", "d1.s2"},
		Hosts:    map[string]string{},
		EEs: map[string]core.EESpec{
			"d1.e1": {Switch: "d1.s1", CPU: cpu, Mem: mem},
			"d1.e2": {Switch: "d1.s2", CPU: cpu, Mem: mem},
		},
		Trunks: []core.TrunkSpec{{A: "d1.s1", B: "d1.s2"}},
	}
	for j := 0; j < conc; j++ {
		d0.Hosts[fmt.Sprintf("d0.a%d", j)] = "d0.s1"
		d1.Hosts[fmt.Sprintf("d1.b%d", j)] = "d1.s2"
	}
	spec.Domains = []domain.DomainSpec{d0, d1}
	spec.Inter = []domain.InterLink{{
		ADomain: "d0", ASwitch: "d0.s2", BDomain: "d1", BSwitch: "d1.s1",
	}}
	return spec
}

func e11RunHier(kills int, fault string, chainLen, conc int) (*e11Cell, error) {
	env, err := domain.StartEnvironment(e11DomainSpec(conc, chainLen, kills))
	if err != nil {
		return nil, err
	}
	defer env.Close()

	// One detector+healer per domain: failures are detected and healed
	// inside the owning domain, against its domain-local view.
	type domRes struct {
		det    *resilience.Detector
		healer *resilience.Healer
	}
	var doms []domRes
	for _, name := range env.Global.Domains() {
		d := env.Global.Domain(name)
		agents := map[string]string{}
		for ee := range d.View.EEs {
			agents[ee] = env.Agents[ee].Addr()
		}
		det, healer := e11Detector(env.Ctrl, d.Orch, d.View, agents)
		doms = append(doms, domRes{det, healer})
	}
	defer func() {
		for _, dr := range doms {
			dr.det.Stop()
			<-dr.healer.Done()
		}
	}()

	gsvcs := make([]*domain.GlobalService, conc)
	pairs := make([][2]string, conc)
	for i := range gsvcs {
		g := e11Graph(fmt.Sprintf("e11h-%s-%d-%d", fault, kills, i), i, chainLen, "d1")
		if gsvcs[i], err = env.Global.Deploy(g); err != nil {
			return nil, err
		}
		pairs[i] = [2]string{g.SAPs[0].ID, g.SAPs[1].ID}
	}

	tr, err := startE11Traffic(env.Host, pairs)
	if err != nil {
		return nil, err
	}
	stopTraffic := tr.halt
	defer func() { stopTraffic() }()
	time.Sleep(20 * time.Millisecond)

	// Inject into d0 only: hierarchy must heal domain-locally.
	injected := map[string]time.Time{}
	var linkInject time.Time
	victimSet := map[string]bool{}
	if fault == "ee" {
		placed := map[string]bool{}
		for _, svc := range gsvcs {
			for _, sub := range svc.Subs {
				for _, ee := range sub.Placements() {
					placed[ee] = true
				}
			}
		}
		d0 := env.Global.Domain("d0")
		victims := e11Victims(kills, placed, d0.View.EENames())
		for _, ee := range victims {
			victimSet[ee] = true
			injected[ee] = time.Now()
			env.Net.Node(ee).(*netem.EE).Crash()
		}
	} else {
		linkInject = time.Now()
		env.Net.FindLink("d0.s1", "d0.s2").Fail()
	}

	deadline := time.Now().Add(e11HealTimeout)
	for {
		healed := true
		for _, svc := range gsvcs {
			if !svc.Running() {
				healed = false
				break
			}
			for _, sub := range svc.Subs {
				if fault == "ee" {
					for _, ee := range sub.Placements() {
						if victimSet[ee] {
							healed = false
						}
					}
				} else {
					for _, route := range sub.Routes() {
						for i := 0; i+1 < len(route); i++ {
							if (route[i] == "d0.s1" && route[i+1] == "d0.s2") || (route[i] == "d0.s2" && route[i+1] == "d0.s1") {
								healed = false
							}
						}
					}
				}
			}
			if !healed {
				break
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("hier services did not heal within %v", e11HealTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}

	before, _, err := env.Global.ChainFlowStats(gsvcs[0].Name)
	if err != nil {
		return nil, err
	}
	time.Sleep(20 * time.Millisecond)
	after, _, err := env.Global.ChainFlowStats(gsvcs[0].Name)
	if err != nil {
		return nil, err
	}
	if after <= before {
		return nil, fmt.Errorf("steered counters flat after hier healing (%d → %d)", before, after)
	}

	stopTraffic()
	stopTraffic = func() {}
	var records []resilience.HealRecord
	dets := make([]*resilience.Detector, 0, len(doms))
	for _, dr := range doms {
		records = append(records, dr.healer.Records()...)
		dets = append(dets, dr.det)
	}
	cell := e11Collect(records, tr)
	cell.detect = e11Detect(dets, injected, "d0.s1", "d0.s2", linkInject)
	cell.healedPk = after - before

	for _, svc := range gsvcs {
		if err := env.Global.Undeploy(svc.Name); err != nil {
			return nil, fmt.Errorf("undeploy %s after hier heal: %w", svc.Name, err)
		}
	}
	if env.Steering.ActivePaths() != 0 {
		return nil, fmt.Errorf("leaked %d steering paths", env.Steering.ActivePaths())
	}
	return cell, nil
}
