package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/api"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/resilience"
	"escape/internal/sg"
)

// E11 — self-healing service chains. Chains carry live traffic while
// 1..K EEs (or a trunk link) are killed; the resilience detector
// notices the failures (NETCONF liveness + OpenFlow PORT_STATUS) and
// masks them in the view, and the reconciler over the chains' intents
// transitions the affected services into Healing, migrates only the hit
// NFs, and re-steers the changed paths. Reported per cell: worst-case
// detection latency, healing-latency percentiles, packets sent vs lost
// during the run, NFs migrated, and the steered-flow counter delta
// proving live traffic after healing.

const (
	e11HealTimeout = 30 * time.Second
	e11SendGap     = 300 * time.Microsecond
)

// e11Spec builds the substrate: two switches joined by twin trunks
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
func e11Graph(name string, i, chainLen int) *sg.Graph {
	types := make([]string, chainLen)
	for j := range types {
		types[j] = "monitor"
	}
	g := sg.NewChainGraph(name, types...)
	g.SAPs[0].ID = fmt.Sprintf("h%da", i)
	g.SAPs[1].ID = fmt.Sprintf("h%db", i)
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

func startE11Traffic(env *core.Environment, pairs [][2]string) (*e11Traffic, error) {
	tr := &e11Traffic{stop: make(chan struct{})}
	for i, pair := range pairs {
		src, dst := env.Host(pair[0]), env.Host(pair[1])
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
// kills it crashes K EEs under live traffic (plus one link-kill row) and
// reports detection latency, healing latency p50/p95, loss window and
// migration size.
func E11SelfHealing(kills []int, chainLen, conc int) (*Table, error) {
	t := &Table{
		ID: "E11",
		Title: fmt.Sprintf("Self-healing service chains: %d-NF chains, %d tenants, EE kills and a trunk kill under live traffic",
			chainLen, conc),
		Columns: []string{"fault", "kills", "detect_ms", "heal_p50_ms", "heal_p95_ms", "moved_nfs", "sent_pkts", "lost_pkts", "healed_pkts"},
		Notes: []string{
			"detect_ms: injection → detector transition (worst case over kills); heal latency: Healing → Running per affected service",
			"lost_pkts: sent minus delivered over the whole run — bounded by the detection+healing window",
			"healed_pkts: steered-flow counter delta after healing, proving the migrated chain forwards",
		},
	}
	for _, k := range kills {
		cell, err := e11Run(k, "ee", chainLen, conc)
		if err != nil {
			return nil, fmt.Errorf("experiments: E11 kills=%d: %w", k, err)
		}
		e11AddRow(t, "ee", k, cell)
	}
	cell, err := e11Run(1, "link", chainLen, conc)
	if err != nil {
		return nil, fmt.Errorf("experiments: E11 link: %w", err)
	}
	e11AddRow(t, "link", 1, cell)
	return t, nil
}

func e11AddRow(t *Table, fault string, k int, c *e11Cell) {
	sort.Slice(c.heals, func(i, j int) bool { return c.heals[i] < c.heals[j] })
	t.AddRow(fault, fmt.Sprint(k),
		ms(c.detect),
		ms(percentile(c.heals, 50)),
		ms(percentile(c.heals, 95)),
		fmt.Sprint(c.moved),
		fmt.Sprint(c.sent),
		fmt.Sprint(c.lost),
		fmt.Sprint(c.healedPk))
}

// percentile returns the p-th percentile (0–100) of sorted durations
// using the nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
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

// e11Detect computes the worst-case detection latency straight from the
// detector's transition timestamps: every injected fault yields its
// sample even when one heal covered several faults at once.
func e11Detect(det *resilience.Detector, injected map[string]time.Time, linkInject time.Time) time.Duration {
	var worst time.Duration
	for ee, t0 := range injected {
		if at, ok := det.EEDownSince(ee); ok {
			worst = max(worst, at.Sub(t0))
		}
	}
	if !linkInject.IsZero() {
		if at, ok := det.LinkDownSince("s1", "s2"); ok {
			worst = max(worst, at.Sub(linkInject))
		}
	}
	return worst
}

// e11Healed reports whether every service is Running and clear of every
// killed resource: off the victim EEs, or off the s1—s2 trunk.
func e11Healed(orch *core.Orchestrator, names []string, fault string, victims map[string]bool) bool {
	for _, name := range names {
		svc := orch.Service(name)
		if svc == nil || svc.State() != core.StateRunning {
			return false
		}
		if fault == "ee" {
			for _, ee := range svc.Placements() {
				if victims[ee] {
					return false
				}
			}
			continue
		}
		for _, route := range svc.Routes() {
			for i := 0; i+1 < len(route); i++ {
				if (route[i] == "s1" && route[i+1] == "s2") || (route[i] == "s2" && route[i+1] == "s1") {
					return false
				}
			}
		}
	}
	return true
}

// e11Run measures one (kills, fault) cell on a fresh environment, healed
// the way escaped heals: the detector masks failed EEs and links in the
// view, and a reconciler over the chains' intents heals them.
func e11Run(kills int, fault string, chainLen, conc int) (*e11Cell, error) {
	env, err := core.StartEnvironment(e11Spec(conc, chainLen, kills))
	if err != nil {
		return nil, err
	}
	defer env.Close()
	dataDir, err := os.MkdirTemp("", "escape-e11")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	store, err := api.OpenStore(dataDir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	agents := map[string]string{}
	for name, a := range env.Agents {
		agents[name] = a.Addr()
	}
	det := resilience.NewDetector(resilience.DetectorConfig{
		View:          env.View,
		Agents:        agents,
		ProbeInterval: 5 * time.Millisecond,
	})
	env.Ctrl.Register(det)
	det.Start()
	defer det.Stop()
	rec := &api.Reconciler{
		Store:   store,
		Backend: &api.CoreBackend{Orch: env.Orch},
		Faults:  det.Changed(),
		Workers: conc,
		Log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	rec.Start()
	defer rec.Stop()

	names := make([]string, conc)
	pairs := make([][2]string, conc)
	for i := range names {
		g := e11Graph(fmt.Sprintf("%s-%d-%d", fault, kills, i), i, chainLen)
		pairs[i] = [2]string{g.SAPs[0].ID, g.SAPs[1].ID}
		in, err := api.NewIntent("e11", g)
		if err != nil {
			return nil, err
		}
		if _, _, err := store.UpsertIntent(in, time.Now()); err != nil {
			return nil, err
		}
		names[i] = in.ID
		rec.Enqueue(in.ID)
	}
	running := func() bool {
		for _, name := range names {
			if svc := env.Orch.Service(name); svc == nil || svc.State() != core.StateRunning {
				return false
			}
		}
		return true
	}
	if !rec.Await(e11HealTimeout, running) {
		return nil, fmt.Errorf("chains not running within %v: %s", e11HealTimeout, rec.LastError(names[0]))
	}

	tr, err := startE11Traffic(env, pairs)
	if err != nil {
		return nil, err
	}
	stopTraffic := tr.halt
	defer func() { stopTraffic() }()
	// Wall-clock measurement window: a pre-fault traffic baseline.
	time.Sleep(20 * time.Millisecond)

	// Heal latency is Healing → Running per service, from the transition
	// times; register before injecting so that no heal is missed.
	var mu sync.Mutex
	healingAt := map[string]time.Time{}
	var heals []time.Duration
	cancel := env.Orch.OnTransition(func(ev core.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.State {
		case core.StateHealing:
			healingAt[ev.Service] = ev.Time
		case core.StateRunning:
			if t0, ok := healingAt[ev.Service]; ok {
				heals = append(heals, ev.Time.Sub(t0))
				delete(healingAt, ev.Service)
			}
		}
	})
	defer cancel()
	placed := make([]map[string]string, len(names))
	for i, name := range names {
		placed[i] = env.Orch.Service(name).Placements()
	}
	injected := map[string]time.Time{}
	var linkInject time.Time
	victims := map[string]bool{}
	if fault == "ee" {
		hosting := map[string]bool{}
		for _, p := range placed {
			for _, ee := range p {
				hosting[ee] = true
			}
		}
		for _, ee := range e11Victims(kills, hosting, env.View.EENames()) {
			victims[ee] = true
			injected[ee] = time.Now()
			env.Net.Node(ee).(*netem.EE).Crash()
		}
	} else {
		linkInject = time.Now()
		env.Net.FindLink("s1", "s2").Fail()
	}

	if !rec.Await(e11HealTimeout, func() bool { return e11Healed(env.Orch, names, fault, victims) }) {
		states := map[string]string{}
		for _, name := range names {
			if svc := env.Orch.Service(name); svc != nil {
				states[name] = fmt.Sprintf("%s placements=%v", svc.State(), svc.Placements())
			} else {
				states[name] = "gone: " + rec.LastError(name)
			}
		}
		return nil, fmt.Errorf("services did not heal within %v: %v", e11HealTimeout, states)
	}

	// Live steered traffic after healing, proved by flow counters.
	before, _, err := env.Orch.ChainFlowStats(names[0])
	if err != nil {
		return nil, err
	}
	// Wall-clock measurement window: the post-heal counter delta.
	time.Sleep(20 * time.Millisecond)
	after, _, err := env.Orch.ChainFlowStats(names[0])
	if err != nil {
		return nil, err
	}
	if after <= before {
		return nil, fmt.Errorf("steered counters flat after healing (%d → %d): chain not forwarding", before, after)
	}

	stopTraffic()
	stopTraffic = func() {}
	cell := &e11Cell{detect: e11Detect(det, injected, linkInject), healedPk: after - before, sent: tr.sent.Load()}
	if delivered := tr.delivered.Load(); cell.sent > delivered {
		cell.lost = cell.sent - delivered
	}
	mu.Lock()
	cell.heals = heals
	mu.Unlock()
	for i, name := range names {
		for nfID, ee := range env.Orch.Service(name).Placements() {
			if placed[i][nfID] != ee {
				cell.moved++
			}
		}
	}

	// Determinism-suite hygiene: stop the reconciler (it would redeploy
	// the intents) and tear everything down.
	rec.Stop()
	for _, name := range names {
		if err := env.Orch.Undeploy(name); err != nil {
			return nil, fmt.Errorf("undeploy %s after heal: %w", name, err)
		}
	}
	if env.Steering.ActivePaths() != 0 {
		return nil, fmt.Errorf("leaked %d steering paths", env.Steering.ActivePaths())
	}
	return cell, nil
}
