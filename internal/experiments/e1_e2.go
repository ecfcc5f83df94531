package experiments

import (
	"fmt"
	"time"

	"escape/internal/click"
	"escape/internal/core"
	"escape/internal/pkt"
	"escape/internal/sg"
)

// demoTopo is the canonical demo topology shared by E1/E2/E5/E8:
// h1—s1—s2—h2 with one EE per switch.
func demoTopo() core.TopoSpec {
	return core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 8, Mem: 8192},
			"ee2": {Switch: "s2", CPU: 8, Mem: 8192},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	}
}

// demoGraph builds a chain graph bound to the h1/h2 SAPs.
func demoGraph(name string, nfTypes ...string) *sg.Graph {
	g := sg.NewChainGraph(name, nfTypes...)
	g.SAPs[0].ID = "h1"
	g.SAPs[1].ID = "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"
	return g
}

// pumpUntilDelivered retransmits frame from h1 until h2 receives a UDP
// frame with the wanted payload, returning the elapsed time to first
// delivery.
func pumpUntilDelivered(env *core.Environment, payload string, timeout time.Duration) (time.Duration, error) {
	h1 := env.Host("h1")
	h2 := env.Host("h2")
	h2.SetAutoRespond(false)
	frame, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 4000, 4001, []byte(payload))
	if err != nil {
		return 0, err
	}
	d, err := pumpFrame(h1, h2, frame, payload, timeout)
	if err != nil {
		return 0, fmt.Errorf("experiments: payload %q never delivered", payload)
	}
	return d, nil
}

// E1Architecture exercises the full three-layer architecture (Fig. 1)
// once and reports per-layer timings: infrastructure bring-up, service
// request handling, orchestration (map+deploy), data plane and
// management.
func E1Architecture() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Fig. 1 architecture round trip (per-layer wall time)",
		Columns: []string{"layer", "operation", "time_ms"},
	}
	t0 := time.Now()
	env, err := core.StartEnvironment(demoTopo())
	if err != nil {
		return nil, err
	}
	defer env.Close()
	t.AddRow("infrastructure", "emulated net + controller + agents up", ms(time.Since(t0)))

	t1 := time.Now()
	g := demoGraph("e1-svc", "monitor")
	if err := g.Validate(); err != nil {
		return nil, err
	}
	t.AddRow("service", "service graph built + validated", ms(time.Since(t1)))

	t2 := time.Now()
	svc, err := env.Orch.Deploy(g)
	if err != nil {
		return nil, err
	}
	t.AddRow("orchestration", "mapped + VNFs started + steered", ms(time.Since(t2)))
	t.AddRow("orchestration", "  phase map", ms(svc.PhaseDurations["map"]))
	t.AddRow("orchestration", "  phase vnf-setup (NETCONF)", ms(svc.PhaseDurations["vnf-setup"]))
	t.AddRow("orchestration", "  phase steering (OpenFlow)", ms(svc.PhaseDurations["steering"]))

	d, err := pumpUntilDelivered(env, "e1-payload", 10*time.Second)
	if err != nil {
		return nil, err
	}
	t.AddRow("infrastructure", "first packet through deployed chain", ms(d))

	t4 := time.Now()
	cc, err := click.DialControl(svc.NFs["nf1"].Control)
	if err != nil {
		return nil, err
	}
	v, err := cc.Read("cnt.count")
	cc.Close()
	if err != nil {
		return nil, err
	}
	t.AddRow("management", fmt.Sprintf("VNF handler read (cnt.count=%s)", v), ms(time.Since(t4)))

	t5 := time.Now()
	if err := env.Orch.Undeploy("e1-svc"); err != nil {
		return nil, err
	}
	t.AddRow("orchestration", "service torn down", ms(time.Since(t5)))
	return t, nil
}

// E2Demo reproduces the five demo steps of the paper's walkthrough with
// the UNIFY compression chain and reports a verification per step.
func E2Demo() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Demo steps (1)–(5): topology, SG editor, mapping+deploy, live traffic, monitoring",
		Columns: []string{"step", "action", "verification", "time_ms"},
	}
	// Step 1: define VNF containers and the rest of the topology.
	t0 := time.Now()
	env, err := core.StartEnvironment(demoTopo())
	if err != nil {
		return nil, err
	}
	defer env.Close()
	t.AddRow("1", "define containers + topology",
		fmt.Sprintf("%d switches, %d EEs, %d SAPs", len(env.View.Switches), len(env.View.EEs), len(env.View.SAPs)),
		ms(time.Since(t0)))

	// Step 2: create the abstract SG from predefined VNFs (the SG-editor
	// equivalent: JSON round trip).
	t1 := time.Now()
	g := demoGraph("e2-demo", "headerCompressor", "headerDecompressor")
	data, err := g.ToJSON()
	if err != nil {
		return nil, err
	}
	g, err = sg.FromJSON(data)
	if err != nil {
		return nil, err
	}
	chains, err := g.Chains()
	if err != nil {
		return nil, err
	}
	t.AddRow("2", "edit + validate service graph",
		fmt.Sprintf("1 chain: %s", chains[0]), ms(time.Since(t1)))

	// Step 3: initiate mapping and deployment.
	t2 := time.Now()
	svc, err := env.Orch.Deploy(g)
	if err != nil {
		return nil, err
	}
	t.AddRow("3", "map SG + deploy",
		fmt.Sprintf("%d VNFs placed, %d paths", len(svc.NFs), len(svc.Mapping.Routes)),
		ms(time.Since(t2)))

	// Step 4: send and inspect live traffic.
	d, err := pumpUntilDelivered(env, "payload restored end to end", 10*time.Second)
	if err != nil {
		return nil, err
	}
	t.AddRow("4", "send live traffic", "UDP payload delivered through compressor+decompressor", ms(d))

	// Step 5: monitor the VNFs (Clicky substitute).
	t4 := time.Now()
	cc, err := click.DialControl(svc.NFs["nf1"].Control)
	if err != nil {
		return nil, err
	}
	compressed, err := cc.Read("comp.compressed")
	cc.Close()
	if err != nil {
		return nil, err
	}
	if compressed == "0" {
		return nil, fmt.Errorf("experiments: compressor idle during demo")
	}
	t.AddRow("5", "monitor VNFs",
		fmt.Sprintf("comp.compressed=%s via ClickControl", compressed), ms(time.Since(t4)))
	return t, nil
}
