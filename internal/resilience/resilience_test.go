package resilience

import (
	"testing"
	"time"

	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/sg"
)

// triSpec is the resilience test substrate: a switch triangle (so every
// single link failure leaves an alternate route) with one EE per switch —
// spare capacity on every side, so any single EE failure is healable.
func triSpec() core.TopoSpec {
	return core.TopoSpec{
		Switches: []string{"s1", "s2", "s3"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 4, Mem: 2048},
			"ee2": {Switch: "s2", CPU: 4, Mem: 2048},
			"ee3": {Switch: "s3", CPU: 4, Mem: 2048},
		},
		Trunks: []core.TrunkSpec{
			{A: "s1", B: "s2"}, {A: "s1", B: "s3"}, {A: "s2", B: "s3"},
		},
	}
}

// startResilient boots an environment with detector and healer attached.
func startResilient(t *testing.T, spec core.TopoSpec) (*core.Environment, *Detector, *Healer) {
	t.Helper()
	env, err := core.StartEnvironment(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	agents := map[string]string{}
	for name, a := range env.Agents {
		agents[name] = a.Addr()
	}
	det := NewDetector(DetectorConfig{
		View:          env.View,
		Agents:        agents,
		ProbeInterval: 5 * time.Millisecond,
		FailThreshold: 2,
	})
	env.Ctrl.Register(det)
	det.Start()
	healer := NewHealer(HealerConfig{Orch: env.Orch, View: env.View, Detector: det})
	go healer.Run()
	t.Cleanup(func() {
		det.Stop() // closes Changed, which ends healer.Run
		<-healer.Done()
	})
	return env, det, healer
}

// chainGraph builds an h1→NFs→h2 chain.
func chainGraph(name string, nfTypes ...string) *sg.Graph {
	g := sg.NewChainGraph(name, nfTypes...)
	g.SAPs[0].ID = "h1"
	g.SAPs[1].ID = "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"
	return g
}

// pump pushes UDP frames h1→h2 until one arrives or the deadline passes.
func pump(t *testing.T, env *core.Environment, payload string, timeout time.Duration) bool {
	t.Helper()
	h1, h2 := env.Host("h1"), env.Host("h2")
	h2.SetAutoRespond(false)
	frame, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7000, 7001, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		h1.Send(frame)
		select {
		case rx := <-h2.Recv():
			dec := pkt.Decode(rx.Frame)
			if u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP); ok && string(u.Payload()) == payload {
				return true
			}
		case <-time.After(50 * time.Millisecond):
		}
	}
	return false
}

// waitState polls a service for a lifecycle state.
func waitState(t *testing.T, svc *core.Service, want core.ServiceState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if svc.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("service %s stuck in %s, want %s", svc.Name, svc.State(), want)
}

func TestEECrashHealsServiceOntoSurvivingEE(t *testing.T) {
	env, det, healer := startResilient(t, triSpec())
	svc, err := env.Orch.Deploy(chainGraph("web", "monitor", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	if !pump(t, env, "before", 5*time.Second) {
		t.Fatal("chain carried no traffic before the failure")
	}

	// Kill the EE hosting nf1.
	victim := svc.Placements()["nf1"]
	env.Net.Node(victim).(*netem.EE).Crash()

	// The detector must notice, the healer must migrate, and the chain
	// must return to Running with nf1 off the dead EE.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("service never healed: state=%s placements=%v", svc.State(), svc.Placements())
		}
		p := svc.Placements()
		if svc.State() == core.StateRunning && p["nf1"] != victim && det.EEIsDown(victim) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Live stitched traffic after healing, verified by flow counters.
	before, _, err := env.Orch.ChainFlowStats("web")
	if err != nil {
		t.Fatal(err)
	}
	if !pump(t, env, "after-heal", 5*time.Second) {
		t.Fatal("healed chain carries no traffic")
	}
	after, _, err := env.Orch.ChainFlowStats("web")
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("steered counters did not advance across healing: %d → %d", before, after)
	}
	// The healer recorded the migration.
	found := false
	for _, rec := range healer.Records() {
		if rec.Service == "web" && rec.Err == nil && len(rec.Moved) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no successful heal record: %+v", healer.Records())
	}

	// Teardown after healing releases everything, dead EE included.
	if err := env.Orch.Undeploy("web"); err != nil {
		t.Fatalf("undeploy after heal: %v", err)
	}
	if env.Steering.ActivePaths() != 0 {
		t.Errorf("paths leaked: %d", env.Steering.ActivePaths())
	}
	for _, ee := range []string{"ee1", "ee2", "ee3"} {
		if cpu, mem := env.View.Committed(ee); cpu != 0 || mem != 0 {
			t.Errorf("%s still committed %v cpu / %d mem", ee, cpu, mem)
		}
	}
}

func TestLinkFailureReroutesAroundDeadTrunk(t *testing.T) {
	env, det, _ := startResilient(t, triSpec())
	svc, err := env.Orch.Deploy(chainGraph("rr", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	usesTrunk := func(a, b string) bool {
		for _, route := range svc.Routes() {
			for i := 0; i+1 < len(route); i++ {
				if (route[i] == a && route[i+1] == b) || (route[i] == b && route[i+1] == a) {
					return true
				}
			}
		}
		return false
	}
	if !usesTrunk("s1", "s2") {
		t.Skipf("mapping avoided s1–s2 (routes=%v); nothing to fail", svc.Routes())
	}

	env.Net.FindLink("s1", "s2").Fail()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("never rerouted: state=%s routes=%v", svc.State(), svc.Routes())
		}
		if det.LinkIsDown("s1", "s2") && svc.State() == core.StateRunning && !usesTrunk("s1", "s2") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !pump(t, env, "detour", 5*time.Second) {
		t.Fatal("no traffic over the healed detour")
	}

	// Healing the link must lift the view mask (next deploys may use it).
	env.Net.FindLink("s1", "s2").Heal()
	deadline = time.Now().Add(5 * time.Second)
	for env.View.ExcludedLink("s1", "s2") {
		if time.Now().After(deadline) {
			t.Fatal("link exclusion never lifted after Heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := env.Orch.Undeploy("rr"); err != nil {
		t.Fatal(err)
	}
}

func TestHealFailsToFailedWhenNoCapacitySurvives(t *testing.T) {
	spec := triSpec()
	spec.EEs = map[string]core.EESpec{"ee1": {Switch: "s1", CPU: 1, Mem: 512}}
	env, _, _ := startResilient(t, spec)
	svc, err := env.Orch.Deploy(chainGraph("doomed", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	env.Net.Node("ee1").(*netem.EE).Crash()
	waitState(t, svc, core.StateFailed, 10*time.Second)
	if svc.Err() == nil {
		t.Error("Failed service carries no cause")
	}
	// Everything was torn down and released.
	if env.Orch.Service("doomed") != nil {
		t.Error("failed service still registered")
	}
	if env.Steering.ActivePaths() != 0 {
		t.Errorf("paths leaked: %d", env.Steering.ActivePaths())
	}
	if cpu, mem := env.View.Committed("ee1"); cpu != 0 || mem != 0 {
		t.Errorf("ee1 still committed %v cpu / %d mem", cpu, mem)
	}
}

func TestEERestartLiftsExclusion(t *testing.T) {
	env, det, _ := startResilient(t, triSpec())
	ee := env.Net.Node("ee1").(*netem.EE)
	ee.Crash()
	deadline := time.Now().Add(5 * time.Second)
	for !det.EEIsDown("ee1") {
		if time.Now().After(deadline) {
			t.Fatal("crash never detected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ee.Restart()
	deadline = time.Now().Add(5 * time.Second)
	for det.EEIsDown("ee1") || env.View.ExcludedEE("ee1") {
		if time.Now().After(deadline) {
			t.Fatalf("recovery never detected (down=%v excl=%v)",
				det.EEIsDown("ee1"), env.View.ExcludedEE("ee1"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A fresh deploy may use the recovered EE again.
	if _, err := env.Orch.Deploy(chainGraph("back", "monitor")); err != nil {
		t.Fatalf("deploy after recovery: %v", err)
	}
}
