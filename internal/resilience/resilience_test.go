package resilience

import (
	"errors"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"escape/internal/api"
	"escape/internal/core"
	"escape/internal/netconf"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/sg"
	"escape/internal/vnfagent"
	"escape/internal/yang"
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

// startResilient boots an environment with a detector and, over a
// store of intents, a reconciler that heals: the loop escaped runs.
func startResilient(t *testing.T, spec core.TopoSpec) (*core.Environment, *Detector, *api.Reconciler) {
	t.Helper()
	env, err := core.StartEnvironment(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	store, err := api.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	agents := map[string]string{}
	for name, a := range env.Agents {
		agents[name] = a.Addr()
	}
	det := NewDetector(DetectorConfig{
		View:          env.View,
		Agents:        agents,
		ProbeInterval: 5 * time.Millisecond,
	})
	env.Ctrl.Register(det)
	det.Start()
	t.Cleanup(det.Stop)
	rec := &api.Reconciler{
		Store:   store,
		Backend: &api.CoreBackend{Orch: env.Orch},
		Faults:  det.Changed(),
		Log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	rec.Start()
	t.Cleanup(rec.Stop) // before det.Stop and env.Close: cleanups run last-in first-out
	return env, det, rec
}

// runIntent stores g as an intent of tenant "t" and waits for the
// reconciler to bring it up; it returns the intent's ID (the service's
// name) and the service.
func runIntent(t *testing.T, env *core.Environment, rec *api.Reconciler, g *sg.Graph) (string, *core.Service) {
	t.Helper()
	in, err := api.NewIntent("t", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.Store.UpsertIntent(in, time.Now()); err != nil {
		t.Fatal(err)
	}
	rec.Enqueue(in.ID)
	if !rec.Await(10*time.Second, func() bool { return rec.Backend.Running(in.ID) }) {
		t.Fatalf("intent %s never ran: %s", in.ID, rec.LastError(in.ID))
	}
	return in.ID, env.Orch.Service(in.ID)
}

// removeIntent forgets an intent and waits for the reconciler to tear
// its service down.
func removeIntent(t *testing.T, env *core.Environment, rec *api.Reconciler, id string) {
	t.Helper()
	if err := rec.Store.Forget(id); err != nil {
		t.Fatal(err)
	}
	rec.Enqueue(id)
	if !rec.Await(10*time.Second, func() bool { return rec.Store.Intent(id) == nil && env.Orch.Service(id) == nil }) {
		t.Fatalf("intent %s never went: %s", id, rec.LastError(id))
	}
}

// crossesTrunk reports whether a service routes over the a–b trunk.
func crossesTrunk(svc *core.Service, a, b string) bool {
	for _, route := range svc.Routes() {
		for i := 0; i+1 < len(route); i++ {
			if (route[i] == a && route[i+1] == b) || (route[i] == b && route[i+1] == a) {
				return true
			}
		}
	}
	return false
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

func TestEECrashHealsServiceOntoSurvivingEE(t *testing.T) {
	env, _, rec := startResilient(t, triSpec())
	id, svc := runIntent(t, env, rec, chainGraph("web", "monitor", "monitor"))
	if !pump(t, env, "before", 5*time.Second) {
		t.Fatal("chain carried no traffic before the failure")
	}

	// Kill the EE hosting nf1.
	victim := svc.Placements()["nf1"]
	env.Net.Node(victim).(*netem.EE).Crash()

	// The detector must mask the EE, the reconciler must heal the intent,
	// and the chain must return to Running with nf1 off the dead EE.
	if !rec.Await(10*time.Second, func() bool {
		svc := env.Orch.Service(id)
		return masked(env.View, victim) && svc != nil && svc.State() == core.StateRunning && svc.Placements()["nf1"] != victim
	}) {
		t.Fatalf("service never healed: state=%s placements=%v", svc.State(), svc.Placements())
	}
	if svc != env.Orch.Service(id) {
		t.Fatal("the intent was redeployed, not healed in place")
	}
	// Live stitched traffic after healing, verified by flow counters.
	before, _, err := env.Orch.ChainFlowStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if !pump(t, env, "after-heal", 5*time.Second) {
		t.Fatal("healed chain carries no traffic")
	}
	after, _, err := env.Orch.ChainFlowStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("steered counters did not advance across healing: %d → %d", before, after)
	}
	// The reconciler counted the heal, and it succeeded.
	if n, failed := rec.Metrics.Heals.Load(), rec.Metrics.HealFailures.Load(); n < 1 || failed != 0 || rec.LastError(id) != "" {
		t.Errorf("%d heals, %d failures, last error %q; want a clean heal", n, failed, rec.LastError(id))
	}

	// Teardown after healing releases everything, dead EE included.
	removeIntent(t, env, rec, id)
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
	env, _, rec := startResilient(t, triSpec())
	id, svc := runIntent(t, env, rec, chainGraph("rr", "monitor"))
	if !crossesTrunk(svc, "s1", "s2") {
		t.Skipf("mapping avoided s1–s2 (routes=%v); nothing to fail", svc.Routes())
	}

	env.Net.FindLink("s1", "s2").Fail()
	if !rec.Await(10*time.Second, func() bool {
		return trunkMasked(env.View, "s1", "s2") && svc.State() == core.StateRunning && !crossesTrunk(svc, "s1", "s2")
	}) {
		t.Fatalf("never rerouted: state=%s routes=%v", svc.State(), svc.Routes())
	}
	if !pump(t, env, "detour", 5*time.Second) {
		t.Fatal("no traffic over the healed detour")
	}
	if n := rec.Metrics.Heals.Load(); n < 1 {
		t.Errorf("%d heals counted after a reroute", n)
	}

	// Healing the link must lift the view mask (next deploys may use it).
	env.Net.FindLink("s1", "s2").Heal()
	if !rec.Await(5*time.Second, func() bool { return !trunkMasked(env.View, "s1", "s2") }) {
		t.Fatal("link exclusion never lifted after Heal")
	}
	removeIntent(t, env, rec, id)
}

func TestHealFailsToFailedWhenNoCapacitySurvives(t *testing.T) {
	spec := triSpec()
	spec.EEs = map[string]core.EESpec{"ee1": {Switch: "s1", CPU: 1, Mem: 512}}
	env, _, rec := startResilient(t, spec)
	id, svc := runIntent(t, env, rec, chainGraph("doomed", "monitor"))
	env.Net.Node("ee1").(*netem.EE).Crash()
	// The reconciler's redeploy retries overwrite last_error, so the
	// heal's own error is read at the run that reported it.
	if !rec.Await(10*time.Second, func() bool {
		return strings.HasPrefix(rec.LastError(id), "heal:") && env.Orch.Service(id) == nil
	}) {
		t.Fatalf("heal never gave up: state=%s registered=%v last error %q",
			svc.State(), env.Orch.Service(id) != nil, rec.LastError(id))
	}
	if svc.State() != core.StateFailed || svc.Err() == nil {
		t.Errorf("given-up service is %s with cause %v, want Failed with a cause", svc.State(), svc.Err())
	}
	if n := rec.Metrics.HealFailures.Load(); n < 1 {
		t.Errorf("%d heal failures counted", n)
	}
	// Everything was torn down and released.
	if env.Steering.ActivePaths() != 0 {
		t.Errorf("paths leaked: %d", env.Steering.ActivePaths())
	}
	if cpu, mem := env.View.Committed("ee1"); cpu != 0 || mem != 0 {
		t.Errorf("ee1 still committed %v cpu / %d mem", cpu, mem)
	}
}

func TestEERestartLiftsExclusion(t *testing.T) {
	env, det, rec := startResilient(t, triSpec())
	// A running intent gives every fault wake a reconcile run, which is
	// what Await re-checks on.
	runIntent(t, env, rec, chainGraph("bystander", "monitor"))
	ee := env.Net.Node("ee1").(*netem.EE)
	ee.Crash()
	if !rec.Await(5*time.Second, func() bool {
		_, down := det.EEDownSince("ee1")
		return down && masked(env.View, "ee1")
	}) {
		t.Fatal("crash never detected and masked")
	}
	ee.Restart()
	if !rec.Await(5*time.Second, func() bool {
		_, down := det.EEDownSince("ee1")
		return !down && !masked(env.View, "ee1")
	}) {
		t.Fatalf("recovery never detected (excluded=%v)", masked(env.View, "ee1"))
	}
	// A fresh deploy may use the recovered EE again.
	runIntent(t, env, rec, chainGraph("back", "monitor"))
}

// mgmtBound is the NETCONF client's per-RPC deadline (netconf's
// rpcBound): the longest one management call may take.
const mgmtBound = 2 * time.Second

// TestHungAgentIsMasked: ee1's agent answers hello and never replies.
// Its probes fail at the client's deadline, so the detector masks ee1
// within failThreshold × (ProbeInterval + mgmtBound), the healthy EEs
// stay unmasked, and Stop returns once the probe in flight gives up.
func TestHungAgentIsMasked(t *testing.T) {
	env, err := core.StartEnvironment(triSpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	hang := make(chan struct{})
	hung := netconf.NewServer(vnfagent.Module())
	hung.Handle("getVNFInfo", func(*netconf.Session, *yang.Data) (*yang.Data, error) {
		<-hang
		return nil, errors.New("released")
	})
	if err := hung.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	agents := map[string]string{"ee1": hung.Addr().String()}
	for _, ee := range []string{"ee2", "ee3"} {
		agents[ee] = env.Agents[ee].Addr()
	}
	const interval = 500 * time.Millisecond
	det := NewDetector(DetectorConfig{View: env.View, Agents: agents, ProbeInterval: interval})
	t.Cleanup(det.Stop)
	t.Cleanup(func() { // runs first: a failed test's Stop then finds the probe released
		close(hang) // before Close, which waits on the blocked handler
		hung.Close()
	})
	start := time.Now()
	det.Start()

	limit := time.After(failThreshold * (interval + mgmtBound))
	for !masked(env.View, "ee1") {
		select {
		case <-det.Changed():
		case <-limit:
			t.Fatalf("hung agent's EE not masked within %v", failThreshold*(interval+mgmtBound))
		}
	}
	t.Logf("hung ee1 masked %v after Start", time.Since(start))
	for _, ee := range []string{"ee2", "ee3"} {
		if masked(env.View, ee) {
			t.Errorf("healthy %s masked", ee)
		}
	}

	stopped := make(chan struct{})
	go func() {
		det.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(mgmtBound + time.Second):
		t.Fatalf("Stop still blocked after %v with a probe of the hung agent in flight", mgmtBound+time.Second)
	}
}

// masked reports whether ee is masked in the view: a masked EE fits
// nothing, not even an empty demand.
func masked(rv *core.ResourceView, ee string) bool { return !rv.Snapshot().FitsEE(ee, 0, 0) }

// trunkMasked reports whether the trunk between adjacent switches a and
// b is masked in the view: the shortest route between them is then not
// the trunk itself.
func trunkMasked(rv *core.ResourceView, a, b string) bool {
	return len(rv.Snapshot().ShortestFeasiblePath(a, b, 0, 0)) != 2
}
