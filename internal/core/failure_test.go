package core

import (
	"strings"
	"testing"

	"escape/internal/netem"
	"escape/internal/sg"
)

// Failure injection: the orchestrator must fail cleanly (no leaked flow
// rules, no leaked reservations, no half-started VNFs) when collaborators
// break mid-deployment.

func TestDeployFailsCleanlyWhenAgentDown(t *testing.T) {
	env := startEnv(t, demoSpec())
	// Kill one agent before deploying; the mapper may pick its EE.
	env.Agents["ee1"].Close()
	env.Agents["ee2"].Close()
	g := sapGraph("agentless", "monitor")
	if _, err := env.Orch.Deploy(g); err == nil {
		t.Fatal("deploy succeeded with all agents down")
	}
	// Resources must be fully released after the failed deploy.
	if env.Steering.ActivePaths() != 0 {
		t.Error("steering paths leaked")
	}
	g2 := sapGraph("agentless", "monitor")
	if _, err := env.Orch.Deploy(g2); err == nil {
		t.Error("second deploy unexpectedly succeeded")
	}
	// View reservations released: a mapper dry run sees full capacity.
	m, err := env.Orch.Mapper().Map(sapGraph("dry", "monitor"), env.View)
	if err != nil {
		t.Fatalf("capacity leaked into view: %v", err)
	}
	_ = m
}

func TestDeployFailsCleanlyOnUnknownAgentAddress(t *testing.T) {
	env := startEnv(t, demoSpec())
	// Remove the management binding for both EEs.
	orch, err := newOrchestrator(config{
		Controller: env.Ctrl,
		Steering:   env.Steering,
		Catalog:    env.Catalog,
		View:       env.View,
		Agents:     map[string]string{}, // no control network
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orch.Deploy(sapGraph("noaddr", "monitor")); err == nil ||
		!strings.Contains(err.Error(), "management address") {
		t.Errorf("err = %v", err)
	}
}

func TestDeployRollsBackStartedVNFs(t *testing.T) {
	// ee2 has capacity in the resource view but its EE actually refuses
	// the VNF (view/infrastructure mismatch): earlier VNFs that already
	// started on ee1 must be stopped by the rollback.
	spec := demoSpec()
	env := startEnv(t, spec)
	// Exhaust ee2's real capacity behind the orchestrator's back
	// (demoSpec EEs have 4 CPU each).
	ee2 := env.Net.Node("ee2").(*netem.EE)
	if _, err := ee2.InitVNF(netem.VNFSpec{Name: "squatter", ClickConfig: "FromDevice(in) -> ToDevice(out);", CPU: 3_900_000, Mem: 2000}); err != nil {
		t.Fatal(err)
	}
	// Force a placement that needs both EEs: two NFs, each too big for
	// one EE to host both.
	g := sapGraph("rollback", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 2.5 // 2×2.5 > 4 per EE → one NF per EE
	}
	if _, err := env.Orch.Deploy(g); err == nil {
		t.Fatal("deploy succeeded despite infrastructure refusal")
	}
	// ee1 must have no running VNFs left.
	ee1 := env.Net.Node("ee1").(*netem.EE)
	for _, name := range ee1.VNFNames() {
		if v := ee1.VNF(name); v.State().String() == "RUNNING" {
			t.Errorf("VNF %s still running after rollback", name)
		}
	}
	if env.Steering.ActivePaths() != 0 {
		t.Error("steering paths leaked")
	}
}

func TestUndeployIsIdempotentPerService(t *testing.T) {
	env := startEnv(t, demoSpec())
	if _, err := env.Orch.Deploy(sapGraph("once", "monitor")); err != nil {
		t.Fatal(err)
	}
	if err := env.Orch.Undeploy("once"); err != nil {
		t.Fatal(err)
	}
	if err := env.Orch.Undeploy("once"); err == nil {
		t.Error("second undeploy succeeded")
	}
	// The name is reusable after teardown.
	if _, err := env.Orch.Deploy(sapGraph("once", "monitor")); err != nil {
		t.Errorf("redeploy after undeploy failed: %v", err)
	}
}

func TestConcurrentDeploys(t *testing.T) {
	spec := demoSpec()
	spec.EEs = map[string]EESpec{
		"ee1": {Switch: "s1", CPU: 16, Mem: 16384},
		"ee2": {Switch: "s2", CPU: 16, Mem: 16384},
	}
	env := startEnv(t, spec)
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			g := sapGraph(strings.Repeat("x", i+1), "monitor")
			_, err := env.Orch.Deploy(g)
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent deploy: %v", err)
		}
	}
	if got := len(env.Orch.Services()); got != n {
		t.Errorf("services = %d, want %d", got, n)
	}
	// All down again.
	for _, name := range env.Orch.Services() {
		if err := env.Orch.Undeploy(name); err != nil {
			t.Error(err)
		}
	}
	if env.Steering.ActivePaths() != 0 {
		t.Errorf("paths left: %d", env.Steering.ActivePaths())
	}
}

// TestUndeployToleratesCrashedEEAndDeadAgent: an EE that died while its
// service was Running must not wedge teardown — unreachable agents are
// skipped and logged, everything else is released, and the name is
// reusable.
func TestUndeployToleratesCrashedEEAndDeadAgent(t *testing.T) {
	env := startEnv(t, demoSpec())
	g := sapGraph("orphanable", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 2.5 // one NF per EE: the crash strands real work
	}
	svc, err := env.Orch.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	// Find the EE hosting nf1 and kill both the container and its agent.
	victim := svc.Placements()["nf1"]
	env.Net.Node(victim).(*netem.EE).Crash()
	env.Agents[victim].Close()

	if err := env.Orch.Undeploy("orphanable"); err != nil {
		t.Errorf("undeploy with dead agent errored: %v", err)
	}
	if got := env.Steering.ActivePaths(); got != 0 {
		t.Errorf("steering paths leaked: %d", got)
	}
	for _, ee := range []string{"ee1", "ee2"} {
		if cpu, mem := env.View.Committed(ee); cpu != 0 || mem != 0 {
			t.Errorf("%s reservations leaked: %v cpu / %d mem", ee, cpu, mem)
		}
	}
	// The surviving EE's VNF was actually stopped.
	for _, ee := range []string{"ee1", "ee2"} {
		if ee == victim {
			continue
		}
		node := env.Net.Node(ee).(*netem.EE)
		for _, name := range node.VNFNames() {
			if v := node.VNF(name); v.State().String() == "RUNNING" {
				t.Errorf("%s VNF %s still running after undeploy", ee, name)
			}
		}
	}
}

// TestRollbackToleratesUnreachableAgentMidDeploy: an EE that dies before
// realization reaches it strands the service in Realizing; the rollback
// must tolerate the unreachable agent, stop whatever started elsewhere
// and release every reservation and VLAN id.
func TestRollbackToleratesUnreachableAgentMidDeploy(t *testing.T) {
	env := startEnv(t, demoSpec())
	env.Net.Node("ee1").(*netem.EE).Crash()
	env.Agents["ee1"].Close()

	g := sapGraph("stuck", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 2.5 // placement must span both EEs, one of which is dead
	}
	if _, err := env.Orch.Deploy(g); err == nil {
		t.Fatal("deploy succeeded across a dead EE")
	}
	if got := env.Steering.ActivePaths(); got != 0 {
		t.Errorf("steering paths leaked: %d", got)
	}
	for _, ee := range []string{"ee1", "ee2"} {
		if cpu, mem := env.View.Committed(ee); cpu != 0 || mem != 0 {
			t.Errorf("%s reservations leaked: %v cpu / %d mem", ee, cpu, mem)
		}
	}
	ee2 := env.Net.Node("ee2").(*netem.EE)
	for _, name := range ee2.VNFNames() {
		if v := ee2.VNF(name); v.State().String() == "RUNNING" {
			t.Errorf("ee2 VNF %s still running after rollback", name)
		}
	}
	// With the dead EE masked out of the view, the name is free again and
	// a fresh deploy lands on the survivor.
	env.View.ExcludeEE("ee1")
	svc, err := env.Orch.Deploy(sapGraph("stuck", "monitor"))
	if err != nil {
		t.Fatalf("redeploy after tolerated rollback failed: %v", err)
	}
	if ee := svc.Placements()["nf1"]; ee != "ee2" {
		t.Errorf("redeploy placed on %s despite exclusion", ee)
	}
}

// TestUndeployAcrossDeadSwitchSucceeds: tearing down across a switch
// that is no longer connected must not fail the delete batch — its
// rules died with the datapath. Paths are unregistered; VLAN ids of
// paths touching the dead switch are deliberately retained (never
// reused) in case the datapath is somehow still forwarding stale rules.
func TestUndeployAcrossDeadSwitchSucceeds(t *testing.T) {
	env := startEnv(t, demoSpec())
	g := sapGraph("vlan-keeper", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 2.5 // span both switches: multi-hop paths carry VLANs
	}
	if _, err := env.Orch.Deploy(g); err != nil {
		t.Fatal(err)
	}
	env.Net.Node("s2").(*netem.SwitchNode).Close()
	if err := env.Orch.Undeploy("vlan-keeper"); err != nil {
		t.Errorf("undeploy across dead switch: %v", err)
	}
	if got := env.Steering.ActivePaths(); got != 0 {
		t.Errorf("paths leaked: %d", got)
	}
}

func TestDeployAfterSwitchDisconnect(t *testing.T) {
	env := startEnv(t, demoSpec())
	// Stop s2's datapath: its control channel dies.
	env.Net.Node("s2").(*netem.SwitchNode).Close()
	// Deploys needing s2 must fail at steering, cleanly.
	g := sapGraph("dead-switch", "monitor")
	if _, err := env.Orch.Deploy(g); err == nil {
		t.Fatal("deploy across a dead switch succeeded")
	}
	if env.Steering.ActivePaths() != 0 {
		t.Error("steering paths leaked")
	}
}

func TestMapperSwapUnderLoad(t *testing.T) {
	env := startEnv(t, demoSpec())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			env.Orch.SetMapper(&GreedyMapper{Catalog: env.Catalog})
			env.Orch.SetMapper(&KSPMapper{Catalog: env.Catalog})
		}
	}()
	for i := 0; i < 5; i++ {
		name := sg.NewChainGraph("swap", "monitor").Name + strings.Repeat("i", i)
		g := sapGraph(name, "monitor")
		if _, err := env.Orch.Deploy(g); err != nil {
			t.Fatalf("deploy %d during mapper swaps: %v", i, err)
		}
	}
	<-done
}
