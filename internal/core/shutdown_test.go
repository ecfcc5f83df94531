package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"escape/internal/sg"
)

// shutdownTopo hosts many small chains across two EEs so a batch of
// concurrent deploys has real NETCONF work in flight when Shutdown lands.
func shutdownTopo(n int) TopoSpec {
	hosts := map[string]string{}
	for i := 0; i < n; i++ {
		hosts[fmt.Sprintf("h%da", i)] = "s1"
		hosts[fmt.Sprintf("h%db", i)] = "s2"
	}
	cpu := float64(n)*0.4 + 1
	mem := n*128 + 256
	return TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    hosts,
		EEs: map[string]EESpec{
			"ee1": {Switch: "s1", CPU: cpu, Mem: mem},
			"ee2": {Switch: "s2", CPU: cpu, Mem: mem},
		},
		Trunks: []TrunkSpec{{A: "s1", B: "s2"}},
	}
}

func shutdownGraph(i int) *sg.Graph {
	g := sg.NewChainGraph(fmt.Sprintf("shut-svc%d", i), "monitor", "monitor")
	g.SAPs[0].ID = fmt.Sprintf("h%da", i)
	g.SAPs[1].ID = fmt.Sprintf("h%db", i)
	g.Links[0].Src.Node = g.SAPs[0].ID
	g.Links[len(g.Links)-1].Dst.Node = g.SAPs[1].ID
	return g
}

// TestShutdownMidDeployLeavesNoStuckService fires a burst of concurrent
// deploys, triggers Shutdown as soon as the first service reaches
// Realizing, and asserts the drain invariants: every deploy either
// completed (Running) or rolled back (Failed with ErrShuttingDown, no
// registered service), nothing is left in a non-terminal intermediate
// state, and the view's committed compute equals exactly the sum of the
// surviving services' demands.
func TestShutdownMidDeployLeavesNoStuckService(t *testing.T) {
	const n = 12
	env, err := StartEnvironment(shutdownTopo(n))
	if err != nil {
		t.Fatal(err)
	}
	// Environment.Close also drains; calling it after an explicit
	// Shutdown is the idempotence check.
	defer env.Close()

	var wg sync.WaitGroup
	deployErrs := make([]error, n)
	services := make([]*Service, n)
	// A first batch lands before the shutdown: the drain must leave these
	// Running, untouched.
	const settled = 4
	for i := 0; i < settled; i++ {
		services[i], deployErrs[i] = env.Orch.Deploy(shutdownGraph(i))
		if deployErrs[i] != nil {
			t.Fatalf("pre-shutdown deploy %d: %v", i, deployErrs[i])
		}
	}

	// Trigger shutdown only once a service from the concurrent batch is
	// mid-realization, so the drain races real in-flight NETCONF work.
	events, cancel := env.Orch.Subscribe(256)
	defer cancel()
	realizing := make(chan struct{})
	go func() {
		for ev := range events {
			if ev.State == stateRealizing {
				close(realizing)
				return
			}
		}
	}()
	for i := settled; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			services[i], deployErrs[i] = env.Orch.Deploy(shutdownGraph(i))
		}(i)
	}

	<-realizing
	env.Orch.shutdown()
	wg.Wait()

	var wantCPU sg.CPU
	var wantMem int
	running := 0
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shut-svc%d", i)
		if deployErrs[i] == nil {
			svc := services[i]
			if st := svc.State(); st != StateRunning {
				t.Errorf("deploy %d returned success but state is %s", i, st)
			}
			cpu, mem, _ := svc.mapping().GraphDemand()
			wantCPU += cpu
			wantMem += mem
			running++
			continue
		}
		if !errors.Is(deployErrs[i], errShuttingDown) {
			t.Errorf("deploy %d failed with %v, want ErrShuttingDown", i, deployErrs[i])
		}
		// A cancelled deploy must have fully rolled back: name freed,
		// no lifecycle state stuck before terminal.
		if svc := env.Orch.Service(name); svc != nil {
			t.Errorf("cancelled service %q still registered in state %s", name, svc.State())
		}
		if services[i] != nil {
			t.Errorf("deploy %d returned a service alongside its error", i)
		}
	}
	if running == 0 {
		t.Log("shutdown cancelled every deploy (allowed, but weakens the test)")
	}

	var gotCPU sg.CPU
	var gotMem int
	for _, ee := range env.View.EENames() {
		cpu, mem := env.View.Committed(ee)
		gotCPU += cpu
		gotMem += mem
	}
	if gotCPU != wantCPU || gotMem != wantMem {
		t.Errorf("committed after drain = (%v cpu, %d mem), want (%v, %d): cancelled deploys leaked resources",
			gotCPU, gotMem, wantCPU, wantMem)
	}

	// Post-shutdown operations fail fast.
	if _, err := env.Orch.Deploy(shutdownGraph(0)); !errors.Is(err, errShuttingDown) {
		t.Errorf("Deploy after Shutdown: %v, want ErrShuttingDown", err)
	}
	if err := env.Orch.Undeploy("shut-svc0"); !errors.Is(err, errShuttingDown) {
		t.Errorf("Undeploy after Shutdown: %v, want ErrShuttingDown", err)
	}
	env.Orch.shutdown() // idempotent
}
