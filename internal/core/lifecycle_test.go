package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"escape/internal/netem"
	"escape/internal/vnfagent"
)

// collectStates drains events for one service from a Subscribe channel
// until a terminal state arrives.
func collectStates(t *testing.T, events <-chan Event, name string) []ServiceState {
	t.Helper()
	var states []ServiceState
	for ev := range events {
		if ev.Service != name {
			continue
		}
		states = append(states, ev.State)
		if ev.State.Terminal() {
			return states
		}
	}
	t.Fatalf("event stream ended before %q reached a terminal state", name)
	return nil
}

func TestLifecycleWalksAllStates(t *testing.T) {
	env := startEnv(t, demoSpec())
	events, cancel := env.Orch.Subscribe(32)
	defer cancel()

	svc, err := env.Orch.Deploy(sapGraph("lc", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.State(); got != StateRunning {
		t.Errorf("state after deploy = %s", got)
	}
	if err := env.Orch.Undeploy("lc"); err != nil {
		t.Fatal(err)
	}
	if got := svc.State(); got != StateRemoved {
		t.Errorf("state after undeploy = %s", got)
	}
	want := []ServiceState{StateMapped, StateRealizing, StateSteering, StateRunning, StateRemoved}
	got := collectStates(t, events, "lc")
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
}

func TestSubscribeDeliversTerminal(t *testing.T) {
	env := startEnv(t, demoSpec())
	svc, err := env.Orch.Deploy(sapGraph("w", "monitor"))
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber attached to a running service sees its next
	// transition, the terminal one, and nothing of its past.
	events, cancel := env.Orch.Subscribe(8)
	defer cancel()
	if err := env.Orch.Undeploy("w"); err != nil {
		t.Fatal(err)
	}
	if got := collectStates(t, events, "w"); len(got) != 1 || got[0] != StateRemoved {
		t.Fatalf("events after subscribe = %v, want [Removed]", got)
	}
	if got := svc.State(); got != StateRemoved {
		t.Errorf("state after undeploy = %s", got)
	}
}

func TestDeployFailureReachesFailedState(t *testing.T) {
	env := startEnv(t, demoSpec())
	env.Agents["ee1"].Close()
	env.Agents["ee2"].Close()
	events, cancel := env.Orch.Subscribe(32)
	defer cancel()

	if _, err := env.Orch.Deploy(sapGraph("doomed", "monitor")); err == nil {
		t.Fatal("deploy succeeded with agents down")
	}
	states := collectStates(t, events, "doomed")
	last := states[len(states)-1]
	if last != StateFailed {
		t.Fatalf("terminal state = %s, want Failed", last)
	}
	// The failure released everything: name reusable, resources free.
	if env.Orch.Service("doomed") != nil {
		t.Error("failed service still registered")
	}
	for _, ee := range []string{"ee1", "ee2"} {
		if cpu, mem := env.View.Committed(ee); cpu != 0 || mem != 0 {
			t.Errorf("%s still has %v CPU / %d mem committed", ee, cpu, mem)
		}
	}
}

func TestMidDeployFailureRollsBackToFailedWithCause(t *testing.T) {
	// ee2 has capacity in the view but the infrastructure refuses it:
	// the lifecycle must land in Failed carrying the cause, with every
	// reservation released.
	spec := demoSpec()
	env := startEnv(t, spec)
	ee2 := env.Net.Node("ee2").(*netem.EE)
	if _, err := ee2.InitVNF(netem.VNFSpec{Name: "squatter", ClickConfig: "FromDevice(in) -> ToDevice(out);", CPU: 3_900_000, Mem: 2000}); err != nil {
		t.Fatal(err)
	}
	events, cancel := env.Orch.Subscribe(32)
	defer cancel()
	g := sapGraph("half", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 2.5 // one NF per EE
	}
	if _, err := env.Orch.Deploy(g); err == nil {
		t.Fatal("deploy succeeded despite refusal")
	}
	var failed *Event
	for ev := range events {
		if ev.Service == "half" && ev.State.Terminal() {
			failed = &ev
			break
		}
	}
	if failed == nil || failed.State != StateFailed {
		t.Fatalf("terminal event = %+v, want Failed", failed)
	}
	if failed.Err == nil {
		t.Error("Failed event carries no cause")
	}
	for _, ee := range []string{"ee1", "ee2"} {
		if cpu, _ := env.View.Committed(ee); cpu != 0 {
			t.Errorf("%s still has %v CPU committed after rollback", ee, cpu)
		}
	}
}

// TestConcurrentDeploysCannotOversubscribe is the admission-atomicity
// proof: far more deploys race than the view can hold, and the committed
// resources must never exceed capacity (run under -race).
func TestConcurrentDeploysCannotOversubscribe(t *testing.T) {
	spec := demoSpec()
	// Room for exactly 3 NFs of 0.3 CPU on the only EE.
	spec.EEs = map[string]EESpec{"ee1": {Switch: "s1", CPU: 1.0, Mem: 2048}}
	env := startEnv(t, spec)

	const attempts = 10
	var wg sync.WaitGroup
	errs := make([]error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := sapGraph(fmt.Sprintf("t%d", i), "monitor")
			g.NFs[0].CPU = 0.3
			_, errs[i] = env.Orch.Deploy(g)
		}(i)
	}
	wg.Wait()

	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 3 {
		t.Errorf("admitted %d deploys, capacity fits exactly 3", ok)
	}
	cpu, _ := env.View.Committed("ee1")
	if cpu > 1_000_000 {
		t.Errorf("view oversubscribed: %v CPU committed of 1.0", cpu)
	}
	if got := len(env.Orch.Services()); got != ok {
		t.Errorf("services = %d, deployed = %d", got, ok)
	}
	for _, name := range env.Orch.Services() {
		if st := env.Orch.Service(name).State(); st != StateRunning {
			t.Errorf("service %s in state %s", name, st)
		}
		if err := env.Orch.Undeploy(name); err != nil {
			t.Error(err)
		}
	}
	if cpu, mem := env.View.Committed("ee1"); cpu != 0 || mem != 0 {
		t.Errorf("resources leaked after undeploy: %v CPU / %d mem", cpu, mem)
	}
}

func TestConcurrentDeploySameNameOneWinner(t *testing.T) {
	env := startEnv(t, demoSpec())
	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = env.Orch.Deploy(sapGraph("contested", "monitor"))
		}(i)
	}
	wg.Wait()
	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		} else if !strings.Contains(err.Error(), "already deployed") {
			t.Errorf("loser got unexpected error: %v", err)
		}
	}
	if wins != 1 {
		t.Errorf("winners = %d, want exactly 1", wins)
	}
	if err := env.Orch.Undeploy("contested"); err != nil {
		t.Fatal(err)
	}
}

// TestDeployUndeployChurn exercises the whole engine under -race: many
// workers deploying and undeploying distinct services repeatedly.
func TestDeployUndeployChurn(t *testing.T) {
	spec := demoSpec()
	spec.EEs = map[string]EESpec{
		"ee1": {Switch: "s1", CPU: 16, Mem: 16384},
		"ee2": {Switch: "s2", CPU: 16, Mem: 16384},
	}
	env := startEnv(t, spec)
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("churn-%d-%d", w, r)
				if _, err := env.Orch.Deploy(sapGraph(name, "monitor")); err != nil {
					t.Errorf("%s deploy: %v", name, err)
					return
				}
				if err := env.Orch.Undeploy(name); err != nil {
					t.Errorf("%s undeploy: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(env.Orch.Services()); got != 0 {
		t.Errorf("services left after churn: %d", got)
	}
	if env.Steering.ActivePaths() != 0 {
		t.Errorf("paths left after churn: %d", env.Steering.ActivePaths())
	}
	for _, ee := range []string{"ee1", "ee2"} {
		if cpu, mem := env.View.Committed(ee); cpu != 0 || mem != 0 {
			t.Errorf("%s leaked %v CPU / %d mem", ee, cpu, mem)
		}
	}
}

// TestTeardownDisconnectsSwitchPorts: undeploy must disconnectVNF every
// connected device, so agents report no device still bound to a switch
// port (the port-leak bugfix).
func TestTeardownDisconnectsSwitchPorts(t *testing.T) {
	env := startEnv(t, demoSpec())
	if _, err := env.Orch.Deploy(sapGraph("ports", "firewall", "monitor")); err != nil {
		t.Fatal(err)
	}
	if err := env.Orch.Undeploy("ports"); err != nil {
		t.Fatal(err)
	}
	for name, agent := range env.Agents {
		client, err := vnfagent.DialClient(agent.Addr())
		if err != nil {
			t.Fatal(err)
		}
		infos, err := client.GetVNFInfo()
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			for _, p := range info.Ports {
				// Connected devices render as "dev:port".
				if strings.Contains(p, ":") {
					t.Errorf("%s: VNF %s device %s still connected after undeploy", name, info.ID, p)
				}
			}
		}
		client.Close()
	}
}
