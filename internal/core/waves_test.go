package core

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"escape/internal/netem"
	"escape/internal/vnfagent"
)

// oneEESpec is demoSpec with a single EE, so a whole chain realizes on
// one management session.
func oneEESpec() TopoSpec {
	spec := demoSpec()
	delete(spec.EEs, "ee2")
	return spec
}

// TestWaveRefusedInitiateRestoresInventory: the EE runs out of CPU on
// the second of three initiateVNFs. The third, pipelined behind it, is
// still initiated, and the rollback stops both survivors.
func TestWaveRefusedInitiateRestoresInventory(t *testing.T) {
	env := startEnv(t, oneEESpec())
	// Leave 1.5 cores of the EE's 4 free behind the view's back: nf1
	// (0.5) fits, nf2 (1.5) no longer does, nf3 (0.5) does again.
	ee := env.Net.Node("ee1").(*netem.EE)
	if _, err := ee.InitVNF(netem.VNFSpec{Name: "squatter", ClickConfig: "FromDevice(in) -> ToDevice(out);", CPU: 2_500_000, Mem: 100}); err != nil {
		t.Fatal(err)
	}
	clients := agentClients(t, env)
	before := takeInventory(t, env, clients)
	g := sapGraph("cpu-short", "monitor", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 0.5
	}
	g.NF("nf2").CPU = 1.5
	var initiated atomic.Int32
	orch := proxiedAgents(t, env, func(_, rpc string) error {
		if rpc == "initiateVNF" {
			initiated.Add(1)
		}
		return nil
	})
	_, err := orch.Deploy(g)
	if err == nil || !strings.Contains(err.Error(), `initiateVNF "nf2"`) {
		t.Fatalf("deploy error = %v, want nf2's refused initiateVNF", err)
	}
	if n := initiated.Load(); n != 3 {
		t.Errorf("%d initiateVNFs reached the agent, want all 3 of the wave", n)
	}
	if after := takeInventory(t, env, clients); !reflect.DeepEqual(after, before) {
		t.Errorf("failed deploy left the infrastructure changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestWaveFailedStartRestoresInventory: one startVNF of the last wave
// fails after every VNF was initiated and connected; the rollback stops
// and disconnects all of them.
func TestWaveFailedStartRestoresInventory(t *testing.T) {
	env := startEnv(t, oneEESpec())
	clients := agentClients(t, env)
	before := takeInventory(t, env, clients)
	orch := proxiedAgents(t, env, refuseNth("startVNF", 2))
	_, err := orch.Deploy(sapGraph("no-start", "monitor", "monitor", "monitor"))
	if err == nil || !strings.Contains(err.Error(), "injected startVNF failure") {
		t.Fatalf("deploy error = %v, want the injected startVNF failure", err)
	}
	if after := takeInventory(t, env, clients); !reflect.DeepEqual(after, before) {
		t.Errorf("failed deploy left the infrastructure changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestWaveRefusedConnectStopsStarted: the second connectVNF of the merged
// connect-and-start flight is refused. The startVNFs behind it in the
// flight still run, every one of them, and the rollback then stops all
// three VNFs and disconnects what was connected, leaving the inventory
// exactly as the deploy found it.
func TestWaveRefusedConnectStopsStarted(t *testing.T) {
	env := startEnv(t, oneEESpec())
	clients := agentClients(t, env)
	before := takeInventory(t, env, clients)
	var (
		mu   sync.Mutex
		rpcs []string
	)
	refuse := refuseNth("connectVNF", 2)
	orch := proxiedAgents(t, env, func(ee, rpc string) error {
		mu.Lock()
		rpcs = append(rpcs, rpc)
		mu.Unlock()
		return refuse(ee, rpc)
	})
	_, err := orch.Deploy(sapGraph("no-connect", "monitor", "monitor", "monitor"))
	if err == nil || !strings.Contains(err.Error(), "injected connectVNF failure") {
		t.Fatalf("deploy error = %v, want the injected connectVNF failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	starts, stops, lastStart := 0, 0, -1
	for i, r := range rpcs {
		switch r {
		case "startVNF":
			starts, lastStart = starts+1, i
		case "stopVNF":
			stops++
		}
	}
	if starts != 3 {
		t.Errorf("%d startVNFs reached the agent, want the flight's 3: %v", starts, rpcs)
	}
	if stops != 3 || slices.Index(rpcs, "stopVNF") < lastStart {
		t.Errorf("the rollback sent %d stopVNFs, want 3, all after the starts: %v", stops, rpcs)
	}
	if after := takeInventory(t, env, clients); !reflect.DeepEqual(after, before) {
		t.Errorf("failed deploy left the infrastructure changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestWaveRPCCounts pins the management cost of a 3-NF, 2-port chain on
// one EE: 12 RPCs to deploy, in the order of the three waves, and 9 to
// undeploy — the same RPCs the vnf_starter model always took.
func TestWaveRPCCounts(t *testing.T) {
	env := startEnv(t, oneEESpec())
	var (
		mu   sync.Mutex
		rpcs []string
	)
	orch := proxiedAgents(t, env, func(_, rpc string) error {
		mu.Lock()
		rpcs = append(rpcs, rpc)
		mu.Unlock()
		return nil
	})
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := rpcs
		rpcs = nil
		return out
	}
	if _, err := orch.Deploy(sapGraph("counted", "monitor", "monitor", "monitor")); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, wave := range []struct {
		rpc string
		n   int
	}{{"initiateVNF", 3}, {"connectVNF", 6}, {"startVNF", 3}} {
		for range wave.n {
			want = append(want, wave.rpc)
		}
	}
	if got := take(); !slices.Equal(got, want) {
		t.Errorf("deploy sent %d rpcs %v, want %d %v", len(got), got, len(want), want)
	}
	if err := orch.Undeploy("counted"); err != nil {
		t.Fatal(err)
	}
	want = nil
	for range 3 {
		want = append(want, "stopVNF", "disconnectVNF", "disconnectVNF")
	}
	if got := take(); !slices.Equal(got, want) {
		t.Errorf("undeploy sent %d rpcs %v, want %d %v", len(got), got, len(want), want)
	}
}

// TestSiblingFailureKeepsSession: a deploy spans two EEs and ee2's agent
// refuses initiateVNF. ee1's realization is cancelled between its waves,
// and the cancellation must not cost ee1 its management session: ee1's
// next borrow reuses the same session, with no redial.
func TestSiblingFailureKeepsSession(t *testing.T) {
	env := startEnv(t, demoSpec())
	clients := agentClients(t, env)
	before := takeInventory(t, env, clients)
	var (
		orch      *Orchestrator
		ee2       string // the session ee2's realization borrows
		refused   = make(chan struct{})
		refuse    sync.Once
		connects1 atomic.Int32
	)
	session := func(p *vnfagent.Pool) (string, error) {
		var id string
		err := p.Do(func(c *vnfagent.Client) error { id = c.SessionID; return nil })
		return id, err
	}
	orch = proxiedAgents(t, env, func(ee, rpc string) error {
		switch {
		case ee == "ee2" && rpc == "initiateVNF":
			refuse.Do(func() { close(refused) })
			return errors.New("injected initiateVNF refusal")
		case ee == "ee1" && rpc == "initiateVNF":
			// Answer only after ee2's realization failed: a failing EE
			// cancels its siblings before its borrow of its session
			// ends, so ee1 must see that at its next wave. The borrow
			// has ended when ee2's session is lent again: every other
			// session lent here is closed, not returned, so the pool
			// holds nothing else to lend.
			<-refused
			p, err := orch.pool("ee2")
			if err != nil {
				return err
			}
			notYet := errors.New("not ee2's realization session")
			for deadline := time.Now().Add(mgmtBound / 2); ; time.Sleep(time.Millisecond) {
				err := p.Do(func(c *vnfagent.Client) error {
					if c.SessionID != ee2 {
						return notYet
					}
					return nil
				})
				if err != notYet {
					return err
				}
				if time.Now().After(deadline) {
					return errors.New("ee2's borrow did not end")
				}
			}
		case ee == "ee1" && rpc == "connectVNF":
			connects1.Add(1)
		}
		return nil
	})
	p1, err := orch.pool("ee1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := orch.pool("ee2")
	if err != nil {
		t.Fatal(err)
	}
	first, err := session(p1)
	if err != nil {
		t.Fatal(err)
	}
	if ee2, err = session(p2); err != nil {
		t.Fatal(err)
	}

	g := sapGraph("spans-two", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 2.5 // one NF per EE
	}
	if _, err := orch.Deploy(g); err == nil || !strings.Contains(err.Error(), "injected initiateVNF refusal") {
		t.Fatalf("deploy error = %v, want ee2's refusal", err)
	}
	if n := connects1.Load(); n != 0 {
		t.Errorf("ee1 was sent %d connectVNFs after its sibling failed, want 0", n)
	}
	if got, err := session(p1); err != nil || got != first {
		t.Errorf("ee1's session changed from %s to %s (%v): the cancelled realization closed it", first, got, err)
	}
	if after := takeInventory(t, env, clients); !reflect.DeepEqual(after, before) {
		t.Errorf("failed deploy left the infrastructure changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

// mgmtBound is the NETCONF client's per-RPC deadline (netconf's
// rpcBound): the longest one management call may take.
const mgmtBound = 2 * time.Second

// TestHungAgentFailsDeployWithinBound: the agent answers hello but
// never answers initiateVNF. The one-rpc initiate flight fails at the
// client's deadline, the deploy rolls back to the inventory it found,
// and a Shutdown that lands while the flight hangs returns with it.
func TestHungAgentFailsDeployWithinBound(t *testing.T) {
	env := startEnv(t, oneEESpec())
	clients := agentClients(t, env)
	before := takeInventory(t, env, clients)
	var (
		hang    = make(chan struct{})
		entered = make(chan struct{})
		enter   sync.Once
	)
	orch := proxiedAgents(t, env, func(_, rpc string) error {
		if rpc != "initiateVNF" {
			return nil
		}
		enter.Do(func() { close(entered) })
		<-hang
		return errors.New("released after the test")
	})
	t.Cleanup(func() { close(hang) }) // runs before proxiedAgents' cleanups

	start := time.Now()
	deployed := make(chan error, 1)
	go func() {
		_, err := orch.Deploy(sapGraph("hung", "monitor"))
		deployed <- err
	}()
	<-entered
	shut := make(chan struct{})
	go func() {
		orch.shutdown()
		close(shut)
	}()
	limit := time.After(mgmtBound + time.Second)
	select {
	case err := <-deployed:
		if err == nil {
			t.Fatal("deploy succeeded through a hung agent")
		}
		t.Logf("deploy failed after %v: %v", time.Since(start), err)
	case <-limit:
		t.Fatalf("deploy still blocked on a hung agent after %v (bound %v)", time.Since(start), mgmtBound)
	}
	select {
	case <-shut:
	case <-limit:
		t.Fatalf("Shutdown still blocked after %v (bound %v)", time.Since(start), mgmtBound)
	}
	if after := takeInventory(t, env, clients); !reflect.DeepEqual(after, before) {
		t.Errorf("failed deploy left the infrastructure changed:\nbefore %+v\nafter  %+v", before, after)
	}
}
