package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"escape/internal/netconf"
	"escape/internal/netem"
	"escape/internal/sg"
	"escape/internal/vnfagent"
	"escape/internal/yang"
)

// lineSpec is a 4-switch line with one EE per switch and a host at each
// end:
//
//	h1 — s1 — s2 — s3 — s4 — h2
//	     |    |    |    |
//	    ee1  ee2  ee3  ee4
func lineSpec() TopoSpec {
	spec := TopoSpec{
		Switches: []string{"s1", "s2", "s3", "s4"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s4"},
		EEs:      map[string]EESpec{},
		Trunks:   []TrunkSpec{{A: "s1", B: "s2"}, {A: "s2", B: "s3"}, {A: "s3", B: "s4"}},
	}
	for i := 1; i <= 4; i++ {
		spec.EEs[fmt.Sprintf("ee%d", i)] = EESpec{Switch: fmt.Sprintf("s%d", i), CPU: 4, Mem: 2048}
	}
	return spec
}

// spreadChain is a 3-NF chain whose NFs are too big to share an EE, so
// every cycle touches three EEs and multi-hop paths.
func spreadChain(name string) *sg.Graph {
	g := sapGraph(name, "monitor", "monitor", "monitor")
	for _, nf := range g.NFs {
		nf.CPU = 2.5
	}
	return g
}

// inventory is everything a deploy creates in the infrastructure.
type inventory struct {
	VNFs   map[string][]string // EE → sorted VNF names
	Info   map[string][]string // agent → VNF ids getVNFInfo lists
	CPU    map[string]sg.CPU   // EE → AvailableCPU
	Links  int
	Ports  map[string]int // switch → PortCount
	Tables map[string]int // switch → flow-table length
}

func takeInventory(t *testing.T, env *Environment, clients map[string]*vnfagent.Client) inventory {
	t.Helper()
	inv := inventory{
		VNFs: map[string][]string{}, Info: map[string][]string{}, CPU: map[string]sg.CPU{},
		Ports: map[string]int{}, Tables: map[string]int{},
		Links: len(env.Net.Links()),
	}
	for _, name := range env.Net.NodeNames(netem.KindEE) {
		ee := env.Net.Node(name).(*netem.EE)
		inv.VNFs[name] = slices.Sorted(slices.Values(ee.VNFNames()))
		inv.CPU[name] = ee.AvailableCPU()
		infos, err := clients[name].GetVNFInfo()
		if err != nil {
			t.Fatalf("getVNFInfo on %s: %v", name, err)
		}
		ids := []string{}
		for _, info := range infos {
			ids = append(ids, info.ID)
		}
		inv.Info[name] = slices.Sorted(slices.Values(ids))
	}
	for _, name := range env.Net.NodeNames(netem.KindSwitch) {
		sw := env.Net.Node(name).(*netem.SwitchNode).Switch()
		inv.Ports[name] = sw.PortCount()
		inv.Tables[name] = sw.Table().Len()
	}
	return inv
}

// failingAgents fronts every agent of env with a proxy that fails the
// second connectVNF each agent sees (see proxiedAgents).
func failingAgents(t *testing.T, env *Environment) *Orchestrator {
	t.Helper()
	return proxiedAgents(t, env, refuseNth("connectVNF", 2))
}

// refuseNth is a proxiedAgents intercept that refuses the nth rpc of
// the given name each agent sees.
func refuseNth(rpc string, n int) func(ee, name string) error {
	var (
		mu   sync.Mutex
		seen = map[string]int{}
	)
	return func(ee, name string) error {
		if name != rpc {
			return nil
		}
		mu.Lock()
		seen[ee]++
		k := seen[ee]
		mu.Unlock()
		if k == n {
			return fmt.Errorf("injected %s failure", rpc)
		}
		return nil
	}
}

// proxiedAgents fronts every agent of env with a NETCONF server that
// passes RPCs through unchanged unless intercept, called with the EE's
// name and the rpc's name before the rpc is passed on, returns an error,
// which the proxy replies with instead. It returns an orchestrator over
// env's view, steering and catalog that manages the EEs through them.
func proxiedAgents(t *testing.T, env *Environment, intercept func(ee, rpc string) error) *Orchestrator {
	t.Helper()
	addrs := map[string]string{}
	for name, agent := range env.Agents {
		client, err := vnfagent.DialClient(agent.Addr())
		if err != nil {
			t.Fatal(err)
		}
		srv := netconf.NewServer(vnfagent.Module())
		for _, rpc := range []string{"initiateVNF", "startVNF", "stopVNF", "connectVNF", "disconnectVNF", "getVNFInfo"} {
			srv.Handle(rpc, func(_ *netconf.Session, in *yang.Data) (*yang.Data, error) {
				if err := intercept(name, rpc); err != nil {
					return nil, err
				}
				reply, err := client.Call(in)
				if err != nil {
					return nil, err
				}
				return reply.Child("output"), nil
			})
		}
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			client.Close()
		})
		addrs[name] = srv.Addr().String()
	}
	orch, err := New(Config{
		Controller: env.Ctrl, Steering: env.Steering, Catalog: env.Catalog,
		View: env.View, Agents: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(orch.Shutdown)
	return orch
}

// TestReapAfterFailedConnect: a deploy whose second connectVNF fails
// leaves an initialized VNF behind on a healthy EE; the rollback must stop
// it too, so the EE's capacity, VNF list and switch ports are exactly as
// before the deploy.
func TestReapAfterFailedConnect(t *testing.T) {
	env := startEnv(t, demoSpec())
	clients := agentClients(t, env)
	before := takeInventory(t, env, clients)
	if _, err := failingAgents(t, env).Deploy(sapGraph("half", "monitor")); err == nil {
		t.Fatal("deploy succeeded through a failing connectVNF")
	}
	if after := takeInventory(t, env, clients); !reflect.DeepEqual(after, before) {
		t.Errorf("failed deploy left the infrastructure changed:\nbefore %+v\nafter  %+v", before, after)
	}
}

func agentClients(t *testing.T, env *Environment) map[string]*vnfagent.Client {
	t.Helper()
	clients := map[string]*vnfagent.Client{}
	for _, name := range slices.Sorted(maps.Keys(env.Agents)) {
		c, err := vnfagent.DialClient(env.Agents[name].Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[name] = c
	}
	return clients
}

// TestChurnRestoresInventory: 50 deploy/undeploy cycles of a 3-NF chain
// on a 4-switch line, one of them healed across an EE crash and one a
// deploy that fails mid-realization. After every cycle the EEs' VNFs and
// capacity, the agents' getVNFInfo, the network's links and every
// switch's ports and flow table are exactly what they were before the
// first deploy: undeploy is the inverse of deploy.
func TestChurnRestoresInventory(t *testing.T) {
	const (
		cycles    = 50
		healCycle = 17
		failCycle = 33
	)
	env := startEnv(t, lineSpec())
	clients := agentClients(t, env)
	failing := failingAgents(t, env)
	before := takeInventory(t, env, clients)

	for i := range cycles {
		name := fmt.Sprintf("churn%d", i)
		switch i {
		case failCycle:
			if _, err := failing.Deploy(spreadChain(name)); err == nil {
				t.Fatalf("cycle %d: deploy succeeded through a failing connectVNF", i)
			}
		case healCycle:
			svc, err := env.Orch.Deploy(spreadChain(name))
			if err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			victim := svc.Placements()["nf1"]
			env.Net.Node(victim).(*netem.EE).Crash()
			env.View.ExcludeEE(victim)
			rep, err := env.Orch.Heal(name)
			if err != nil {
				t.Fatalf("cycle %d: heal: %v", i, err)
			}
			if len(rep.Moved) != 1 || rep.Moved["nf1"] == victim {
				t.Fatalf("cycle %d: heal moved %v off %s", i, rep.Moved, victim)
			}
			if err := env.Orch.Undeploy(name); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			env.Net.Node(victim).(*netem.EE).Restart()
			env.View.UnexcludeEE(victim)
		default:
			if _, err := env.Orch.Deploy(spreadChain(name)); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			if err := env.Orch.Undeploy(name); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
		if after := takeInventory(t, env, clients); !reflect.DeepEqual(after, before) {
			t.Fatalf("cycle %d left the infrastructure changed:\nbefore %+v\nafter  %+v", i, before, after)
		}
	}
}
