package vnfagent

import (
	"strings"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/click"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/pox"
	"escape/internal/yang"
)

// testbed: network with one switch, two hosts, one EE + agent + client.
func newAgentClient(t *testing.T) (*netem.Network, *Agent, *Client) {
	t.Helper()
	ctrl := pox.NewController()
	ctrl.Register(pox.NewL2Learning())
	topo := &netem.Topo{Switches: []string{"s1"}, Hosts: []netem.HostSpec{{Name: "h1", Switch: "s1"}, {Name: "h2", Switch: "s1"}}}
	n, err := netem.Build(topo, netem.Options{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	ee, err := n.AddEE("ee1", netem.EEConfig{CPU: 4, Mem: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	agent := New(ee, n, catalog.Default())
	if err := agent.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client, err := DialClient(agent.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		agent.Close()
		n.Stop()
		ctrl.Close()
	})
	return n, agent, client
}

// TestInitiateVNFOpRendersOneByteString: identical deploys put identical
// bytes on the wire, because the options go out in name order.
func TestInitiateVNFOpRendersOneByteString(t *testing.T) {
	options := map[string]string{"mem": "32", "cpu": "0.5", "pattern": "x", "rate": "10", "burst": "4"}
	want := InitiateVNFOp("monitor", options).XML()
	for i := 0; i < 100; i++ {
		if got := InitiateVNFOp("monitor", options).XML(); got != want {
			t.Fatalf("render %d:\n%s\nfirst render:\n%s", i, got, want)
		}
	}
	last := -1
	for _, name := range []string{"burst", "cpu", "mem", "pattern", "rate"} {
		at := strings.Index(want, "<name>"+name+"</name>")
		if at <= last {
			t.Fatalf("option %q out of name order in\n%s", name, want)
		}
		last = at
	}
}

func TestModuleRendersYANG(t *testing.T) {
	src := Module().YANG()
	for _, want := range []string{
		"module vnf_starter", "rpc initiateVNF", "rpc startVNF", "rpc stopVNF",
		"rpc connectVNF", "rpc disconnectVNF", "rpc getVNFInfo", "container vnfs",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("YANG missing %q", want)
		}
	}
}

func TestVNFFullLifecycleOverNETCONF(t *testing.T) {
	_, agent, client := newAgentClient(t)

	// initiateVNF
	id, err := client.InitiateVNF("simpleForwarder", map[string]string{"cpu": "0.5", "mem": "128"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(id, "simpleForwarder") {
		t.Errorf("vnf id = %q", id)
	}
	if agent.ee.AvailableCPU() != 3_500_000 {
		t.Errorf("available cpu = %v", agent.ee.AvailableCPU())
	}

	// connectVNF both ports.
	p1, err := client.ConnectVNF(id, "in", "s1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := client.ConnectVNF(id, "out", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 || p1 == 0 || p2 == 0 {
		t.Errorf("ports = %d, %d", p1, p2)
	}

	// startVNF returns a live ClickControl address.
	control, err := client.StartVNF(id)
	if err != nil {
		t.Fatal(err)
	}
	if control == "" {
		t.Fatal("no control address")
	}
	cc, err := click.DialControl(control)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := cc.Read("rx.count"); err != nil || v != "0" {
		t.Errorf("rx.count = %q err=%v", v, err)
	}
	cc.Close()

	// getVNFInfo reflects the running state.
	infos, err := client.GetVNFInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("infos = %+v", infos)
	}
	if infos[0].Status != "RUNNING" || infos[0].Type != "simpleForwarder" || infos[0].Control == "" {
		t.Errorf("info = %+v", infos[0])
	}
	if len(infos[0].Ports) != 2 || !strings.Contains(infos[0].Ports[0], "in:") {
		t.Errorf("ports = %v", infos[0].Ports)
	}

	// stopVNF.
	if err := client.StopVNF(id); err != nil {
		t.Fatal(err)
	}
	infos, _ = client.GetVNFInfo()
	if infos[0].Status != "STOPPED" {
		t.Errorf("status after stop = %s", infos[0].Status)
	}
}

func TestAgentRPCErrors(t *testing.T) {
	_, _, client := newAgentClient(t)
	if _, err := client.InitiateVNF("teleporter", nil); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := client.StartVNF("ghost"); err == nil {
		t.Error("start of unknown VNF accepted")
	}
	if _, err := client.ConnectVNF("ghost", "in", "s1"); err == nil {
		t.Error("connect of unknown VNF accepted")
	}
	// Schema-level validation: missing mandatory leaf.
	if _, err := client.Call(yang.NewData("startVNF")); err == nil {
		t.Error("startVNF without vnf_id accepted")
	}
	// Resource admission surfaces over NETCONF.
	if _, err := client.InitiateVNF("simpleForwarder", map[string]string{"cpu": "99"}); err == nil {
		t.Error("over-capacity VNF accepted")
	}
	// So does a parameter the catalog template refuses.
	if _, err := client.InitiateVNF("simpleForwarder", map[string]string{"QUEUE": "10, 5"}); err == nil {
		t.Error("VNF with QUEUE \"10, 5\" accepted")
	}
}

// TestAgentRejectsNonDecimalCPU: a cpu option that is not a decimal64 of
// whole micro-cores is an rpc-error and charges the EE nothing.
func TestAgentRejectsNonDecimalCPU(t *testing.T) {
	_, agent, client := newAgentClient(t)
	before := agent.ee.AvailableCPU()
	for _, cpu := range []string{"NaN", "+Inf", "1e300", "0x1p-2", "1e-7", "0.1234567", "-0.5", ".5"} {
		if id, err := client.InitiateVNF("monitor", map[string]string{"cpu": cpu}); err == nil {
			t.Errorf("cpu %q accepted as VNF %s", cpu, id)
		}
		if got := agent.ee.AvailableCPU(); got != before {
			t.Fatalf("cpu %q moved AvailableCPU %v → %v", cpu, before, got)
		}
	}
	if _, err := client.InitiateVNF("monitor", map[string]string{"cpu": "0.000001"}); err != nil {
		t.Errorf("one micro-core refused: %v", err)
	}
	infos, err := client.GetVNFInfo()
	if err != nil || len(infos) != 1 || infos[0].CPU != "0.000001" {
		t.Errorf("state = %+v, %v; want one VNF of cpu 0.000001", infos, err)
	}
}

func TestAgentDataPlaneThroughVNF(t *testing.T) {
	n, _, client := newAgentClient(t)
	id, err := client.InitiateVNF("monitor", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ConnectVNF(id, "in", "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ConnectVNF(id, "out", "s1"); err != nil {
		t.Fatal(err)
	}
	control, err := client.StartVNF(id)
	if err != nil {
		t.Fatal(err)
	}
	// Traffic flooded by the learning switch reaches the VNF's in port.
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, []byte("x"))
	h1.Send(frame)
	cc, err := click.DialControl(control)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := cc.Read("cnt.count")
		if err != nil {
			t.Fatal(err)
		}
		if v != "0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("VNF counter never moved")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReapedVNFLeavesGetVNFInfo: stop plus disconnect of every connected
// port releases a VNF — getVNFInfo lists live VNFs only, the agent drops
// its record, and the EE's capacity and switch ports are back. A VNF that
// never started stops (and is released) too.
func TestReapedVNFLeavesGetVNFInfo(t *testing.T) {
	n, agent, client := newAgentClient(t)
	links0 := len(n.Links())

	live, err := client.InitiateVNF("simpleForwarder", map[string]string{"cpu": "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := client.InitiateVNF("simpleForwarder", map[string]string{"cpu": "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"in", "out"} {
		if _, err := client.ConnectVNF(gone, dev, "s1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.StartVNF(gone); err != nil {
		t.Fatal(err)
	}
	if err := client.StopVNF(gone); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"in", "out"} {
		if err := client.DisconnectVNF(gone, dev); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := client.GetVNFInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != live {
		t.Errorf("getVNFInfo = %+v, want only %s", infos, live)
	}
	agent.mu.Lock()
	_, kept := agent.records[gone]
	agent.mu.Unlock()
	if kept {
		t.Error("agent kept the record of a released VNF")
	}
	if got := len(n.Links()); got != links0 {
		t.Errorf("links = %d, want %d", got, links0)
	}

	// Stopping the never-started, never-connected VNF releases it at once.
	if err := client.StopVNF(live); err != nil {
		t.Fatalf("stopping an initialized VNF: %v", err)
	}
	if infos, _ := client.GetVNFInfo(); len(infos) != 0 {
		t.Errorf("getVNFInfo after stop = %+v, want none", infos)
	}
	if got := agent.ee.AvailableCPU(); got != 4_000_000 {
		t.Errorf("available CPU = %v, want 4", got)
	}
}

func TestDisconnectVNFOverNETCONF(t *testing.T) {
	_, _, client := newAgentClient(t)
	id, _ := client.InitiateVNF("simpleForwarder", nil)
	if _, err := client.ConnectVNF(id, "in", "s1"); err != nil {
		t.Fatal(err)
	}
	if err := client.DisconnectVNF(id, "in"); err != nil {
		t.Fatal(err)
	}
	// Reconnect works after disconnect.
	if _, err := client.ConnectVNF(id, "in", "s1"); err != nil {
		t.Fatal(err)
	}
}
