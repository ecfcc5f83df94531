package core

import (
	"strings"
	"testing"
	"time"

	"escape/internal/click"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/sg"
)

// demoSpec is the canonical two-switch, two-EE test topology:
//
//	h1 — s1 ——— s2 — h2
//	      |      |
//	     ee1    ee2
func demoSpec() TopoSpec {
	return TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]EESpec{
			"ee1": {Switch: "s1", CPU: 4, Mem: 2048},
			"ee2": {Switch: "s2", CPU: 4, Mem: 2048},
		},
		Trunks: []TrunkSpec{{A: "s1", B: "s2"}},
	}
}

func startEnv(t *testing.T, spec TopoSpec) *Environment {
	t.Helper()
	env, err := StartEnvironment(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

// sapGraph builds a chain graph whose SAPs are named after the hosts.
func sapGraph(name string, nfTypes ...string) *sg.Graph {
	g := sg.NewChainGraph(name, nfTypes...)
	g.SAPs[0].ID = "h1"
	g.SAPs[1].ID = "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"
	return g
}

func TestDeployChainEndToEnd(t *testing.T) {
	env := startEnv(t, demoSpec())
	g := sapGraph("web-chain", "firewall", "monitor")
	g.NFs[0].Params = map[string]string{"RULES": "allow udp, deny -"}

	svc, err := env.Orch.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.NFs) != 2 {
		t.Fatalf("deployed NFs = %d", len(svc.NFs))
	}
	for id, dep := range svc.NFs {
		if dep.Control == "" {
			t.Errorf("NF %s has no control address", id)
		}
		if len(dep.SwPorts) < 2 {
			t.Errorf("NF %s connected ports = %v", id, dep.SwPorts)
		}
	}
	for _, phase := range []string{"map", "vnf-setup", "steering"} {
		if svc.PhaseDurations[phase] <= 0 {
			t.Errorf("phase %q has no duration", phase)
		}
	}

	// Demo step 4: send live traffic through the chain.
	h1 := env.Host("h1")
	h2 := env.Host("h2")
	h2.SetAutoRespond(false)
	frame, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 5000, 5001, []byte("through the chain"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	delivered := false
	for !delivered && time.Now().Before(deadline) {
		h1.Send(frame)
		select {
		case rx := <-h2.Recv():
			dec := pkt.Decode(rx.Frame)
			u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
			if ok && string(u.Payload()) == "through the chain" {
				delivered = true
			}
		case <-time.After(200 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("no UDP frame traversed the deployed chain")
	}

	// Demo step 5: monitor the VNFs via their Click control sockets.
	fw := svc.NFs["nf1"]
	cc, err := click.DialControl(fw.Control)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	passed, err := cc.Read("fw.passed")
	if err != nil {
		t.Fatal(err)
	}
	if passed == "0" {
		t.Error("firewall passed no packets although traffic flowed")
	}

	// TCP should be dropped by the firewall rules.
	tcpFrame, _ := pkt.BuildTCP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 80, pkt.TCPSyn, 0, nil)
	h1.Send(tcpFrame)
	select {
	case rx := <-h2.Recv():
		dec := pkt.Decode(rx.Frame)
		if dec.Layer(pkt.LayerTypeTCP) != nil {
			t.Error("TCP frame leaked through deny rule")
		}
	case <-time.After(200 * time.Millisecond):
	}

	// Undeploy: steering gone, VNFs stopped, resources released.
	if err := env.Orch.Undeploy("web-chain"); err != nil {
		t.Fatal(err)
	}
	if env.Steering.ActivePaths() != 0 {
		t.Errorf("paths still active: %d", env.Steering.ActivePaths())
	}
	for _, eeName := range []string{"ee1", "ee2"} {
		ee := env.Net.Node(eeName).(*netem.EE)
		if got, want := ee.AvailableCPU(), sg.CPU(4_000_000); got != want {
			t.Errorf("%s CPU after undeploy = %v, want %v", eeName, got, want)
		}
	}
}

func TestDeployCompressionChain(t *testing.T) {
	env := startEnv(t, demoSpec())
	// The UNIFY demo chain: compress on the access side, decompress on
	// the remote side.
	g := sapGraph("bw-saver", "headerCompressor", "headerDecompressor")
	svc, err := env.Orch.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	h1 := env.Host("h1")
	h2 := env.Host("h2")
	h2.SetAutoRespond(false)
	payload := "compress me please, I am a long UDP payload"
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 4000, 4001, []byte(payload))
	deadline := time.Now().Add(5 * time.Second)
	ok := false
	for !ok && time.Now().Before(deadline) {
		h1.Send(frame)
		select {
		case rx := <-h2.Recv():
			dec := pkt.Decode(rx.Frame)
			if u, isUDP := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP); isUDP {
				if string(u.Payload()) != payload {
					t.Fatalf("payload corrupted: %q", u.Payload())
				}
				ip := dec.IPv4Layer()
				if ip.Src != h1.IP() || ip.Dst != h2.IP() {
					t.Fatalf("headers not restored: %s", dec)
				}
				ok = true
			}
		case <-time.After(200 * time.Millisecond):
		}
	}
	if !ok {
		t.Fatal("no restored frame emerged from the chain")
	}
	// The compressor must have actually compressed.
	comp := svc.NFs["nf1"]
	cc, err := click.DialControl(comp.Control)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if v, _ := cc.Read("comp.compressed"); v == "0" {
		t.Error("compressor handled no packets")
	}
}

func TestDeployRejectsInfeasible(t *testing.T) {
	spec := demoSpec()
	spec.EEs = map[string]EESpec{"ee1": {Switch: "s1", CPU: 0.1, Mem: 16}}
	env := startEnv(t, spec)
	g := sapGraph("toobig", "dpi")
	if _, err := env.Orch.Deploy(g); err == nil {
		t.Fatal("infeasible graph deployed")
	}
	// Nothing must leak.
	if env.Steering.ActivePaths() != 0 {
		t.Error("paths leaked")
	}
	if got := env.Net.Node("ee1").(*netem.EE).AvailableCPU(); got != 100_000 {
		t.Errorf("CPU leaked: %v", got)
	}
}

func TestDeployDuplicateName(t *testing.T) {
	env := startEnv(t, demoSpec())
	g := sapGraph("dup", "monitor")
	if _, err := env.Orch.Deploy(g); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Orch.Deploy(sapGraph("dup", "monitor")); err == nil {
		t.Error("duplicate service name accepted")
	}
	if err := env.Orch.Undeploy("dup"); err != nil {
		t.Fatal(err)
	}
	if err := env.Orch.Undeploy("dup"); err == nil {
		t.Error("double undeploy succeeded")
	}
}

func TestSetMapperSwapsAlgorithm(t *testing.T) {
	env := startEnv(t, demoSpec())
	if env.Orch.Mapper().MapperName() != "ksp" {
		t.Errorf("default mapper = %s", env.Orch.Mapper().MapperName())
	}
	env.Orch.SetMapper(&GreedyMapper{Catalog: env.Catalog})
	if env.Orch.Mapper().MapperName() != "greedy" {
		t.Error("mapper not swapped")
	}
	if _, err := env.Orch.Deploy(sapGraph("greedy-svc", "monitor")); err != nil {
		t.Fatal(err)
	}
}

func TestServicesListing(t *testing.T) {
	env := startEnv(t, demoSpec())
	if _, err := env.Orch.Deploy(sapGraph("alpha", "monitor")); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Orch.Deploy(sapGraph("beta", "monitor")); err != nil {
		t.Fatal(err)
	}
	got := env.Orch.Services()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Errorf("services = %v", got)
	}
	if env.Orch.Service("alpha") == nil || env.Orch.Service("nope") != nil {
		t.Error("Service lookup broken")
	}
}

func TestChainFlowStats(t *testing.T) {
	env := startEnv(t, demoSpec())
	if _, err := env.Orch.Deploy(sapGraph("counted", "monitor")); err != nil {
		t.Fatal(err)
	}
	h1 := env.Host("h1")
	h2 := env.Host("h2")
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, []byte("count me"))
	for i := 0; i < 5; i++ {
		h1.Send(frame)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		pkts, _, err := env.Orch.ChainFlowStats("counted")
		if err != nil {
			t.Fatal(err)
		}
		if pkts > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chain flow stats stayed zero")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, err := env.Orch.ChainFlowStats("ghost"); err == nil {
		t.Error("stats for unknown service succeeded")
	}
}

func TestBuildResourceViewFromEmulation(t *testing.T) {
	env := startEnv(t, demoSpec())
	rv := env.View
	if len(rv.Switches) != 2 || len(rv.EEs) != 2 || len(rv.SAPs) != 2 {
		t.Fatalf("view shape: %d switches %d EEs %d SAPs", len(rv.Switches), len(rv.EEs), len(rv.SAPs))
	}
	if rv.SAPs["h1"].Switch != "s1" || rv.SAPs["h2"].Switch != "s2" {
		t.Errorf("SAP bindings = %+v", rv.SAPs)
	}
	if len(rv.Links) != 1 || rv.linkBetween("s1", "s2") == nil {
		t.Errorf("links = %+v", rv.Links)
	}
	if strings.Count(strings.Join(rv.EENames(), ","), "ee") != 2 {
		t.Errorf("EE names = %v", rv.EENames())
	}
}
