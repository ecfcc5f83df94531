package netem

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"escape/internal/pkt"
	"escape/internal/pox"
)

// newStartedNet builds and starts a description with an l2_learning
// controller.
func newStartedNet(t *testing.T, topo *Topo) (*Network, *pox.Controller) {
	t.Helper()
	ctrl := pox.NewController()
	ctrl.Register(pox.NewL2Learning())
	n, err := Build(topo, Options{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Stop()
		ctrl.Close()
	})
	return n, ctrl
}

func TestAddNodesAndDuplicates(t *testing.T) {
	n := New("t", Options{})
	if _, err := n.AddHost("h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("h1"); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := n.AddSwitch("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddEE("ee1", EEConfig{}); err != nil {
		t.Fatal(err)
	}
	if n.Node("h1") == nil || n.Node("nope") != nil {
		t.Error("Node lookup broken")
	}
	if got := n.NodeNames(kindHost); len(got) != 1 || got[0] != "h1" {
		t.Errorf("hosts = %v", got)
	}
	n.Stop()
}

func TestAddLinkUnknownNode(t *testing.T) {
	n := New("t", Options{})
	n.AddHost("h1")
	if _, err := n.AddLink("h1", "ghost", LinkConfig{}); err == nil {
		t.Error("link to unknown node accepted")
	}
	n.Stop()
}

func TestHostAddressing(t *testing.T) {
	n := New("t", Options{})
	h1, _ := n.AddHost("h1")
	h2, _ := n.AddHost("h2")
	n.AddSwitch("s1")
	n.AddLink("h1", "s1", LinkConfig{})
	n.AddLink("h2", "s1", LinkConfig{})
	defer n.Stop()
	if h1.IP() == h2.IP() {
		t.Error("hosts share an IP")
	}
	if h1.MAC() == h2.MAC() {
		t.Error("hosts share a MAC")
	}
	if h1.port(0).Name != "h1-eth0" {
		t.Errorf("port name = %s", h1.port(0).Name)
	}
	if h1.port(5) != nil {
		t.Error("out-of-range port not nil")
	}
}

func TestPingThroughLearningSwitch(t *testing.T) {
	topo := &Topo{Switches: []string{"s1"}, Hosts: []HostSpec{{Name: "h1", Switch: "s1"}, {Name: "h2", Switch: "s1"}}}
	n, _ := newStartedNet(t, topo)
	h1 := n.Node("h1").(*Host)
	h2 := n.Node("h2").(*Host)

	// ARP resolution: h1 asks for h2's MAC.
	req, err := arpRequest(h1.MAC(), h1.IP(), h2.IP())
	if err != nil {
		t.Fatal(err)
	}
	h1.Send(req)
	var h2mac pkt.MAC
	select {
	case rx := <-h1.Recv():
		a, ok := pkt.Decode(rx.Frame).Layer(pkt.LayerTypeARP).(*pkt.ARP)
		if !ok || a.Op != pkt.ARPReply || a.SenderIP != h2.IP() {
			t.Fatalf("unexpected frame: %s", pkt.Decode(rx.Frame))
		}
		h2mac = a.SenderMAC
	case <-time.After(2 * time.Second):
		t.Fatal("no ARP reply")
	}
	if h2mac != h2.MAC() {
		t.Fatalf("ARP reply MAC = %s, want %s", h2mac, h2.MAC())
	}

	// ICMP echo through the switch; h2's stack answers automatically.
	echo, err := pkt.BuildICMPEcho(h1.MAC(), h2mac, h1.IP(), h2.IP(), pkt.ICMPEchoRequest, 7, 1, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	h1.Send(echo)
	select {
	case rx := <-h1.Recv():
		ic, ok := pkt.Decode(rx.Frame).Layer(pkt.LayerTypeICMP).(*pkt.ICMP)
		if !ok || ic.Type != pkt.ICMPEchoReply || ic.Ident != 7 {
			t.Fatalf("unexpected frame: %s", pkt.Decode(rx.Frame))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no echo reply")
	}
}

func TestLinearTopologyEndToEnd(t *testing.T) {
	topo, err := Linear(3, Sizing{})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := newStartedNet(t, topo)
	h1 := n.Node("h1").(*Host)
	h3 := n.Node("h3").(*Host)
	// UDP h1 → h3 across three switches: first flood reaches h3.
	frame, err := pkt.BuildUDP(h1.MAC(), h3.MAC(), h1.IP(), h3.IP(), 1000, 2000, []byte("across"))
	if err != nil {
		t.Fatal(err)
	}
	h1.Send(frame)
	select {
	case rx := <-h3.Recv():
		u, ok := pkt.Decode(rx.Frame).Layer(pkt.LayerTypeUDP).(*pkt.UDP)
		if !ok || string(u.Payload()) != "across" {
			t.Fatalf("frame = %s", pkt.Decode(rx.Frame))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame did not cross the linear topology")
	}
}

func TestBuildGeneratorsValidate(t *testing.T) {
	if _, err := Linear(0, Sizing{}); err == nil {
		t.Error("linear(0) accepted")
	}
}

// TestUnshapedLinkHasNoQueue: an unshaped link delivers inline in both
// directions, so AddLink gives its pipes no egress queue; a shaped link
// keeps one of the configured depth.
func TestUnshapedLinkHasNoQueue(t *testing.T) {
	n := New("t", Options{})
	for _, h := range []string{"h1", "h2", "h3"} {
		if _, err := n.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := n.AddLink("h1", "h2", LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ab.queue != nil || plain.ba.queue != nil {
		t.Errorf("unshaped link allocated egress queues of %d and %d slots", cap(plain.ab.queue), cap(plain.ba.queue))
	}
	shaped, err := n.AddLink("h2", "h3", LinkConfig{Delay: time.Millisecond, QueueLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cap(shaped.ab.queue) != 8 || cap(shaped.ba.queue) != 8 {
		t.Errorf("shaped link queues hold %d and %d slots, want 8", cap(shaped.ab.queue), cap(shaped.ba.queue))
	}
}

func TestShapedLinkDelay(t *testing.T) {
	n := New("t", Options{})
	h1, _ := n.AddHost("h1")
	h2, _ := n.AddHost("h2")
	n.AddLink("h1", "h2", LinkConfig{Delay: 30 * time.Millisecond})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, []byte("delayed"))
	start := time.Now()
	h1.Send(frame)
	select {
	case <-h2.Recv():
		if rtt := time.Since(start); rtt < 25*time.Millisecond {
			t.Errorf("one-way latency = %v, want ≥30ms", rtt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed frame never arrived")
	}
}

func TestShapedLinkBandwidth(t *testing.T) {
	n := New("t", Options{})
	h1, _ := n.AddHost("h1")
	h2, _ := n.AddHost("h2")
	// 800 kbit/s; 10 × 1000-byte frames = 80000 bits ≈ 100ms.
	n.AddLink("h1", "h2", LinkConfig{Bandwidth: 800e3})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, make([]byte, 958))
	start := time.Now()
	for i := 0; i < 10; i++ {
		h1.Send(frame)
	}
	for i := 0; i < 10; i++ {
		select {
		case <-h2.Recv():
		case <-time.After(5 * time.Second):
			t.Fatal("shaped frames missing")
		}
	}
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond {
		t.Errorf("10 frames over 800kbps took %v, want ≥~100ms", elapsed)
	}
}

func TestLossyLinkDropsSome(t *testing.T) {
	n := New("t", Options{})
	h1, _ := n.AddHost("h1")
	h2, _ := n.AddHost("h2")
	link, _ := n.AddLink("h1", "h2", LinkConfig{Loss: 0.5, LossSeed: 7, Delay: time.Microsecond})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, nil)
	for i := 0; i < 200; i++ {
		h1.Send(frame)
	}
	time.Sleep(200 * time.Millisecond)
	st := link.Stats()
	if st.ABDrops == 0 {
		t.Error("no drops on 50% lossy link")
	}
	if st.ABPackets == 0 {
		t.Error("all packets dropped on 50% lossy link")
	}
	if st.ABDrops+st.ABPackets != 200 {
		t.Errorf("drops(%d)+delivered(%d) != 200", st.ABDrops, st.ABPackets)
	}
}

func TestEEVNFLifecycle(t *testing.T) {
	topo := &Topo{Switches: []string{"s1"}, Hosts: []HostSpec{{Name: "h1", Switch: "s1"}, {Name: "h2", Switch: "s1"}}}
	topo.EEs = []EESpec{{Name: "ee1", Switch: "s1", CPU: 2, Mem: 1024}}
	n, _ := newStartedNet(t, topo)
	ee := n.Node("ee1").(*EE)

	// initiateVNF: a simple forwarder with two devices.
	_, err := ee.InitVNF(VNFSpec{
		Name:        "fwd1",
		ClickConfig: `FromDevice(in) -> cnt :: Counter -> Queue(64) -> ToDevice(out);`,
		Devices:     []string{"in", "out"},
		CPU:         500_000, Mem: 128,
		ControlSocket: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ee.AvailableCPU() != 1_500_000 {
		t.Errorf("available CPU = %v", ee.AvailableCPU())
	}

	// connectVNF both devices to s1.
	inPort, err := ee.ConnectVNF(n, "fwd1", "in", "s1", LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	outPort, err := ee.ConnectVNF(n, "fwd1", "out", "s1", LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if inPort == outPort {
		t.Errorf("devices share switch port %d", inPort)
	}

	// startVNF.
	if err := ee.StartVNF("fwd1"); err != nil {
		t.Fatal(err)
	}
	vnf := ee.VNF("fwd1")
	if vnf.State() != vnfRunning {
		t.Fatalf("state = %s", vnf.State())
	}
	if vnf.ControlAddr() == "" {
		t.Error("no control socket address")
	}

	// Push a frame directly into the switch on the VNF's in-port link:
	// send via s1 → VNF in → VNF out → s1. Install a flow on s1 steering
	// everything from the VNF's out-port to h2 so the frame completes the
	// loop: use the h2 path by addressing h2's MAC (learning switch
	// floods).
	h1 := n.Node("h1").(*Host)
	h2 := n.Node("h2").(*Host)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 5, 6, []byte("via-vnf"))
	// Inject into the VNF input directly (the device channel) to prove
	// the data path: s1 port inPort → VNF.
	s1 := n.Node("s1").(*SwitchNode)
	s1.Switch().Input(outPort, append([]byte(nil), frame...)) // Input owns its frame: hand it a copy of ours

	// The clean way: frames transmitted out of switch port inPort reach
	// the VNF in device, traverse the Click graph and come back on
	// outPort. Emulate the switch flooding by sending from h1: the
	// learning controller floods to all ports including inPort.
	h1.Send(frame)
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := vnf.Router().ReadHandler("cnt.count")
		if err != nil {
			t.Fatal(err)
		}
		if v != "0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("VNF never saw the flooded frame")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// stopVNF releases resources.
	if err := ee.StopVNF("fwd1"); err != nil {
		t.Fatal(err)
	}
	if ee.AvailableCPU() != 2_000_000 {
		t.Errorf("CPU not released: %v", ee.AvailableCPU())
	}
	if err := ee.StopVNF("fwd1"); err == nil {
		t.Error("double stop accepted")
	}
}

func TestEEAdmissionControl(t *testing.T) {
	n := New("t", Options{})
	ee, _ := n.AddEE("ee1", EEConfig{CPU: 1, Mem: 256})
	defer n.Stop()
	if _, err := ee.InitVNF(VNFSpec{Name: "big", ClickConfig: "FromDevice(in) -> ToDevice(out);", CPU: 2_000_000}); err == nil {
		t.Error("over-CPU VNF admitted")
	}
	if _, err := ee.InitVNF(VNFSpec{Name: "bigmem", ClickConfig: "FromDevice(in) -> ToDevice(out);", Mem: 512}); err == nil {
		t.Error("over-memory VNF admitted")
	}
	if _, err := ee.InitVNF(VNFSpec{Name: "ok", ClickConfig: "FromDevice(in) -> ToDevice(out);", CPU: 500_000, Mem: 128}); err != nil {
		t.Error(err)
	}
	if _, err := ee.InitVNF(VNFSpec{Name: "ok", ClickConfig: "FromDevice(in) -> ToDevice(out);"}); err == nil {
		t.Error("duplicate VNF admitted")
	}
}

// TestEEAdmitsExactDecimalFill: VNFs whose decimal CPU demands add up to
// exactly the EE's capacity are admitted (in float64, 0.1+0.1+0.1 > 0.3),
// and nothing beyond it.
func TestEEAdmitsExactDecimalFill(t *testing.T) {
	n := New("t", Options{})
	ee, _ := n.AddEE("ee1", EEConfig{CPU: 0.3, Mem: 96})
	defer n.Stop()
	for i := 0; i < 3; i++ {
		spec := VNFSpec{Name: fmt.Sprintf("mon%d", i), ClickConfig: "FromDevice(in) -> ToDevice(out);", CPU: 100_000, Mem: 32}
		if _, err := ee.InitVNF(spec); err != nil {
			t.Fatalf("VNF %d of three 0.1-CPU VNFs on a 0.3-CPU EE: %v", i, err)
		}
	}
	if got := ee.AvailableCPU(); got != 0 {
		t.Errorf("available CPU = %v, want 0", got)
	}
	if _, err := ee.InitVNF(VNFSpec{Name: "mon3", ClickConfig: "FromDevice(in) -> ToDevice(out);", CPU: 100_000}); err == nil {
		t.Error("VNF admitted past a full EE")
	}
}

func TestEEInvalidOperations(t *testing.T) {
	n := New("t", Options{})
	n.AddSwitch("s1")
	ee, _ := n.AddEE("ee1", EEConfig{})
	defer n.Stop()
	if err := ee.StartVNF("ghost"); err == nil {
		t.Error("starting unknown VNF succeeded")
	}
	if _, err := ee.ConnectVNF(n, "ghost", "in", "s1", LinkConfig{}); err == nil {
		t.Error("connecting unknown VNF succeeded")
	}
	ee.InitVNF(VNFSpec{Name: "v", ClickConfig: "FromDevice(in) -> ToDevice(in);", Devices: []string{"in"}})
	if _, err := ee.ConnectVNF(n, "v", "nope", "s1", LinkConfig{}); err == nil {
		t.Error("connecting unknown device succeeded")
	}
	if _, err := ee.ConnectVNF(n, "v", "in", "s1", LinkConfig{}); err != nil {
		t.Error(err)
	}
	if _, err := ee.ConnectVNF(n, "v", "in", "s1", LinkConfig{}); err == nil {
		t.Error("double connect succeeded")
	}
	if err := ee.DisconnectVNF("v", "in"); err != nil {
		t.Error(err)
	}
	// Bad click config surfaces at StartVNF.
	ee.InitVNF(VNFSpec{Name: "bad", ClickConfig: "syntax error ((("})
	if err := ee.StartVNF("bad"); err == nil {
		t.Error("bad config started")
	}
}

func TestStartTwiceFails(t *testing.T) {
	n := New("t", Options{})
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddLink("h1", "h2", LinkConfig{})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Start(); err == nil {
		t.Error("double start accepted")
	}
}

// TestConcurrentConnectVNFDistinctMACs connects VNF devices on two EEs
// at once: every port in the network draws from one MAC counter, so under
// -race this pins that the counter is synchronized, and the assertion
// pins that no two ports were handed the same address.
func TestConcurrentConnectVNFDistinctMACs(t *testing.T) {
	const devsPerEE = 16
	n := New("t", Options{})
	defer n.Stop()
	if _, err := n.AddSwitch("s1"); err != nil {
		t.Fatal(err)
	}
	devs := make([]string, devsPerEE)
	for i := range devs {
		devs[i] = fmt.Sprintf("d%d", i)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"ee1", "ee2"} {
		ee, err := n.AddEE(name, EEConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ee.InitVNF(VNFSpec{Name: "v", ClickConfig: "FromDevice(in) -> ToDevice(out);", Devices: devs}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range devs {
				if _, err := ee.ConnectVNF(n, "v", d, "s1", LinkConfig{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	seen := map[[6]byte]string{}
	for _, l := range n.Links() {
		for _, p := range []*Port{l.A, l.B} {
			if other, dup := seen[p.MAC]; dup {
				t.Errorf("ports %s and %s share MAC %x", other, p.Name, p.MAC)
			}
			seen[p.MAC] = p.Name
		}
	}
	if want := 2 * 2 * devsPerEE; len(seen) != want {
		t.Errorf("%d distinct MACs, want %d (one per link end)", len(seen), want)
	}
}

// arpRequest builds a broadcast who-has query.
func arpRequest(srcMAC pkt.MAC, srcIP, targetIP netip.Addr) ([]byte, error) {
	return pkt.SerializeLayers(
		&pkt.Ethernet{Src: srcMAC, Dst: pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderMAC: srcMAC, SenderIP: srcIP, TargetIP: targetIP},
	)
}
