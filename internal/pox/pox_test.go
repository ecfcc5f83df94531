package pox

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"escape/internal/ofswitch"
	"escape/internal/openflow"
	"escape/internal/pkt"
)

var (
	hmacA = pkt.MAC{2, 0, 0, 0, 0, 1}
	hmacB = pkt.MAC{2, 0, 0, 0, 0, 2}
	hipA  = netip.MustParseAddr("10.0.0.1")
	hipB  = netip.MustParseAddr("10.0.0.2")
)

// rig is a one-switch testbed: switch with two ports connected to the
// controller through an in-process pipe.
type rig struct {
	ctrl *Controller
	sw   *ofswitch.Switch
	out  []chan []byte // per-port transmissions, 1-based
}

func newRig(t *testing.T, components ...Component) *rig {
	t.Helper()
	r := &rig{ctrl: NewController()}
	for _, c := range components {
		r.ctrl.Register(c)
	}
	r.sw = ofswitch.New("s1", 1)
	t.Cleanup(r.sw.Stop)
	r.out = make([]chan []byte, 3)
	for i := uint16(1); i <= 2; i++ {
		ch := make(chan []byte, 64)
		r.out[i] = ch
		if err := r.sw.AddPort(&ofswitch.Port{
			No: i, HWAddr: pkt.MAC{2, 0, 0, 0, 0, byte(i)}, Name: "s1-eth",
			Transmit: func(f []byte) {
				select {
				case ch <- f:
				default:
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cside, sside := net.Pipe()
	go r.ctrl.Serve(cside)
	if err := r.sw.ConnectController(sside); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.WaitForSwitches(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.ctrl.Close)
	return r
}

func frameAB(t *testing.T) []byte {
	t.Helper()
	f, err := pkt.BuildUDP(hmacA, hmacB, hipA, hipB, 1000, 2000, []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func frameBA(t *testing.T) []byte {
	t.Helper()
	f, err := pkt.BuildUDP(hmacB, hmacA, hipB, hipA, 2000, 1000, []byte("ba"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func expectFrame(t *testing.T, ch chan []byte, what string) []byte {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

func TestHandshakePopulatesConnection(t *testing.T) {
	r := newRig(t)
	c := r.ctrl.Connection(1)
	if c == nil {
		t.Fatal("no connection for dpid 1")
	}
	if c.DPID() != 1 {
		t.Errorf("dpid = %d", c.DPID())
	}
	ports := c.ports
	if len(ports) != 2 || ports[0].PortNo != 1 || ports[1].PortNo != 2 {
		t.Errorf("ports = %+v", ports)
	}
	if connCount(r.ctrl) != 1 {
		t.Errorf("connections = %d", connCount(r.ctrl))
	}
}

func TestBarrierAndStats(t *testing.T) {
	r := newRig(t)
	c := r.ctrl.Connection(1)
	if err := c.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Install one flow, check flow stats round trip.
	if err := c.SendFlowMod(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 2,
		BufferID: openflow.NoBuffer, Cookie: 7,
		Actions: []openflow.Action{openflow.ActionOutput{Port: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	flows, err := c.FlowStats(openflow.MatchAll(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Cookie != 7 {
		t.Errorf("flows = %+v", flows)
	}
	xid := c.xid.Add(1)
	p, err := c.sendRequest(openflow.TypeStatsReply, xid, openflow.AppendMessage(nil, &openflow.StatsRequest{StatsType: openflow.StatsPort, PortNo: openflow.PortNone}, xid))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Await(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if ports := resp.(*openflow.StatsReply).Ports; len(ports) != 2 {
		t.Errorf("ports = %+v", ports)
	}
}

// pinReceiver records packet-ins.
type pinReceiver struct {
	ch chan *openflow.PacketIn
}

func (*pinReceiver) ComponentName() string { return "pin-recv" }
func (p *pinReceiver) HandlePacketIn(c *Connection, pi *openflow.PacketIn) {
	select {
	case p.ch <- pi:
	default:
	}
}

func TestPacketInDispatch(t *testing.T) {
	recv := &pinReceiver{ch: make(chan *openflow.PacketIn, 8)}
	r := newRig(t, recv)
	r.sw.Input(1, frameAB(t))
	select {
	case pi := <-recv.ch:
		if pi.InPort != 1 {
			t.Errorf("in port = %d", pi.InPort)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet-in not dispatched")
	}
}

func TestL2LearningFloodsThenInstalls(t *testing.T) {
	l2 := NewL2Learning()
	r := newRig(t, l2)

	// A → B: destination unknown, must flood out port 2.
	r.sw.Input(1, frameAB(t))
	expectFrame(t, r.out[2], "flooded A→B frame")
	if p, ok := learned(l2, 1, hmacA); !ok || p != 1 {
		t.Fatalf("A not learned: %v %v", p, ok)
	}

	// B → A: both ends now known → flow installed, frame delivered on 1.
	r.sw.Input(2, frameBA(t))
	expectFrame(t, r.out[1], "B→A frame")

	// Allow the flow-mod to land, then confirm the switch forwards B→A
	// without a controller round trip.
	c := r.ctrl.Connection(1)
	if err := c.Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	missesBefore := r.sw.TableMisses.Load()
	r.sw.Input(2, frameBA(t))
	expectFrame(t, r.out[1], "hardware-forwarded B→A frame")
	if r.sw.TableMisses.Load() != missesBefore {
		t.Error("second B→A frame still went to the controller")
	}
	if r.sw.Table().Len() == 0 {
		t.Error("no flow installed")
	}
}

func TestL2LearningBroadcastAlwaysFloods(t *testing.T) {
	l2 := NewL2Learning()
	r := newRig(t, l2)
	bcast, err := arpRequest(hmacA, hipA, hipB)
	if err != nil {
		t.Fatal(err)
	}
	r.sw.Input(1, bcast)
	expectFrame(t, r.out[2], "broadcast ARP")
	if r.sw.Table().Len() != 0 {
		t.Error("flow installed for broadcast")
	}
}

// A tagged frame cut inside its VLAN tag still carries the Ethernet header
// l2_learning reads, as pkt.Decode sees it: the source is learned and the
// frame flooded rather than ignored.
func TestL2LearningLearnsFromFrameCutInsideVLANTag(t *testing.T) {
	l2 := NewL2Learning()
	r := newRig(t, l2)
	tagged, err := pkt.PushVLAN(frameAB(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	r.sw.Input(1, tagged[:16])
	expectFrame(t, r.out[2], "flooded 16-byte tagged frame")
	if p, ok := learned(l2, 1, hmacA); !ok || p != 1 {
		t.Fatalf("A not learned: %v %v", p, ok)
	}
}

// TestL2LearningPortReuseInheritsNoBinding: a deleted port's learned
// bindings go with it, so a new port that reuses the number does not
// receive traffic meant for whoever sat behind the old one.
func TestL2LearningPortReuseInheritsNoBinding(t *testing.T) {
	l2 := NewL2Learning()
	r := newRig(t, l2)
	r.sw.Input(1, frameAB(t))
	expectFrame(t, r.out[2], "flooded A→B frame")
	r.sw.Input(2, frameBA(t))
	expectFrame(t, r.out[1], "B→A frame")
	if _, ok := learned(l2, 1, hmacB); !ok {
		t.Fatal("B not learned on port 2")
	}
	r.sw.RemovePort(2)
	// The delete is announced asynchronously: a barrier after it orders
	// its handling before the check.
	if err := r.ctrl.Connection(1).Barrier(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p, ok := learned(l2, 1, hmacB); ok {
		t.Errorf("B still bound to port %d after the port was deleted", p)
	}
	if p, ok := learned(l2, 1, hmacA); !ok || p != 1 {
		t.Errorf("A's binding on the surviving port lost: %v %v", p, ok)
	}
}

func TestConnectionDownEvent(t *testing.T) {
	down := make(chan uint64, 1)
	comp := &downWatcher{ch: down}
	r := newRig(t, comp)
	r.sw.Stop() // closes the switch side of the pipe
	select {
	case dpid := <-down:
		if dpid != 1 {
			t.Errorf("dpid = %d", dpid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("connection-down not dispatched")
	}
	if r.ctrl.Connection(1) != nil {
		t.Error("connection still registered after down")
	}
}

type downWatcher struct{ ch chan uint64 }

func (*downWatcher) ComponentName() string { return "down-watcher" }
func (d *downWatcher) HandleConnectionDown(c *Connection) {
	select {
	case d.ch <- c.DPID():
	default:
	}
}

// TestWaitForSwitchesWakesOnConnect: a waiter that is already blocked
// when the switches connect is woken by Serve's registration, not by its
// timeout, and does not return while fewer than n switches are up.
func TestWaitForSwitchesWakesOnConnect(t *testing.T) {
	ctrl := NewController()
	defer ctrl.Close()
	started := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		close(started)
		waited <- ctrl.WaitForSwitches(2, time.Minute)
	}()
	<-started
	connect := func(dpid uint64) {
		sw := ofswitch.New("s", dpid)
		t.Cleanup(sw.Stop)
		cside, sside := net.Pipe()
		go ctrl.Serve(cside)
		if err := sw.ConnectController(sside); err != nil {
			t.Fatal(err)
		}
	}
	connect(1)
	select {
	case err := <-waited:
		t.Fatalf("WaitForSwitches(2) returned with one switch connecting: %v", err)
	default:
	}
	connect(2)
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForSwitches was not woken by the switches connecting")
	}
	if n := connCount(ctrl); n != 2 {
		t.Errorf("connections = %d, want 2", n)
	}
}

func TestWaitForSwitchesTimeout(t *testing.T) {
	ctrl := NewController()
	if err := ctrl.WaitForSwitches(1, 20*time.Millisecond); err == nil {
		t.Error("expected timeout error")
	}
}

// learned reports the port l2 learned for a MAC on a datapath.
func learned(l2 *L2Learning, dpid uint64, mac pkt.MAC) (uint16, bool) {
	l2.mu.Lock()
	defer l2.mu.Unlock()
	p, ok := l2.tables[dpid][mac]
	return p, ok
}

// connCount is the number of live switch connections.
func connCount(ct *Controller) int {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	return len(ct.conns)
}

// arpRequest builds a broadcast who-has query.
func arpRequest(srcMAC pkt.MAC, srcIP, targetIP netip.Addr) ([]byte, error) {
	return pkt.SerializeLayers(
		&pkt.Ethernet{Src: srcMAC, Dst: pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderMAC: srcMAC, SenderIP: srcIP, TargetIP: targetIP},
	)
}
