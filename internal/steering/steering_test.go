package steering

import (
	"bufio"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"escape/internal/netem"
	"escape/internal/openflow"
	"escape/internal/pkt"
	"escape/internal/pox"
)

// twoSwitchNet: h1—s1—s2—h2 with a controller running steering (+ a
// packet-in blackhole so unsteered traffic just dies).
func twoSwitchNet(t *testing.T) (*netem.Network, *Steering) {
	t.Helper()
	ctrl := pox.NewController()
	st := New(ctrl)
	ctrl.Register(st)
	n := netem.New("t", netem.Options{Controller: ctrl})
	for _, name := range []string{"s1", "s2"} {
		if _, err := n.AddSwitch(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"h1", "h2"} {
		if _, err := n.AddHost(name); err != nil {
			t.Fatal(err)
		}
	}
	// Port numbering: s1: 1 = h1, 2 = s2. s2: 1 = s1, 2 = h2.
	if _, err := n.AddLink("h1", "s1", netem.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("s1", "s2", netem.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("s2", "h2", netem.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop(); ctrl.Close() })
	return n, st
}

func dpid(n *netem.Network, name string) uint64 {
	return n.Node(name).(*netem.SwitchNode).DPID()
}

func TestInstallPathForwardsAcrossSwitches(t *testing.T) {
	n, st := twoSwitchNet(t)
	inst, err := st.InstallPath(Path{
		ID: "l1",
		Hops: []Hop{
			{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2},
			{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.VLAN == 0 {
		t.Error("multi-hop VLAN path got no VLAN id")
	}
	if inst.RuleCount != 2 {
		t.Errorf("rules = %d", inst.RuleCount)
	}
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7, 8, []byte("steered"))
	h1.Send(frame)
	select {
	case rx := <-h2.Recv():
		// The tag must be stripped at the egress switch.
		hdr, err := pkt.Parse(rx.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.DLVLAN != vlanNone {
			t.Errorf("frame arrived still tagged with VLAN %d", hdr.DLVLAN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("steered frame never arrived")
	}
	if st.ActivePaths() != 1 {
		t.Errorf("active paths = %d", st.ActivePaths())
	}
}

func TestRemovePathStopsTraffic(t *testing.T) {
	n, st := twoSwitchNet(t)
	_, err := st.InstallPath(Path{
		ID: "l1",
		Hops: []Hop{
			{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2},
			{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RemovePaths([]string{"l1"}); err != nil {
		t.Fatal(err)
	}
	if st.ActivePaths() != 0 {
		t.Errorf("active paths = %d", st.ActivePaths())
	}
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7, 8, nil)
	h1.Send(frame)
	select {
	case <-h2.Recv():
		t.Error("traffic still flows after path removal")
	case <-time.After(100 * time.Millisecond):
	}
	// Removing again errors.
	if err := st.RemovePaths([]string{"l1"}); err == nil {
		t.Error("double remove succeeded")
	}
}

// TestSingleHopPathNoVLAN: a one-hop path is one untagged in-port rule.
// Two of them, one per switch, carry h1's frame to h2 with no tag pushed
// anywhere on the way.
func TestSingleHopPathNoVLAN(t *testing.T) {
	n, st := twoSwitchNet(t)
	for _, p := range []Path{
		{ID: "s1-local", Hops: []Hop{{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2}}},
		{ID: "s2-local", Hops: []Hop{{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2}}},
	} {
		inst, err := st.InstallPath(p)
		if err != nil {
			t.Fatal(err)
		}
		if inst.VLAN != 0 {
			t.Errorf("single-hop path %s allocated VLAN %d", p.ID, inst.VLAN)
		}
		if inst.RuleCount != 1 {
			t.Errorf("single-hop path %s installed %d rules, want 1", p.ID, inst.RuleCount)
		}
	}
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7, 8, []byte("untagged"))
	h1.Send(frame)
	select {
	case rx := <-h2.Recv():
		hdr, err := pkt.Parse(rx.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.DLVLAN != vlanNone {
			t.Errorf("frame arrived tagged with VLAN %d", hdr.DLVLAN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame over two single-hop paths never arrived")
	}
}

func TestInstallErrors(t *testing.T) {
	n, st := twoSwitchNet(t)
	if _, err := st.InstallPath(Path{ID: "empty"}); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := st.InstallPath(Path{ID: "x", Hops: []Hop{{DPID: 0xdead, InPort: 1, OutPort: 2}}}); err == nil {
		t.Error("unknown switch accepted")
	}
	p := Path{ID: "dup", Hops: []Hop{{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2}}}
	if _, err := st.InstallPath(p); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InstallPath(p); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestVLANReuseAfterRemove(t *testing.T) {
	n, st := twoSwitchNet(t)
	mk := func(id string) Path {
		return Path{ID: id, Hops: []Hop{
			{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2},
			{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2},
		}}
	}
	a, err := st.InstallPath(mk("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RemovePaths([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	b, err := st.InstallPath(mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if b.VLAN != a.VLAN {
		t.Errorf("vlan not reused: %d then %d", a.VLAN, b.VLAN)
	}
}

func TestInstallPathsBatch(t *testing.T) {
	n, st := twoSwitchNet(t)
	mk := func(id string, in uint16) Path {
		return Path{ID: id, Hops: []Hop{
			{DPID: dpid(n, "s1"), InPort: in, OutPort: 2},
			{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2},
		}}
	}
	insts, err := st.InstallPaths([]Path{mk("a", 1), mk("b", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("installed = %d", len(insts))
	}
	if insts[0].VLAN == insts[1].VLAN {
		t.Error("batch paths share a VLAN")
	}
	for _, inst := range insts {
		if inst.RuleCount != 2 {
			t.Errorf("path %s rules = %d", inst.Path.ID, inst.RuleCount)
		}
	}
	if st.ActivePaths() != 2 {
		t.Errorf("active = %d", st.ActivePaths())
	}
	// Batched rules forward traffic like individually installed ones.
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7, 8, []byte("batched"))
	h1.Send(frame)
	select {
	case <-h2.Recv():
	case <-time.After(2 * time.Second):
		t.Fatal("batched path dropped the frame")
	}
	if err := st.RemovePaths([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if st.ActivePaths() != 0 {
		t.Errorf("active after batch remove = %d", st.ActivePaths())
	}
}

func TestInstallPathsRollsBackOnError(t *testing.T) {
	n, st := twoSwitchNet(t)
	good := Path{ID: "good", Hops: []Hop{{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2}}}
	bad := Path{ID: "bad", Hops: []Hop{{DPID: 0xdead, InPort: 1, OutPort: 2}}}
	if _, err := st.InstallPaths([]Path{good, bad}); err == nil {
		t.Fatal("batch with unknown switch succeeded")
	}
	if st.ActivePaths() != 0 {
		t.Errorf("failed batch left %d active paths", st.ActivePaths())
	}
	// Every id is free again after the rollback.
	if _, err := st.InstallPath(good); err != nil {
		t.Errorf("reinstall after failed batch: %v", err)
	}
}

func TestInstallPathsRejectsBatchDuplicates(t *testing.T) {
	n, st := twoSwitchNet(t)
	p := Path{ID: "dup", Hops: []Hop{{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2}}}
	if _, err := st.InstallPaths([]Path{p, p}); err == nil {
		t.Error("duplicate ids within a batch accepted")
	}
	if st.ActivePaths() != 0 {
		t.Errorf("active = %d", st.ActivePaths())
	}
	if err := st.RemovePaths([]string{"nope"}); err == nil {
		t.Error("batch remove of unknown id succeeded")
	}
}

func TestTwoChainsIsolatedByVLAN(t *testing.T) {
	// Both chains share the s1→s2 trunk but exit different ports on s2.
	ctrl := pox.NewController()
	st := New(ctrl)
	ctrl.Register(st)
	n := netem.New("t", netem.Options{Controller: ctrl})
	n.AddSwitch("s1")
	n.AddSwitch("s2")
	for _, h := range []string{"h1", "h2", "h3", "h4"} {
		n.AddHost(h)
	}
	// s1 ports: 1=h1, 2=h3, 3=s2. s2 ports: 1=s1, 2=h2, 3=h4.
	n.AddLink("h1", "s1", netem.LinkConfig{})
	n.AddLink("h3", "s1", netem.LinkConfig{})
	n.AddLink("s1", "s2", netem.LinkConfig{})
	n.AddLink("s2", "h2", netem.LinkConfig{})
	n.AddLink("s2", "h4", netem.LinkConfig{})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { n.Stop(); ctrl.Close() }()

	if _, err := st.InstallPath(Path{ID: "c1", Hops: []Hop{
		{DPID: dpid(n, "s1"), InPort: 1, OutPort: 3},
		{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.InstallPath(Path{ID: "c2", Hops: []Hop{
		{DPID: dpid(n, "s1"), InPort: 2, OutPort: 3},
		{DPID: dpid(n, "s2"), InPort: 1, OutPort: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h3 := n.Node("h3").(*netem.Host)
	h4 := n.Node("h4").(*netem.Host)
	h2.SetAutoRespond(false)
	h4.SetAutoRespond(false)
	f1, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, []byte("chain1"))
	f2, _ := pkt.BuildUDP(h3.MAC(), h4.MAC(), h3.IP(), h4.IP(), 3, 4, []byte("chain2"))
	h1.Send(f1)
	h3.Send(f2)
	for i, h := range []*netem.Host{h2, h4} {
		select {
		case rx := <-h.Recv():
			dec := pkt.Decode(rx.Frame)
			u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
			want := []string{"chain1", "chain2"}[i]
			if !ok || string(u.Payload()) != want {
				t.Errorf("host %d got %s, want payload %q", i, dec, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("chain %d delivery failed", i+1)
		}
	}
	// Cross-talk check: nothing further arrives anywhere.
	select {
	case rx := <-h2.Recv():
		t.Errorf("unexpected extra frame at h2: %s", pkt.Decode(rx.Frame))
	case rx := <-h4.Recv():
		t.Errorf("unexpected extra frame at h4: %s", pkt.Decode(rx.Frame))
	case <-time.After(100 * time.Millisecond):
	}
}

// TestStitchedPathsHandOff splits the h1→h2 forwarding into two
// independently installed paths joined at the s1–s2 trunk by a stitch
// tag, the way a tenant's EgressTag on one chain hands traffic to
// another chain's IngressTag. The frame must arrive at h2 untagged.
func TestStitchedPathsHandOff(t *testing.T) {
	n, st := twoSwitchNet(t)
	const tag = 4094
	// Egress half: s1 tags outbound trunk traffic.
	if _, err := st.InstallPath(Path{
		ID:         "half-a",
		Hops:       []Hop{{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2}},
		EgressVLAN: tag,
	}); err != nil {
		t.Fatal(err)
	}
	// Ingress half: s2 admits only traffic carrying the tag and consumes it.
	if _, err := st.InstallPath(Path{
		ID:          "half-b",
		Hops:        []Hop{{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2}},
		IngressVLAN: tag,
	}); err != nil {
		t.Fatal(err)
	}
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7, 8, []byte("stitched"))
	h1.Send(frame)
	select {
	case rx := <-h2.Recv():
		hdr, err := pkt.Parse(rx.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.DLVLAN != vlanNone {
			t.Errorf("stitch tag leaked to the host: VLAN %d", hdr.DLVLAN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stitched frame never arrived")
	}
	if err := st.RemovePaths([]string{"half-a", "half-b"}); err != nil {
		t.Fatal(err)
	}
}

// TestStitchIngressFiltersUntagged: traffic without the upstream tag must
// not enter a stitched ingress path even on the right port.
func TestStitchIngressFiltersUntagged(t *testing.T) {
	n, st := twoSwitchNet(t)
	if _, err := st.InstallPath(Path{
		ID:          "ingress-only",
		Hops:        []Hop{{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2}},
		IngressVLAN: 4000,
	}); err != nil {
		t.Fatal(err)
	}
	// Forward h1's traffic to the trunk untagged.
	if _, err := st.InstallPath(Path{
		ID:   "feeder",
		Hops: []Hop{{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7, 8, []byte("untagged"))
	h1.Send(frame)
	select {
	case <-h2.Recv():
		t.Error("untagged frame slipped through a stitched ingress")
	case <-time.After(150 * time.Millisecond):
	}
}

// TestStitchTransitSegment exercises both tags on one single-switch path:
// match+consume the inbound tag, retag for the next domain.
func TestStitchTransitSegment(t *testing.T) {
	n, st := twoSwitchNet(t)
	if _, err := st.InstallPath(Path{
		ID:          "transit",
		Hops:        []Hop{{DPID: dpid(n, "s1"), InPort: 2, OutPort: 1}},
		IngressVLAN: 3001,
		EgressVLAN:  3002,
	}); err != nil {
		t.Fatal(err)
	}
	// Hand a pre-tagged frame to s1's trunk port via s2 flooding is
	// fiddly; inject directly through the s2-side: install a tagging path
	// from h2 toward s1.
	if _, err := st.InstallPath(Path{
		ID:         "feed",
		Hops:       []Hop{{DPID: dpid(n, "s2"), InPort: 2, OutPort: 1}},
		EgressVLAN: 3001,
	}); err != nil {
		t.Fatal(err)
	}
	h1 := n.Node("h1").(*netem.Host)
	h2 := n.Node("h2").(*netem.Host)
	h1.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h2.MAC(), h1.MAC(), h2.IP(), h1.IP(), 7, 8, []byte("transit"))
	h2.Send(frame)
	select {
	case rx := <-h1.Recv():
		hdr, err := pkt.Parse(rx.Frame)
		if err != nil {
			t.Fatal(err)
		}
		// The transit segment re-tagged for the (pretend) next domain.
		if hdr.DLVLAN != 3002 {
			t.Errorf("frame left transit with VLAN %d, want 3002", hdr.DLVLAN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("transit frame never arrived")
	}
}

// vlanNone in DLVLAN marks an untagged frame (OFP_VLAN_NONE).
const vlanNone = 0xffff

// muteFirstBarrier connects a switch with datapath id dpid to ctrl over
// an in-process pipe. It applies nothing, never answers the first
// barrier request it is sent and answers every later one.
func muteFirstBarrier(t *testing.T, ctrl *pox.Controller, dpid uint64) {
	t.Helper()
	ours, theirs := net.Pipe()
	go ctrl.Serve(theirs)
	go func() {
		defer ours.Close()
		r := bufio.NewReader(ours)
		barriers := 0
		for {
			msg, h, err := openflow.ReadMessage(r)
			if err != nil {
				return
			}
			var reply openflow.Message
			switch msg.MsgType() {
			case openflow.TypeHello:
				reply = &openflow.Hello{}
			case openflow.TypeFeaturesRequest:
				reply = &openflow.FeaturesReply{DatapathID: dpid}
			case openflow.TypeBarrierRequest:
				if barriers++; barriers > 1 {
					reply = &openflow.BarrierReply{}
				}
			}
			if reply != nil && openflow.WriteMessage(ours, reply, h.XID) != nil {
				return
			}
		}
	}()
	if err := ctrl.WaitForSwitches(3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

// pendingXIDs counts the requests conn still awaits a reply to (pox
// keeps the table unexported). Read it only when no reply is in flight.
func pendingXIDs(conn *pox.Connection) int {
	return reflect.ValueOf(conn).Elem().FieldByName("pending").Len()
}

// TestInstallPathsMuteBarrier: a batch over three switches, one of which
// never answers its barrier, fails once the batch's one deadline has
// passed, not later; the rollback then removes the batch, and the mute
// switch's barrier is given up, not left pending.
func TestInstallPathsMuteBarrier(t *testing.T) {
	n, st := twoSwitchNet(t)
	const mute = 0x33
	muteFirstBarrier(t, st.ctrl, mute)
	p := Path{ID: "three", Hops: []Hop{
		{DPID: dpid(n, "s1"), InPort: 1, OutPort: 2},
		{DPID: dpid(n, "s2"), InPort: 1, OutPort: 2},
		{DPID: mute, InPort: 1, OutPort: 2},
	}}
	const deadline, slack = 5 * time.Second, 2 * time.Second
	start := time.Now()
	_, err := st.InstallPaths([]Path{p})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("batch error = %v, want the mute switch's barrier timing out", err)
	}
	if elapsed < deadline || elapsed > deadline+slack {
		t.Errorf("the batch failed after %v, want its one %v deadline", elapsed, deadline)
	}
	if st.ActivePaths() != 0 {
		t.Errorf("the failed batch left %d active paths", st.ActivePaths())
	}
	if n := pendingXIDs(st.ctrl.Connection(mute)); n != 0 {
		t.Errorf("%d requests still pending on the mute switch", n)
	}
	// The rollback's deletes were all confirmed, so the path's VLAN is
	// free again.
	inst, err := st.InstallPath(p)
	if err != nil {
		t.Fatalf("reinstall after the rollback: %v", err)
	}
	if inst.VLAN != 100 {
		t.Errorf("reinstall got VLAN %d, want the rolled-back 100 reused", inst.VLAN)
	}
}
