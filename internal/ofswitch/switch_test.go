package ofswitch

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

func tip(s string) netip.Addr { return netip.MustParseAddr(s) }

// testSwitch builds a switch with nPorts ports whose transmissions land in
// per-port channels.
func testSwitch(t *testing.T, nPorts int) (*Switch, []chan []byte) {
	t.Helper()
	s := New("s1", 42)
	t.Cleanup(s.Stop)
	chans := make([]chan []byte, nPorts+1) // 1-based
	for i := 1; i <= nPorts; i++ {
		ch := make(chan []byte, 64)
		chans[i] = ch
		err := s.AddPort(&Port{
			No:     uint16(i),
			HWAddr: pkt.MAC{2, 0, 0, 0, 0, byte(i)},
			Name:   "s1-eth",
			Transmit: func(frame []byte) {
				select {
				case ch <- frame:
				default:
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s, chans
}

// fakeController handshakes the controller side over a pipe and returns
// the conn for manual message exchange.
func fakeController(t *testing.T, s *Switch) net.Conn {
	t.Helper()
	cside, sside := net.Pipe()
	t.Cleanup(func() { cside.Close() })
	done := make(chan error, 1)
	go func() { done <- s.ConnectController(sside) }()
	// Controller side: send hello, read hello.
	if err := openflow.WriteMessage(cside, &openflow.Hello{}, 1); err != nil {
		t.Fatal(err)
	}
	msg, _, err := openflow.ReadMessage(cside)
	if err != nil {
		t.Fatal(err)
	}
	if msg.MsgType() != openflow.TypeHello {
		t.Fatalf("expected HELLO, got %s", msg.MsgType())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return cside
}

func mustRead(t *testing.T, conn net.Conn) openflow.Message {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, _, err := openflow.ReadMessage(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return msg
}

func testFrame(t *testing.T, dstPort uint16) []byte {
	t.Helper()
	f, err := pkt.BuildUDP(fmac1, fmac2, tip("10.0.0.1"), tip("10.0.0.2"), 1000, dstPort, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestHandshakeAndFeatures(t *testing.T) {
	s, _ := testSwitch(t, 3)
	conn := fakeController(t, s)
	if err := openflow.WriteMessage(conn, &openflow.FeaturesRequest{}, 7); err != nil {
		t.Fatal(err)
	}
	msg := mustRead(t, conn)
	fr, ok := msg.(*openflow.FeaturesReply)
	if !ok {
		t.Fatalf("got %s", msg.MsgType())
	}
	if fr.DatapathID != 42 || len(fr.Ports) != 3 {
		t.Errorf("features = %+v", fr)
	}
	if fr.Ports[0].PortNo != 1 || fr.Ports[2].PortNo != 3 {
		t.Errorf("ports unsorted: %+v", fr.Ports)
	}
}

func TestTableMissSendsPacketIn(t *testing.T) {
	s, _ := testSwitch(t, 2)
	conn := fakeController(t, s)
	frame := testFrame(t, 80)
	s.Input(1, frame)
	msg := mustRead(t, conn)
	pi, ok := msg.(*openflow.PacketIn)
	if !ok {
		t.Fatalf("got %s", msg.MsgType())
	}
	if pi.InPort != 1 || pi.Reason != openflow.ReasonNoMatch {
		t.Errorf("packet-in = %+v", pi)
	}
	if int(pi.TotalLen) != len(frame) {
		t.Errorf("total len = %d, want %d", pi.TotalLen, len(frame))
	}
	// Buffered: data truncated to missSendLen, buffer id valid.
	if pi.BufferID == openflow.NoBuffer {
		t.Error("expected buffered packet-in")
	}
	if s.TableMisses.Load() != 1 {
		t.Errorf("misses = %d", s.TableMisses.Load())
	}
}

func TestFlowModThenForward(t *testing.T) {
	s, chans := testSwitch(t, 2)
	conn := fakeController(t, s)
	// Install: everything from port 1 → port 2.
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildInPort
	m.InPort = 1
	if err := openflow.WriteMessage(conn, &openflow.FlowMod{
		Match: m, Command: openflow.FCAdd, Priority: 10, BufferID: openflow.NoBuffer,
		Actions: []openflow.Action{openflow.ActionOutput{Port: 2}},
	}, 5); err != nil {
		t.Fatal(err)
	}
	// Barrier to ensure the flow-mod landed.
	openflow.WriteMessage(conn, &openflow.BarrierRequest{}, 6)
	if msg := mustRead(t, conn); msg.MsgType() != openflow.TypeBarrierReply {
		t.Fatalf("expected barrier reply, got %s", msg.MsgType())
	}
	frame := testFrame(t, 80)
	s.Input(1, frame)
	select {
	case out := <-chans[2]:
		if len(out) != len(frame) {
			t.Errorf("forwarded %d bytes, want %d", len(out), len(frame))
		}
	case <-time.After(time.Second):
		t.Fatal("frame not forwarded")
	}
}

func TestFlowModBufferRelease(t *testing.T) {
	s, chans := testSwitch(t, 2)
	conn := fakeController(t, s)
	frame := testFrame(t, 80)
	s.Input(1, frame) // miss → buffered packet-in
	pi := mustRead(t, conn).(*openflow.PacketIn)
	// FlowMod referencing the buffer must release the packet through the
	// new actions.
	if err := openflow.WriteMessage(conn, &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1,
		BufferID: pi.BufferID,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: 2}},
	}, 9); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-chans[2]:
		if len(out) != len(frame) {
			t.Errorf("released %d bytes, want %d (full buffered frame)", len(out), len(frame))
		}
	case <-time.After(time.Second):
		t.Fatal("buffered frame not released")
	}
}

func TestPacketOutFloodExcludesInPort(t *testing.T) {
	s, chans := testSwitch(t, 3)
	conn := fakeController(t, s)
	frame := testFrame(t, 80)
	if err := openflow.WriteMessage(conn, &openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   2,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: openflow.PortFlood}},
		Data:     frame,
	}, 3); err != nil {
		t.Fatal(err)
	}
	gotOn := map[int]bool{}
	deadline := time.After(time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-chans[1]:
			gotOn[1] = true
		case <-chans[3]:
			gotOn[3] = true
		case <-deadline:
			t.Fatalf("flood incomplete: %v", gotOn)
		}
	}
	select {
	case <-chans[2]:
		t.Error("flood echoed to in-port")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestVLANActions(t *testing.T) {
	s, chans := testSwitch(t, 2)
	conn := fakeController(t, s)
	// Tag with VLAN 77 and output.
	m := openflow.MatchAll()
	openflow.WriteMessage(conn, &openflow.FlowMod{
		Match: m, Command: openflow.FCAdd, Priority: 1, BufferID: openflow.NoBuffer,
		Actions: []openflow.Action{openflow.ActionSetVLAN{VLAN: 77}, openflow.ActionOutput{Port: 2}},
	}, 2)
	openflow.WriteMessage(conn, &openflow.BarrierRequest{}, 3)
	mustRead(t, conn)
	s.Input(1, testFrame(t, 80))
	select {
	case out := <-chans[2]:
		h, err := pkt.Parse(out)
		if err != nil {
			t.Fatal(err)
		}
		if h.DLVLAN != 77 {
			t.Errorf("vlan = %d, want 77", h.DLVLAN)
		}
	case <-time.After(time.Second):
		t.Fatal("no output")
	}
}

func TestRewriteActionsKeepChecksumsValid(t *testing.T) {
	s, chans := testSwitch(t, 2)
	conn := fakeController(t, s)
	newDst := tip("192.168.9.9")
	openflow.WriteMessage(conn, &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1, BufferID: openflow.NoBuffer,
		Actions: []openflow.Action{
			openflow.ActionSetDL{Dst: true, MAC: pkt.MAC{2, 0, 0, 0, 0, 99}},
			openflow.ActionSetNW{Dst: true, Addr: newDst},
			openflow.ActionSetTP{Dst: true, Port: 8080},
			openflow.ActionOutput{Port: 2},
		},
	}, 2)
	openflow.WriteMessage(conn, &openflow.BarrierRequest{}, 3)
	mustRead(t, conn)
	s.Input(1, testFrame(t, 80))
	select {
	case out := <-chans[2]:
		dec := pkt.Decode(out)
		ip := dec.IPv4Layer()
		if ip == nil || ip.Dst != newDst {
			t.Fatalf("ip = %+v", ip)
		}
		// Header checksum must still be valid.
		ihl := int(out[14]&0xf) * 4
		if headerChecksum(out[14:14+ihl]) != 0 {
			t.Error("IP checksum invalid after rewrite")
		}
		u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
		if !ok || u.DstPort != 8080 {
			t.Fatalf("udp = %+v", u)
		}
		eth := dec.Ethernet()
		if eth.Dst != (pkt.MAC{2, 0, 0, 0, 0, 99}) {
			t.Errorf("dl dst = %s", eth.Dst)
		}
	case <-time.After(time.Second):
		t.Fatal("no output")
	}
}

func TestEchoAndStats(t *testing.T) {
	s, _ := testSwitch(t, 2)
	conn := fakeController(t, s)
	openflow.WriteMessage(conn, &openflow.EchoRequest{Data: []byte("hb")}, 77)
	er := mustRead(t, conn)
	if rep, ok := er.(*openflow.EchoReply); !ok || string(rep.Data) != "hb" {
		t.Fatalf("echo reply = %#v", er)
	}
	// Install a flow, push traffic, query flow + port stats.
	openflow.WriteMessage(conn, &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1, BufferID: openflow.NoBuffer,
		Actions: []openflow.Action{openflow.ActionOutput{Port: 2}},
	}, 2)
	openflow.WriteMessage(conn, &openflow.BarrierRequest{}, 3)
	mustRead(t, conn)
	frame := testFrame(t, 80)
	s.Input(1, frame)
	s.Input(1, frame)
	openflow.WriteMessage(conn, &openflow.StatsRequest{StatsType: openflow.StatsFlow, Match: openflow.MatchAll(), OutPort: openflow.PortNone}, 4)
	sr := mustRead(t, conn).(*openflow.StatsReply)
	if len(sr.Flows) != 1 || sr.Flows[0].PacketCount != 2 {
		t.Errorf("flow stats = %+v", sr.Flows)
	}
	openflow.WriteMessage(conn, &openflow.StatsRequest{StatsType: openflow.StatsPort, PortNo: openflow.PortNone}, 5)
	ps := mustRead(t, conn).(*openflow.StatsReply)
	if len(ps.Ports) != 2 {
		t.Fatalf("port stats = %+v", ps.Ports)
	}
	if ps.Ports[0].RxPackets != 2 || ps.Ports[1].TxPackets != 2 {
		t.Errorf("port counters = %+v", ps.Ports)
	}
}

func TestFlowRemovedNotification(t *testing.T) {
	s, _ := testSwitch(t, 1)
	conn := fakeController(t, s)
	openflow.WriteMessage(conn, &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 3,
		BufferID: openflow.NoBuffer, Cookie: 11,
		Flags: openflow.FlagSendFlowRem,
	}, 2)
	openflow.WriteMessage(conn, &openflow.BarrierRequest{}, 3)
	mustRead(t, conn)
	// Delete triggers the notification.
	openflow.WriteMessage(conn, &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCDelete, BufferID: openflow.NoBuffer,
	}, 4)
	msg := mustRead(t, conn)
	fr, ok := msg.(*openflow.FlowRemoved)
	if !ok {
		t.Fatalf("got %s", msg.MsgType())
	}
	if fr.Cookie != 11 || fr.Reason != openflow.RemReasonDelete {
		t.Errorf("flow removed = %+v", fr)
	}
}

func TestAddPortValidation(t *testing.T) {
	s := New("s1", 1)
	defer s.Stop()
	if err := s.AddPort(&Port{No: 1}); err == nil {
		t.Error("port without transmit accepted")
	}
	tx := func([]byte) {}
	if err := s.AddPort(&Port{No: 0, Transmit: tx}); err == nil {
		t.Error("port 0 accepted")
	}
	if err := s.AddPort(&Port{No: 1, Transmit: tx}); err != nil {
		t.Error(err)
	}
	if err := s.AddPort(&Port{No: 1, Transmit: tx}); err == nil {
		t.Error("duplicate port accepted")
	}
	if err := s.AddPort(&Port{No: openflow.PortMax, Transmit: tx}); err == nil {
		t.Error("reserved port number accepted")
	}
}

// TestRemovePortAnnouncesDelete: RemovePort is AddPort's inverse — the
// port leaves the switch (and its number may be added again), and the
// controller hears a PORT_STATUS delete for it. Unknown ports are ignored.
func TestRemovePortAnnouncesDelete(t *testing.T) {
	s, _ := testSwitch(t, 2)
	conn := fakeController(t, s)
	s.RemovePort(2)
	msg := mustRead(t, conn)
	ps, ok := msg.(*openflow.PortStatus)
	if !ok {
		t.Fatalf("got %s", msg.MsgType())
	}
	if ps.Reason != openflow.PortReasonDelete || ps.Desc.PortNo != 2 {
		t.Errorf("port status = %+v", ps)
	}
	if portCount(s) != 1 {
		t.Errorf("ports = %d, want 1", portCount(s))
	}
	s.RemovePort(2)  // already gone: no second announcement
	s.RemovePort(99) // never existed
	if err := s.AddPort(&Port{No: 2, Transmit: func([]byte) {}}); err != nil {
		t.Fatalf("re-adding a removed port number: %v", err)
	}
	msg = mustRead(t, conn)
	if ps, ok := msg.(*openflow.PortStatus); !ok || ps.Reason != openflow.PortReasonAdd || ps.Desc.PortNo != 2 {
		t.Errorf("after re-add got %#v, want PORT_STATUS add of port 2", msg)
	}
}

func TestInputOnUnknownPortIgnored(t *testing.T) {
	s, _ := testSwitch(t, 1)
	s.Input(99, testFrame(t, 80)) // must not panic
}

// installRule adds a steering-style entry for frames arriving on port 1.
func installRule(s *Switch, actions ...openflow.Action) {
	s.Table().Add(&FlowEntry{Match: matchInPort(1), Priority: 10, Actions: actions})
}

// TestInputOwnsFrameReceiversOwnTheirs pins the frame-ownership rule of
// the datapath: Switch.Input takes its caller's frame, edits it in place
// and hands that one buffer to the list's final single-port output; an
// earlier output and every FLOOD target get a copy. Every receiver gets
// storage of its own.
func TestInputOwnsFrameReceiversOwnTheirs(t *testing.T) {
	newMAC := pkt.MAC{2, 9, 9, 9, 9, 9}
	setDL := openflow.ActionSetDL{Dst: true, MAC: newMAC}
	for _, tc := range []struct {
		name    string
		actions []openflow.Action
		out     map[int]pkt.MAC // receiving port → destination MAC it must see
		handed  int             // the port handed the caller's buffer, 0 for none
	}{
		{"set-field then last output", []openflow.Action{setDL, openflow.ActionOutput{Port: 2}}, map[int]pkt.MAC{2: newMAC}, 2},
		{"output, set-field, output", []openflow.Action{openflow.ActionOutput{Port: 2}, setDL, openflow.ActionOutput{Port: 3}},
			map[int]pkt.MAC{2: fmac2, 3: newMAC}, 3},
		{"flood", []openflow.Action{openflow.ActionOutput{Port: openflow.PortFlood}}, map[int]pkt.MAC{2: fmac2, 3: fmac2}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, chans := testSwitch(t, 3)
			installRule(s, tc.actions...)
			frame := testFrame(t, 80)
			s.Input(1, frame)
			got := map[int][]byte{}
			for port, dst := range tc.out {
				select {
				case f := <-chans[port]:
					if h, _ := pkt.Parse(f); h.DLDst != dst {
						t.Errorf("port %d saw dl_dst %s, want %s", port, h.DLDst, dst)
					}
					if handed := &f[0] == &frame[0]; handed != (port == tc.handed) {
						t.Errorf("port %d got the caller's buffer: %v, want %v", port, handed, port == tc.handed)
					}
					got[port] = f
				default:
					t.Fatalf("port %d received nothing", port)
				}
			}
			// Scribbling over one receiver's frame reaches no other's.
			for port, f := range got {
				want := map[int][]byte{}
				for other, g := range got {
					want[other] = append([]byte(nil), g...)
				}
				for i := range f {
					f[i] ^= 0xff
				}
				for other, g := range got {
					if other != port && !bytes.Equal(g, want[other]) {
						t.Errorf("receiver %d shares storage with receiver %d", other, port)
					}
				}
			}
		})
	}
}

// TestForwardedFrameAllocatesNothing: through a steered two-switch path —
// match, tag push and output at the first switch, match, tag pop and
// output at the second — a frame costs no allocation: it is edited in
// place and handed on.
func TestForwardedFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s1, s2 := New("s1", 42), New("s2", 43)
	t.Cleanup(s1.Stop)
	t.Cleanup(s2.Stop)
	var delivered []byte
	for _, p := range []struct {
		s        *Switch
		no       uint16
		transmit func([]byte)
	}{
		{s1, 1, func([]byte) {}},
		{s1, 2, func(f []byte) { s2.Input(1, f) }},
		{s2, 1, func([]byte) {}},
		{s2, 2, func(f []byte) { delivered = f }},
	} {
		if err := p.s.AddPort(&Port{No: p.no, Transmit: p.transmit}); err != nil {
			t.Fatal(err)
		}
	}
	installRule(s1, openflow.ActionSetVLAN{VLAN: 7}, openflow.ActionOutput{Port: 2})
	installRule(s2, openflow.ActionStripVLAN{}, openflow.ActionOutput{Port: 2})
	// The frame has the tag room netem.Host.Send gives it. It comes back
	// untagged in the same buffer, so the next run may send it again.
	orig := testFrame(t, 80)
	frame := append(make([]byte, 0, len(orig)+4), orig...)
	if n := testing.AllocsPerRun(200, func() { s1.Input(1, frame) }); n != 0 {
		t.Errorf("one forwarded frame costs %v allocations, want 0", n)
	}
	if !bytes.Equal(delivered, orig) || &delivered[0] != &frame[0] {
		t.Errorf("delivered %x in a buffer of its own, want %x in the sent one", delivered, orig)
	}
	if st := s2.portStats()[1]; st.TxPackets < 200 {
		t.Errorf("s2 port 2 transmitted %d frames", st.TxPackets)
	}
}

// TestFloodWhilePortsChurn: the port table is a snapshot readers load
// without a lock, so a FLOOD from the datapath may run while AddPort and
// RemovePort republish it. Every flood still reaches the fixed port
// beside the in-port, intact; run it under -race.
func TestFloodWhilePortsChurn(t *testing.T) {
	s, chans := testSwitch(t, 2)
	installRule(s, openflow.ActionOutput{Port: openflow.PortFlood})
	done := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			no := uint16(3 + i%8)
			if err := s.AddPort(&Port{No: no, Transmit: func([]byte) {}}); err != nil {
				t.Error(err)
				return
			}
			s.RemovePort(no)
		}
	}()
	orig := testFrame(t, 80)
	for i := 0; i < 2000; i++ {
		s.Input(1, append([]byte(nil), orig...))
		f := <-chans[2]
		if !bytes.Equal(f, orig) {
			t.Fatalf("flood %d delivered %x, want %x", i, f, orig)
		}
	}
	close(done)
	<-churned
	if n := portCount(s); n != 2 {
		t.Errorf("%d ports after the churn, want 2", n)
	}
}

// portCount is the number of ports attached to s.
func portCount(s *Switch) int {
	n := 0
	for _, p := range s.portTable() {
		if p != nil {
			n++
		}
	}
	return n
}

// headerChecksum is the RFC 1071 sum over an IPv4 header: zero when the
// header's checksum field is right.
func headerChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
