package openflow

import (
	"bytes"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"escape/internal/pkt"
)

var (
	omac1 = pkt.MAC{2, 0, 0, 0, 0, 1}
	omac2 = pkt.MAC{2, 0, 0, 0, 0, 2}
	oip1  = netip.MustParseAddr("10.0.0.1")
	oip2  = netip.MustParseAddr("10.0.0.2")
)

// roundTrip encodes msg and decodes it back, verifying header fields.
func roundTrip(t *testing.T, msg Message, xid uint32) Message {
	t.Helper()
	wire := Encode(msg, xid)
	got, h, err := Decode(wire)
	if err != nil {
		t.Fatalf("decode %s: %v", msg.MsgType(), err)
	}
	if h.XID != xid || h.Type != msg.MsgType() || int(h.Length) != len(wire) {
		t.Fatalf("header = %+v", h)
	}
	return got
}

func TestHelloEchoRoundTrip(t *testing.T) {
	roundTrip(t, &Hello{}, 1)
	er := roundTrip(t, &EchoRequest{Data: []byte("ping")}, 2).(*EchoRequest)
	if string(er.Data) != "ping" {
		t.Errorf("echo data = %q", er.Data)
	}
	ep := roundTrip(t, &EchoReply{Data: []byte("pong")}, 3).(*EchoReply)
	if string(ep.Data) != "pong" {
		t.Errorf("echo reply = %q", ep.Data)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := roundTrip(t, &Error{ErrType: ErrTypeFlowModFailed, Code: 3, Data: []byte{1, 2}}, 9).(*Error)
	if e.ErrType != ErrTypeFlowModFailed || e.Code != 3 || !bytes.Equal(e.Data, []byte{1, 2}) {
		t.Errorf("error = %+v", e)
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	in := &FeaturesReply{
		DatapathID: 0xdeadbeef01020304,
		NBuffers:   256,
		NTables:    1,
		Ports: []PhyPort{
			{PortNo: 1, HWAddr: omac1, Name: "s1-eth1"},
			{PortNo: 2, HWAddr: omac2, Name: "s1-eth2"},
		},
	}
	out := roundTrip(t, in, 7).(*FeaturesReply)
	if out.DatapathID != in.DatapathID || len(out.Ports) != 2 {
		t.Fatalf("reply = %+v", out)
	}
	if out.Ports[0].Name != "s1-eth1" || out.Ports[1].PortNo != 2 || out.Ports[1].HWAddr != omac2 {
		t.Errorf("ports = %+v", out.Ports)
	}
}

func TestPacketInOutRoundTrip(t *testing.T) {
	frame, _ := pkt.BuildUDP(omac1, omac2, oip1, oip2, 10, 20, []byte("xyz"))
	pi := roundTrip(t, &PacketIn{BufferID: 42, TotalLen: uint16(len(frame)), InPort: 3, Reason: ReasonNoMatch, Data: frame}, 11).(*PacketIn)
	if pi.BufferID != 42 || pi.InPort != 3 || !bytes.Equal(pi.Data, frame) {
		t.Errorf("packet-in = %+v", pi)
	}
	po := roundTrip(t, &PacketOut{
		BufferID: NoBuffer,
		InPort:   PortNone,
		Actions:  []Action{ActionSetVLAN{VLAN: 7}, ActionOutput{Port: 2}},
		Data:     frame,
	}, 12).(*PacketOut)
	if len(po.Actions) != 2 || !bytes.Equal(po.Data, frame) {
		t.Errorf("packet-out = %+v", po)
	}
	if v, ok := po.Actions[0].(ActionSetVLAN); !ok || v.VLAN != 7 {
		t.Errorf("action[0] = %#v", po.Actions[0])
	}
}

func TestFlowModRoundTripAllActions(t *testing.T) {
	m := MatchAll()
	m.Wildcards &^= WildInPort | WildDLType
	m.InPort = 4
	m.DLType = 0x0800
	in := &FlowMod{
		Match:       m,
		Cookie:      77,
		Command:     FCAdd,
		IdleTimeout: 10,
		HardTimeout: 30,
		Priority:    1000,
		BufferID:    NoBuffer,
		Flags:       FlagSendFlowRem,
		Actions: []Action{
			ActionSetDL{Dst: true, MAC: omac2},
			ActionSetDL{Dst: false, MAC: omac1},
			ActionSetNW{Dst: true, Addr: oip2},
			ActionSetNW{Dst: false, Addr: oip1},
			ActionSetTP{Dst: true, Port: 80},
			ActionSetTP{Dst: false, Port: 8080},
			ActionSetVLAN{VLAN: 100},
			ActionStripVLAN{},
			ActionOutput{Port: 1, MaxLen: 128},
		},
	}
	out := roundTrip(t, in, 13).(*FlowMod)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("flow-mod round trip:\n in=%+v\nout=%+v", in, out)
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	in := &FlowRemoved{
		Match: MatchAll(), Cookie: 5, Priority: 10, Reason: RemReasonIdleTimeout,
		DurationSec: 9, IdleTimeout: 3, PacketCount: 100, ByteCount: 6400,
	}
	out := roundTrip(t, in, 14).(*FlowRemoved)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("flow-removed:\n in=%+v\nout=%+v", in, out)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	// Flow stats.
	fm := MatchAll()
	fm.Wildcards &^= WildDLType
	fm.DLType = 0x0806
	in := &StatsReply{
		StatsType: StatsFlow,
		Flows: []FlowStats{
			{Match: fm, DurationSec: 1, Priority: 5, Cookie: 9, PacketCount: 10, ByteCount: 640,
				Actions: []Action{ActionOutput{Port: 2}}},
			{Match: MatchAll(), Priority: 1},
		},
	}
	out := roundTrip(t, in, 15).(*StatsReply)
	if len(out.Flows) != 2 || out.Flows[0].PacketCount != 10 || out.Flows[0].Priority != 5 {
		t.Errorf("flow stats = %+v", out.Flows)
	}
	// Port stats.
	in2 := &StatsReply{StatsType: StatsPort, Ports: []PortStats{{PortNo: 1, RxPackets: 5, TxBytes: 100}}}
	out2 := roundTrip(t, in2, 16).(*StatsReply)
	if len(out2.Ports) != 1 || out2.Ports[0].RxPackets != 5 || out2.Ports[0].TxBytes != 100 {
		t.Errorf("port stats = %+v", out2.Ports)
	}
	// Aggregate.
	in3 := &StatsReply{StatsType: StatsAggregate, Aggregate: AggregateStats{PacketCount: 7, ByteCount: 448, FlowCount: 3}}
	out3 := roundTrip(t, in3, 17).(*StatsReply)
	if out3.Aggregate != in3.Aggregate {
		t.Errorf("aggregate = %+v", out3.Aggregate)
	}
	// Requests.
	rq := roundTrip(t, &StatsRequest{StatsType: StatsFlow, Match: MatchAll(), OutPort: PortNone}, 18).(*StatsRequest)
	if rq.StatsType != StatsFlow || rq.OutPort != PortNone {
		t.Errorf("stats request = %+v", rq)
	}
	rq2 := roundTrip(t, &StatsRequest{StatsType: StatsPort, PortNo: 3}, 19).(*StatsRequest)
	if rq2.PortNo != 3 {
		t.Errorf("port stats request = %+v", rq2)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short message accepted")
	}
	wire := Encode(&Hello{}, 1)
	wire[0] = 0x04 // wrong version
	if _, _, err := Decode(wire); err == nil {
		t.Error("wrong version accepted")
	}
	wire2 := Encode(&Hello{}, 1)
	wire2[2] = 0xff // wrong length
	if _, _, err := Decode(wire2); err == nil {
		t.Error("wrong length accepted")
	}
	wire3 := Encode(&Hello{}, 1)
	wire3[1] = 200 // unknown type
	if _, _, err := Decode(wire3); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestReadWriteMessageOverPipe(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	done := make(chan error, 1)
	go func() {
		done <- WriteMessage(c1, &EchoRequest{Data: []byte("hello")}, 99)
	}()
	msg, h, err := ReadMessage(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if h.XID != 99 {
		t.Errorf("xid = %d", h.XID)
	}
	er, ok := msg.(*EchoRequest)
	if !ok || string(er.Data) != "hello" {
		t.Errorf("msg = %#v", msg)
	}
}

func TestMatchExtractAndMatch(t *testing.T) {
	frame, _ := pkt.BuildUDP(omac1, omac2, oip1, oip2, 1000, 2000, []byte("q"))
	f, err := ExtractFields(frame, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f.InPort != 5 || f.DLType != 0x0800 || f.NWProto != 17 || f.TPDst != 2000 || f.DLVLAN != VLANNone {
		t.Fatalf("fields = %+v", f)
	}
	if all := MatchAll(); !all.Matches(&f) {
		t.Error("wildcard match failed")
	}
	em := ExactMatch(f)
	if !em.Matches(&f) {
		t.Error("exact match failed against own fields")
	}
	// A different in_port must break the exact match.
	f2 := f
	f2.InPort = 6
	if em.Matches(&f2) {
		t.Error("exact match ignored in_port")
	}
	// Wildcarding in_port restores the match.
	em.Wildcards |= WildInPort
	if !em.Matches(&f2) {
		t.Error("wildcarded in_port still compared")
	}
}

func TestMatchVLANAndARP(t *testing.T) {
	frame, _ := pkt.BuildUDP(omac1, omac2, oip1, oip2, 1, 2, nil)
	tagged, _ := pkt.PushVLAN(frame, 42)
	f, err := ExtractFields(tagged, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.DLVLAN != 42 || f.DLType != 0x0800 {
		t.Fatalf("vlan fields = %+v", f)
	}
	m := MatchAll()
	m.Wildcards &^= WildDLVLAN
	m.DLVLAN = 42
	if !m.Matches(&f) {
		t.Error("vlan match failed")
	}
	m.DLVLAN = 43
	if m.Matches(&f) {
		t.Error("wrong vlan matched")
	}
	// ARP fields land in NW slots.
	arp, _ := pkt.BuildARPRequest(omac1, oip1, oip2)
	fa, err := ExtractFields(arp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fa.DLType != 0x0806 || fa.NWProto != uint8(pkt.ARPRequest) || fa.NWSrc != oip1 {
		t.Errorf("arp fields = %+v", fa)
	}
}

func TestMatchCIDR(t *testing.T) {
	m := MatchAll()
	// Match 10.0.0.0/24 destinations: wildcard the low 8 bits of NW dst.
	m.Wildcards = (m.Wildcards &^ (0x3f << wildNWDstShift)) | (8 << wildNWDstShift)
	m.NWDst = netip.MustParseAddr("10.0.0.0")
	frame, _ := pkt.BuildUDP(omac1, omac2, oip1, netip.MustParseAddr("10.0.0.99"), 1, 2, nil)
	f, _ := ExtractFields(frame, 1)
	if !m.Matches(&f) {
		t.Error("CIDR /24 did not match in-subnet address")
	}
	frame2, _ := pkt.BuildUDP(omac1, omac2, oip1, netip.MustParseAddr("10.0.1.1"), 1, 2, nil)
	f2, _ := ExtractFields(frame2, 1)
	if m.Matches(&f2) {
		t.Error("CIDR /24 matched out-of-subnet address")
	}
}

func TestMatchSpecificityOrdering(t *testing.T) {
	all := MatchAll()
	frame, _ := pkt.BuildUDP(omac1, omac2, oip1, oip2, 1, 2, nil)
	f, _ := ExtractFields(frame, 1)
	exact := ExactMatch(f)
	inport := MatchAll()
	inport.Wildcards &^= WildInPort
	if !(exact.Specificity() > inport.Specificity() && inport.Specificity() > all.Specificity()) {
		t.Errorf("specificity: exact=%d inport=%d all=%d",
			exact.Specificity(), inport.Specificity(), all.Specificity())
	}
}

func TestMatchString(t *testing.T) {
	if MatchAll().String() != "*" {
		t.Errorf("MatchAll string = %q", MatchAll().String())
	}
	m := MatchAll()
	m.Wildcards &^= WildInPort | WildDLVLAN
	m.InPort = 3
	m.DLVLAN = 10
	s := m.String()
	if s != "in_port=3,dl_vlan=10" {
		t.Errorf("match string = %q", s)
	}
}

// Property: FlowMod round trips for arbitrary priorities/timeouts/ports.
func TestQuickFlowModRoundTrip(t *testing.T) {
	f := func(prio, idle, hard uint16, port uint16, cookie uint64) bool {
		in := &FlowMod{
			Match:       MatchAll(),
			Cookie:      cookie,
			Command:     FCAdd,
			IdleTimeout: idle,
			HardTimeout: hard,
			Priority:    prio,
			BufferID:    NoBuffer,
			Actions:     []Action{ActionOutput{Port: port}},
		}
		wire := Encode(in, 1)
		got, _, err := Decode(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ExactMatch(fields).Matches(fields) always holds for frames we
// can build.
func TestQuickExactMatchReflexive(t *testing.T) {
	f := func(sp, dp uint16, inPort uint16) bool {
		frame, err := pkt.BuildUDP(omac1, omac2, oip1, oip2, sp, dp, nil)
		if err != nil {
			return false
		}
		fields, err := ExtractFields(frame, inPort)
		if err != nil {
			return false
		}
		m := ExactMatch(fields)
		return m.Matches(&fields)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
