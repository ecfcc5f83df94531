package openflow

import (
	"bytes"
	"testing"

	"escape/internal/pkt"
)

// fuzzSeedMessages covers every implemented message type, so the fuzzer
// starts from well-formed frames of each decode path (match parsing,
// action lists, nested stats entries) and mutates from there.
func fuzzSeedMessages() []Message {
	mac := pkt.MAC{0, 1, 2, 3, 4, 5}
	return []Message{
		&Hello{},
		&EchoRequest{Data: []byte("ping")},
		&EchoReply{Data: []byte("pong")},
		&Error{ErrType: ErrTypeBadRequest, Code: 2, Data: []byte("bad")},
		&FeaturesRequest{},
		&FeaturesReply{
			DatapathID: 0x42, NBuffers: 256, NTables: 2,
			Ports: []PhyPort{{PortNo: 1, HWAddr: mac, Name: "eth0"}},
		},
		&PacketIn{BufferID: NoBuffer, TotalLen: 64, InPort: 3, Reason: ReasonNoMatch, Data: []byte("frame")},
		&PacketOut{
			BufferID: NoBuffer, InPort: 1,
			Actions: []Action{ActionSetVLAN{VLAN: 100}, ActionOutput{Port: 2}},
			Data:    []byte("frame"),
		},
		&FlowMod{
			Match: MatchAll(), Command: FCAdd, Priority: 30000, BufferID: NoBuffer,
			Actions: []Action{ActionStripVLAN{}, ActionSetDL{Dst: true, MAC: mac}, ActionOutput{Port: 4}},
		},
		&FlowRemoved{Match: MatchAll(), Priority: 7, Reason: RemReasonIdleTimeout, PacketCount: 9},
		&PortStatus{Reason: PortReasonAdd, Desc: PhyPort{PortNo: 2, HWAddr: mac, Name: "veth1"}},
		// The failure-detector path: a MODIFY carrying link-down state,
		// and one with an administratively-disabled config.
		&PortStatus{Reason: PortReasonModify, Desc: PhyPort{
			PortNo: 3, HWAddr: mac, Name: "s1-eth3", State: PortStateLinkDown,
		}},
		&PortStatus{Reason: PortReasonModify, Desc: PhyPort{
			PortNo: 4, HWAddr: mac, Name: "s1-eth4", Config: PortConfigDown,
		}},
		&FeaturesReply{
			DatapathID: 0x7, NBuffers: 64, NTables: 1,
			Ports: []PhyPort{{PortNo: 1, HWAddr: mac, Name: "gone", State: PortStateLinkDown}},
		},
		&StatsRequest{StatsType: StatsFlow, Match: MatchAll(), OutPort: PortNone},
		&StatsRequest{StatsType: StatsPort, PortNo: 1},
		&StatsReply{StatsType: StatsFlow, Flows: []FlowStats{{
			Match: MatchAll(), Priority: 1, PacketCount: 2, ByteCount: 3,
			Actions: []Action{ActionOutput{Port: 1}},
		}}},
		&StatsReply{StatsType: StatsPort, Ports: []PortStats{{PortNo: 1, RxPackets: 5}}},
		&StatsReply{StatsType: StatsAggregate, Aggregate: AggregateStats{PacketCount: 1, ByteCount: 2, FlowCount: 3}},
		&BarrierRequest{},
		&BarrierReply{},
	}
}

// FuzzParseMessage fuzzes the OpenFlow wire decoder: arbitrary input must
// never panic, and anything that decodes must survive an
// encode→decode→encode round trip with a stable type and payload.
func FuzzParseMessage(f *testing.F) {
	for i, m := range fuzzSeedMessages() {
		f.Add(Encode(m, uint32(i)))
	}
	// Malformed shapes: truncated header, bad version, lying length,
	// unknown type, short bodies.
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x01, 0x00, 0x00, 0x08, 0, 0, 0, 0, 0xff})
	f.Add([]byte{0x04, 0x00, 0x00, 0x08, 0, 0, 0, 0})
	f.Add([]byte{0x01, 0xee, 0x00, 0x08, 0, 0, 0, 0})
	f.Add([]byte{0x01, 0x0e, 0x00, 0x0c, 0, 0, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, h, err := decode(data)
		if err != nil {
			// The stream reader must agree that this is not one clean
			// message (it may consume a prefix, never panic).
			_, _, _ = ReadMessage(bytes.NewReader(data))
			return
		}
		re := Encode(msg, h.XID)
		msg2, h2, err := decode(re)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", h.Type, err)
		}
		if msg2.MsgType() != msg.MsgType() {
			t.Fatalf("type changed across round trip: %s → %s", msg.MsgType(), msg2.MsgType())
		}
		if h2.XID != h.XID {
			t.Fatalf("xid changed across round trip: %d → %d", h.XID, h2.XID)
		}
		// A second encode must be byte-stable (canonical form reached
		// after at most one normalization).
		if re2 := Encode(msg2, h2.XID); !bytes.Equal(re, re2) {
			t.Fatalf("%s: encode not canonical after one round trip", h.Type)
		}
		// The stream reader must accept the canonical frame.
		if _, _, err := ReadMessage(bytes.NewReader(re)); err != nil {
			t.Fatalf("ReadMessage rejects canonical %s: %v", h.Type, err)
		}
	})
}
