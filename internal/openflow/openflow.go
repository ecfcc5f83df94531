// Package openflow implements the OpenFlow 1.0 wire protocol subset that
// ESCAPE's control plane uses: the POX-style controller (internal/pox)
// and the Open vSwitch stand-in (internal/ofswitch) speak this protocol
// over real byte streams (TCP or in-process net.Pipe), so the control
// channel is exercised exactly as in the original system.
//
// Implemented messages: HELLO, ERROR, ECHO_REQUEST/REPLY,
// FEATURES_REQUEST/REPLY, PACKET_IN, FLOW_REMOVED, PORT_STATUS,
// PACKET_OUT, FLOW_MOD, STATS_REQUEST/REPLY (flow, aggregate, port),
// BARRIER_REQUEST/REPLY.
package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
)

// version is the OpenFlow protocol version implemented (1.0).
const version byte = 0x01

// MsgType identifies an OpenFlow message type.
type MsgType uint8

// OpenFlow 1.0 message types.
//
//lint:ignore deadexport OpenFlow 1.0 wire constants: the block is the spec's table, unused codes included
const (
	TypeHello           MsgType = 0
	TypeError           MsgType = 1
	TypeEchoRequest     MsgType = 2
	TypeEchoReply       MsgType = 3
	TypeVendor          MsgType = 4
	TypeFeaturesRequest MsgType = 5
	TypeFeaturesReply   MsgType = 6
	TypeGetConfigReq    MsgType = 7
	TypeGetConfigReply  MsgType = 8
	TypeSetConfig       MsgType = 9
	TypePacketIn        MsgType = 10
	TypeFlowRemoved     MsgType = 11
	TypePortStatus      MsgType = 12
	TypePacketOut       MsgType = 13
	TypeFlowMod         MsgType = 14
	TypePortMod         MsgType = 15
	TypeStatsRequest    MsgType = 16
	TypeStatsReply      MsgType = 17
	TypeBarrierRequest  MsgType = 18
	TypeBarrierReply    MsgType = 19
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := map[MsgType]string{
		TypeHello: "HELLO", TypeError: "ERROR", TypeEchoRequest: "ECHO_REQUEST",
		TypeEchoReply: "ECHO_REPLY", TypeFeaturesRequest: "FEATURES_REQUEST",
		TypeFeaturesReply: "FEATURES_REPLY", TypePacketIn: "PACKET_IN",
		TypeFlowRemoved: "FLOW_REMOVED", TypePortStatus: "PORT_STATUS",
		TypePacketOut: "PACKET_OUT", TypeFlowMod: "FLOW_MOD",
		TypeStatsRequest: "STATS_REQUEST", TypeStatsReply: "STATS_REPLY",
		TypeBarrierRequest: "BARRIER_REQUEST", TypeBarrierReply: "BARRIER_REPLY",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Special port numbers (ofp_port).
//
//lint:ignore deadexport OpenFlow 1.0 wire constants: the block is the spec's table, unused codes included
const (
	PortMax        uint16 = 0xff00
	PortInPort     uint16 = 0xfff8
	PortTable      uint16 = 0xfff9
	PortNormal     uint16 = 0xfffa
	PortFlood      uint16 = 0xfffb
	PortAll        uint16 = 0xfffc
	PortController uint16 = 0xfffd
	PortLocal      uint16 = 0xfffe
	PortNone       uint16 = 0xffff
)

// Flow-mod commands.
const (
	FCAdd uint16 = iota
	FCModify
	FCModifyStrict
	FCDelete
	FCDeleteStrict
)

// Flow-mod flags.
//
//lint:ignore deadexport OpenFlow 1.0 wire constants: the block is the spec's table, unused codes included
const (
	FlagSendFlowRem  uint16 = 1 << 0
	FlagCheckOverlap uint16 = 1 << 1
	FlagEmerg        uint16 = 1 << 2
)

// Packet-in reasons.
const (
	ReasonNoMatch uint8 = 0
	ReasonAction  uint8 = 1
)

// Flow-removed reasons.
const (
	RemReasonIdleTimeout uint8 = 0
	RemReasonHardTimeout uint8 = 1
	RemReasonDelete      uint8 = 2
)

// Port-status reasons.
const (
	PortReasonAdd    uint8 = 0
	PortReasonDelete uint8 = 1
	PortReasonModify uint8 = 2
)

// Port config flags (ofp_port_config subset).
//
//lint:ignore deadexport OpenFlow 1.0 wire constants: the block is the spec's table, unused codes included
const (
	PortConfigDown uint32 = 1 << 0
)

// Port state flags (ofp_port_state subset).
const (
	PortStateLinkDown uint32 = 1 << 0
)

// Error types (subset).
//
//lint:ignore deadexport OpenFlow 1.0 wire constants: the block is the spec's table, unused codes included
const (
	ErrTypeHelloFailed   uint16 = 0
	ErrTypeBadRequest    uint16 = 1
	ErrTypeBadAction     uint16 = 2
	ErrTypeFlowModFailed uint16 = 3
)

// NoBuffer is the buffer_id meaning "full packet included".
const NoBuffer uint32 = 0xffffffff

// Header is the fixed 8-byte OpenFlow header.
type Header struct {
	Version byte
	Type    MsgType
	Length  uint16
	XID     uint32
}

const headerLen = 8

// Message is any OpenFlow message body.
type Message interface {
	// MsgType reports the header type for this body.
	MsgType() MsgType
	// encodeBody appends the body (everything after the header) to b.
	encodeBody(b []byte) []byte
	// decodeBody parses the body.
	decodeBody(data []byte) error
}

// Encode serializes msg with the given transaction id into wire format.
func Encode(msg Message, xid uint32) []byte {
	return AppendMessage(nil, msg, xid)
}

// AppendMessage appends the wire form of msg with the given transaction
// id to b: messages appended to one buffer leave in one write.
func AppendMessage(b []byte, msg Message, xid uint32) []byte {
	start := len(b)
	b = append(b, version, byte(msg.MsgType()), 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[start+4:], xid)
	b = msg.encodeBody(b)
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(b)-start))
	return b
}

// decode parses one complete wire message (header + body).
func decode(data []byte) (Message, Header, error) {
	var h Header
	if len(data) < headerLen {
		return nil, h, fmt.Errorf("openflow: message shorter than header (%d bytes)", len(data))
	}
	h.Version = data[0]
	h.Type = MsgType(data[1])
	h.Length = binary.BigEndian.Uint16(data[2:4])
	h.XID = binary.BigEndian.Uint32(data[4:8])
	if h.Version != version {
		return nil, h, fmt.Errorf("openflow: unsupported version %#x", h.Version)
	}
	if int(h.Length) != len(data) {
		return nil, h, fmt.Errorf("openflow: header length %d != data %d", h.Length, len(data))
	}
	var msg Message
	switch h.Type {
	case TypeHello:
		msg = &Hello{}
	case TypeError:
		msg = &Error{}
	case TypeEchoRequest:
		msg = &EchoRequest{}
	case TypeEchoReply:
		msg = &EchoReply{}
	case TypeFeaturesRequest:
		msg = &FeaturesRequest{}
	case TypeFeaturesReply:
		msg = &FeaturesReply{}
	case TypePacketIn:
		msg = &PacketIn{}
	case TypeFlowRemoved:
		msg = &FlowRemoved{}
	case TypePortStatus:
		msg = &PortStatus{}
	case TypePacketOut:
		msg = &PacketOut{}
	case TypeFlowMod:
		msg = &FlowMod{}
	case TypeStatsRequest:
		msg = &StatsRequest{}
	case TypeStatsReply:
		msg = &StatsReply{}
	case TypeBarrierRequest:
		msg = &BarrierRequest{}
	case TypeBarrierReply:
		msg = &BarrierReply{}
	default:
		return nil, h, fmt.Errorf("openflow: unsupported message type %s", h.Type)
	}
	if err := msg.decodeBody(data[headerLen:]); err != nil {
		return nil, h, fmt.Errorf("openflow: decoding %s: %w", h.Type, err)
	}
	return msg, h, nil
}

// ReadMessage reads exactly one message from r.
func ReadMessage(r io.Reader) (Message, Header, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, Header{}, err
	}
	length := binary.BigEndian.Uint16(hdr[2:4])
	if length < headerLen {
		return nil, Header{}, fmt.Errorf("openflow: bad length %d", length)
	}
	buf := make([]byte, length)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		return nil, Header{}, err
	}
	return decode(buf)
}

// WriteMessage writes msg to w with the given xid.
func WriteMessage(w io.Writer, msg Message, xid uint32) error {
	_, err := w.Write(Encode(msg, xid))
	return err
}
