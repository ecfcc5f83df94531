package openflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"escape/internal/pkt"
)

// Action type codes (ofp_action_type).
//
//lint:ignore deadexport OpenFlow 1.0 wire constants: the block is the spec's table, unused codes included
const (
	ActTypeOutput     uint16 = 0
	ActTypeSetVLANVID uint16 = 1
	ActTypeSetVLANPCP uint16 = 2
	ActTypeStripVLAN  uint16 = 3
	ActTypeSetDLSrc   uint16 = 4
	ActTypeSetDLDst   uint16 = 5
	ActTypeSetNWSrc   uint16 = 6
	ActTypeSetNWDst   uint16 = 7
	ActTypeSetNWTOS   uint16 = 8
	ActTypeSetTPSrc   uint16 = 9
	ActTypeSetTPDst   uint16 = 10
)

// Action is one OpenFlow 1.0 action.
type Action interface {
	actionType() uint16
	encode(b []byte) []byte
}

// ActionOutput forwards the packet to a port (possibly a special port).
type ActionOutput struct {
	Port   uint16
	MaxLen uint16 // bytes to send on PortController output
}

func (ActionOutput) actionType() uint16 { return ActTypeOutput }

func (a ActionOutput) encode(b []byte) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint16(buf[0:2], ActTypeOutput)
	binary.BigEndian.PutUint16(buf[2:4], 8)
	binary.BigEndian.PutUint16(buf[4:6], a.Port)
	binary.BigEndian.PutUint16(buf[6:8], a.MaxLen)
	return append(b, buf...)
}

// ActionSetVLAN sets (pushing if needed) the 802.1Q VLAN ID.
type ActionSetVLAN struct{ VLAN uint16 }

func (ActionSetVLAN) actionType() uint16 { return ActTypeSetVLANVID }

func (a ActionSetVLAN) encode(b []byte) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint16(buf[0:2], ActTypeSetVLANVID)
	binary.BigEndian.PutUint16(buf[2:4], 8)
	binary.BigEndian.PutUint16(buf[4:6], a.VLAN)
	return append(b, buf...)
}

// ActionStripVLAN removes the 802.1Q tag.
type ActionStripVLAN struct{}

func (ActionStripVLAN) actionType() uint16 { return ActTypeStripVLAN }

func (ActionStripVLAN) encode(b []byte) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint16(buf[0:2], ActTypeStripVLAN)
	binary.BigEndian.PutUint16(buf[2:4], 8)
	return append(b, buf...)
}

// ActionSetDL rewrites the source or destination MAC.
type ActionSetDL struct {
	Dst bool // true: rewrite destination, false: source
	MAC pkt.MAC
}

func (a ActionSetDL) actionType() uint16 {
	if a.Dst {
		return ActTypeSetDLDst
	}
	return ActTypeSetDLSrc
}

func (a ActionSetDL) encode(b []byte) []byte {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint16(buf[0:2], a.actionType())
	binary.BigEndian.PutUint16(buf[2:4], 16)
	copy(buf[4:10], a.MAC[:])
	return append(b, buf...)
}

// ActionSetNW rewrites the source or destination IPv4 address.
type ActionSetNW struct {
	Dst  bool
	Addr netip.Addr
}

func (a ActionSetNW) actionType() uint16 {
	if a.Dst {
		return ActTypeSetNWDst
	}
	return ActTypeSetNWSrc
}

func (a ActionSetNW) encode(b []byte) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint16(buf[0:2], a.actionType())
	binary.BigEndian.PutUint16(buf[2:4], 8)
	putAddr4(buf[4:8], a.Addr)
	return append(b, buf...)
}

// ActionSetTP rewrites the source or destination transport port.
type ActionSetTP struct {
	Dst  bool
	Port uint16
}

func (a ActionSetTP) actionType() uint16 {
	if a.Dst {
		return ActTypeSetTPDst
	}
	return ActTypeSetTPSrc
}

func (a ActionSetTP) encode(b []byte) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint16(buf[0:2], a.actionType())
	binary.BigEndian.PutUint16(buf[2:4], 8)
	binary.BigEndian.PutUint16(buf[4:6], a.Port)
	return append(b, buf...)
}

func encodeActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		b = a.encode(b)
	}
	return b
}

func decodeActions(data []byte) ([]Action, error) {
	var out []Action
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, fmt.Errorf("action header truncated")
		}
		typ := binary.BigEndian.Uint16(data[0:2])
		length := int(binary.BigEndian.Uint16(data[2:4]))
		if length < 8 || length%8 != 0 || length > len(data) {
			return nil, fmt.Errorf("bad action length %d", length)
		}
		body := data[:length]
		switch typ {
		case ActTypeOutput:
			out = append(out, ActionOutput{
				Port:   binary.BigEndian.Uint16(body[4:6]),
				MaxLen: binary.BigEndian.Uint16(body[6:8]),
			})
		case ActTypeSetVLANVID:
			out = append(out, ActionSetVLAN{VLAN: binary.BigEndian.Uint16(body[4:6])})
		case ActTypeStripVLAN:
			out = append(out, ActionStripVLAN{})
		case ActTypeSetDLSrc, ActTypeSetDLDst:
			if length < 16 {
				return nil, fmt.Errorf("short dl action")
			}
			var m pkt.MAC
			copy(m[:], body[4:10])
			out = append(out, ActionSetDL{Dst: typ == ActTypeSetDLDst, MAC: m})
		case ActTypeSetNWSrc, ActTypeSetNWDst:
			out = append(out, ActionSetNW{Dst: typ == ActTypeSetNWDst, Addr: getAddr4(body[4:8])})
		case ActTypeSetTPSrc, ActTypeSetTPDst:
			out = append(out, ActionSetTP{Dst: typ == ActTypeSetTPDst, Port: binary.BigEndian.Uint16(body[4:6])})
		default:
			return nil, fmt.Errorf("unsupported action type %d", typ)
		}
		data = data[length:]
	}
	return out, nil
}
