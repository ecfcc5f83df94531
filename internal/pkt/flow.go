package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// FiveTuple identifies a transport flow. Zero values act as wildcards when
// used for human-readable matching in tools; OpenFlow matching uses
// openflow.Match instead.
type FiveTuple struct {
	Proto    IPProtocol
	Src, Dst netip.Addr
	SrcPort  uint16
	DstPort  uint16
}

// String implements fmt.Stringer.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("p%d %s:%d>%s:%d", ft.Proto, ft.Src, ft.SrcPort, ft.Dst, ft.DstPort)
}

// VLANNone in Headers.DLVLAN marks an untagged frame (OpenFlow 1.0's
// OFP_VLAN_NONE).
const VLANNone uint16 = 0xffff

// Headers is one frame's header fields as Parse reads them: the OpenFlow
// 1.0 twelve-tuple less the ingress port, plus where the IPv4 and
// transport headers start, so a rewriter need not walk the frame again.
type Headers struct {
	DLSrc, DLDst MAC
	DLVLAN       uint16 // VLANNone when untagged
	VLANPCP      uint8
	DLType       uint16 // the EtherType after any VLAN tag
	// NWTOS, NWProto, NWSrc and NWDst are the IPv4 header's fields, or,
	// as OpenFlow 1.0 matches ARP, the opcode and the sender and target
	// addresses.
	NWTOS        uint8
	NWProto      uint8
	NWSrc, NWDst netip.Addr
	// TPSrc and TPDst are the UDP or TCP ports, or the ICMP ident and
	// sequence number.
	TPSrc, TPDst uint16
	// L3 and L4 are the offsets in the frame of the IPv4 header and of the
	// UDP, TCP or ICMP header; 0 when that header did not decode.
	L3, L4 uint16
}

// IsIPv4 reports whether an IPv4 header decoded: NW* are its fields.
func (h *Headers) IsIPv4() bool { return h.L3 != 0 }

// FiveTuple returns the transport flow; ok is false unless an IPv4 header
// decoded. The ports are zero when the transport header did not decode
// (a non-first fragment, a truncated segment).
func (h *Headers) FiveTuple() (ft FiveTuple, ok bool) {
	if !h.IsIPv4() {
		return ft, false
	}
	return FiveTuple{Proto: IPProtocol(h.NWProto), Src: h.NWSrc, Dst: h.NWDst, SrcPort: h.TPSrc, DstPort: h.TPDst}, true
}

// Parse walks frame's headers once on stack values and allocates nothing;
// the datapath calls it for every frame at every switch and VNF. It reads
// what Decode would: a header that fails to decode ends the walk and the
// fields of the headers before it stand. The only error is a frame too
// short for an Ethernet header.
func Parse(frame []byte) (Headers, error) {
	h := Headers{DLVLAN: VLANNone}
	var eth Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return h, err
	}
	h.DLSrc, h.DLDst, h.DLType = eth.Src, eth.Dst, uint16(eth.EtherType)
	next, rest := eth.NextLayerType(), eth.Payload()
	if next == LayerTypeVLAN {
		var v VLAN
		if v.DecodeFromBytes(rest) != nil {
			return h, nil
		}
		h.DLVLAN, h.VLANPCP, h.DLType = v.ID, v.Priority, uint16(v.EtherType)
		next, rest = v.NextLayerType(), v.Payload()
	}
	switch next {
	case LayerTypeARP:
		var a ARP
		if a.DecodeFromBytes(rest) == nil {
			h.NWProto, h.NWSrc, h.NWDst = uint8(a.Op), a.SenderIP, a.TargetIP
		}
	case LayerTypeIPv4:
		var ip IPv4
		if ip.DecodeFromBytes(rest) != nil {
			return h, nil
		}
		l3 := len(frame) - len(rest)
		l4 := uint16(l3 + 20 + len(ip.Options))
		h.L3 = uint16(l3)
		h.NWTOS, h.NWProto, h.NWSrc, h.NWDst = ip.TOS, uint8(ip.Protocol), ip.Src, ip.Dst
		switch rest = ip.Payload(); ip.NextLayerType() {
		case LayerTypeUDP:
			var u UDP
			if u.DecodeFromBytes(rest) == nil {
				h.TPSrc, h.TPDst, h.L4 = u.SrcPort, u.DstPort, l4
			}
		case LayerTypeTCP:
			var t TCP
			if t.DecodeFromBytes(rest) == nil {
				h.TPSrc, h.TPDst, h.L4 = t.SrcPort, t.DstPort, l4
			}
		case LayerTypeICMP:
			var ic ICMP
			if ic.DecodeFromBytes(rest) == nil {
				h.TPSrc, h.TPDst, h.L4 = ic.Ident, ic.Seq, l4
			}
		}
	}
	return h, nil
}

// PushVLAN tags frame with 802.1Q VLAN id in place and returns the
// tagged frame. Like append, the result shares frame's storage when its
// capacity has room for the 4-byte tag and is a fresh buffer otherwise, so
// the caller must use the result and give up frame. If the frame is
// already tagged only the tag's VID is rewritten, keeping its PCP and DEI
// (OpenFlow 1.0 SET_VLAN_VID semantics).
func PushVLAN(frame []byte, id uint16) ([]byte, error) {
	if len(frame) < 14 {
		return nil, ErrTooShort
	}
	if EtherType(binary.BigEndian.Uint16(frame[12:14])) == EtherTypeVLAN {
		if len(frame) < 16 {
			return nil, ErrTooShort
		}
		frame[14] = frame[14]&0xf0 | byte(id>>8&0x0f)
		frame[15] = byte(id)
		return frame, nil
	}
	n := len(frame)
	frame = append(frame, 0, 0, 0, 0)
	copy(frame[16:], frame[12:n])
	binary.BigEndian.PutUint16(frame[12:14], uint16(EtherTypeVLAN))
	binary.BigEndian.PutUint16(frame[14:16], id&0x0fff)
	return frame, nil
}

// PopVLAN removes frame's outermost 802.1Q tag in place and returns the
// shortened frame, which shares frame's storage from its first byte on: a
// later PushVLAN grows it back into the same capacity. Untagged frames
// are returned as they are.
func PopVLAN(frame []byte) ([]byte, error) {
	if len(frame) < 14 {
		return nil, ErrTooShort
	}
	if EtherType(binary.BigEndian.Uint16(frame[12:14])) != EtherTypeVLAN {
		return frame, nil
	}
	if len(frame) < 18 {
		return nil, ErrTooShort
	}
	copy(frame[12:], frame[16:])
	return frame[:len(frame)-4], nil
}
