package pkt

import (
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

// Reverse returns the tuple with endpoints swapped.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Proto: ft.Proto, Src: ft.Dst, Dst: ft.Src, SrcPort: ft.DstPort, DstPort: ft.SrcPort}
}

// ExtractFiveTuple pulls the transport flow out of a decoded packet.
// ok is false for non-IP packets. ICMP packets yield ports (Ident, Seq)=
// (SrcPort, DstPort) so that echo streams group naturally.
func ExtractFiveTuple(p *Packet) (ft FiveTuple, ok bool) {
	ip := p.IPv4Layer()
	if ip == nil {
		return ft, false
	}
	ft.Proto = ip.Protocol
	ft.Src = ip.Src
	ft.Dst = ip.Dst
	switch l := p.Layer(LayerTypeUDP); {
	case l != nil:
		u := l.(*UDP)
		ft.SrcPort, ft.DstPort = u.SrcPort, u.DstPort
	default:
		if l := p.Layer(LayerTypeTCP); l != nil {
			t := l.(*TCP)
			ft.SrcPort, ft.DstPort = t.SrcPort, t.DstPort
		} else if l := p.Layer(LayerTypeICMP); l != nil {
			ic := l.(*ICMP)
			ft.SrcPort, ft.DstPort = ic.Ident, ic.Seq
		}
	}
	return ft, true
}

// Summary of addressing information commonly needed by the emulator and
// switches without a full decode: destination/source MAC, VLAN ID (or -1),
// and EtherType after VLAN.
type Summary struct {
	Dst, Src  MAC
	VLANID    int // -1 if untagged
	EtherType EtherType
}

// Summarize performs a minimal parse of the Ethernet (+optional single VLAN)
// envelope. It avoids allocating layer structs on hot paths.
func Summarize(frame []byte) (Summary, error) {
	var s Summary
	if len(frame) < 14 {
		return s, ErrTooShort
	}
	copy(s.Dst[:], frame[0:6])
	copy(s.Src[:], frame[6:12])
	et := EtherType(uint16(frame[12])<<8 | uint16(frame[13]))
	s.VLANID = -1
	if et == EtherTypeVLAN {
		if len(frame) < 18 {
			return s, ErrTooShort
		}
		s.VLANID = int(uint16(frame[14])<<8|uint16(frame[15])) & 0x0fff
		et = EtherType(uint16(frame[16])<<8 | uint16(frame[17]))
	}
	s.EtherType = et
	return s, nil
}

// PushVLAN returns a copy of frame with an 802.1Q tag carrying id inserted
// after the Ethernet header. If the frame is already tagged the existing tag
// is rewritten instead (OpenFlow 1.0 SET_VLAN semantics).
func PushVLAN(frame []byte, id uint16) ([]byte, error) {
	if len(frame) < 14 {
		return nil, ErrTooShort
	}
	et := uint16(frame[12])<<8 | uint16(frame[13])
	if EtherType(et) == EtherTypeVLAN {
		out := make([]byte, len(frame))
		copy(out, frame)
		out[14] = byte(id >> 8 & 0x0f)
		out[15] = byte(id)
		return out, nil
	}
	out := make([]byte, 0, len(frame)+4)
	out = append(out, frame[:12]...)
	out = append(out, byte(EtherTypeVLAN>>8), byte(EtherTypeVLAN&0xff))
	out = append(out, byte(id>>8&0x0f), byte(id))
	out = append(out, frame[12:]...)
	return out, nil
}

// PopVLAN returns a copy of frame with its outermost 802.1Q tag removed.
// Untagged frames are returned unchanged (copied).
func PopVLAN(frame []byte) ([]byte, error) {
	if len(frame) < 14 {
		return nil, ErrTooShort
	}
	et := uint16(frame[12])<<8 | uint16(frame[13])
	if EtherType(et) != EtherTypeVLAN {
		out := make([]byte, len(frame))
		copy(out, frame)
		return out, nil
	}
	if len(frame) < 18 {
		return nil, ErrTooShort
	}
	out := make([]byte, 0, len(frame)-4)
	out = append(out, frame[:12]...)
	out = append(out, frame[16:]...)
	return out, nil
}
