package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// ICMP message types used by ESCAPE's ping tool.
//
//lint:ignore deadexport wire constants: the block is the protocol's table, unused codes included
const (
	ICMPEchoReply   uint8 = 0
	ICMPDestUnreach uint8 = 3
	ICMPEchoRequest uint8 = 8
	ICMPTimeExceed  uint8 = 11
)

// ICMP is an ICMPv4 message. Ident/Seq are meaningful for echo messages.
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
	Ident, Seq uint16
	payload    []byte
}

// LayerType implements Layer.
func (*ICMP) LayerType() LayerType { return LayerTypeICMP }

// DecodeFromBytes implements Layer.
func (ic *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return errTooShort
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.Ident = binary.BigEndian.Uint16(data[4:6])
	ic.Seq = binary.BigEndian.Uint16(data[6:8])
	ic.payload = data[8:]
	return nil
}

// SerializeTo implements Layer.
func (ic *ICMP) SerializeTo(payload []byte) ([]byte, error) {
	hdr := make([]byte, 8)
	hdr[0] = ic.Type
	hdr[1] = ic.Code
	binary.BigEndian.PutUint16(hdr[4:6], ic.Ident)
	binary.BigEndian.PutUint16(hdr[6:8], ic.Seq)
	sum := sumBytes(sumBytes(0, hdr), payload)
	ic.Checksum = finishChecksum(sum)
	binary.BigEndian.PutUint16(hdr[2:4], ic.Checksum)
	return hdr, nil
}

// NextLayerType implements Layer.
func (*ICMP) NextLayerType() LayerType { return LayerTypePayload }

// Payload implements Layer.
func (ic *ICMP) Payload() []byte { return ic.payload }

// UDP is a UDP header. If ip is set via SetNetworkLayer the checksum is
// computed over the pseudo-header; otherwise it is left zero (legal in UDP
// over IPv4).
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
	ip               *IPv4
	payload          []byte
}

// SetNetworkLayer provides the IPv4 header used for pseudo-header
// checksumming during serialization.
func (u *UDP) SetNetworkLayer(ip *IPv4) { u.ip = ip }

// LayerType implements Layer.
func (*UDP) LayerType() LayerType { return LayerTypeUDP }

// DecodeFromBytes implements Layer.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return errTooShort
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if int(u.Length) >= 8 && int(u.Length) <= len(data) {
		u.payload = data[8:u.Length]
	} else {
		u.payload = data[8:]
	}
	return nil
}

// SerializeTo implements Layer.
func (u *UDP) SerializeTo(payload []byte) ([]byte, error) {
	hdr := make([]byte, 8)
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	u.Length = uint16(8 + len(payload))
	binary.BigEndian.PutUint16(hdr[4:6], u.Length)
	if u.ip != nil {
		sum := u.ip.pseudoHeaderChecksum(IPProtoUDP, int(u.Length))
		sum = sumBytes(sum, hdr)
		sum = sumBytes(sum, payload)
		cs := finishChecksum(sum)
		if cs == 0 {
			cs = 0xffff // RFC 768: transmitted as all ones
		}
		u.Checksum = cs
		binary.BigEndian.PutUint16(hdr[6:8], cs)
	}
	return hdr, nil
}

// NextLayerType implements Layer.
func (*UDP) NextLayerType() LayerType { return LayerTypePayload }

// Payload implements Layer.
func (u *UDP) Payload() []byte { return u.payload }

// TCP flag bits.
//
//lint:ignore deadexport wire constants: the block is the protocol's table, unused codes included
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// tcp is a decoded TCP header. ESCAPE reads TCP for classification and
// builds no TCP frames: SerializeTo refuses.
type tcp struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte
	payload          []byte
}

// LayerType implements Layer.
func (*tcp) LayerType() LayerType { return LayerTypeTCP }

// DecodeFromBytes implements Layer.
func (t *tcp) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return errTooShort
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = data[12] >> 4
	off := int(t.DataOffset) * 4
	if off < 20 {
		return fmt.Errorf("pkt: TCP data offset %d too small", off)
	}
	if len(data) < off {
		return errTooShort
	}
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[20:off]
	t.payload = data[off:]
	return nil
}

// SerializeTo implements Layer.
func (*tcp) SerializeTo([]byte) ([]byte, error) {
	return nil, fmt.Errorf("pkt: TCP frames are not built here")
}

// NextLayerType implements Layer.
func (*tcp) NextLayerType() LayerType { return LayerTypePayload }

// Payload implements Layer.
func (t *tcp) Payload() []byte { return t.payload }

// flagString renders the flag set, e.g. "SYN|ACK".
func (t *tcp) flagString() string {
	var parts []string
	for _, f := range []struct {
		bit  uint8
		name string
	}{{TCPSyn, "SYN"}, {TCPAck, "ACK"}, {TCPFin, "FIN"}, {TCPRst, "RST"}, {TCPPsh, "PSH"}, {TCPUrg, "URG"}} {
		if t.Flags&f.bit != 0 {
			parts = append(parts, f.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// ARP opcode values.
//
//lint:ignore deadexport wire constants: the block is the protocol's table, unused codes included
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an Ethernet/IPv4 ARP message.
type ARP struct {
	Op                   uint16
	SenderMAC, TargetMAC MAC
	SenderIP, TargetIP   netip.Addr
	payload              []byte
}

// LayerType implements Layer.
func (*ARP) LayerType() LayerType { return LayerTypeARP }

// DecodeFromBytes implements Layer.
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < 28 {
		return errTooShort
	}
	if ht := binary.BigEndian.Uint16(data[0:2]); ht != 1 {
		return fmt.Errorf("pkt: ARP hardware type %d", ht)
	}
	if pt := binary.BigEndian.Uint16(data[2:4]); pt != uint16(EtherTypeIPv4) {
		return fmt.Errorf("pkt: ARP protocol type %#x", pt)
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	a.SenderIP = addr4(data[14:18])
	copy(a.TargetMAC[:], data[18:24])
	a.TargetIP = addr4(data[24:28])
	a.payload = nil
	return nil
}

// SerializeTo implements Layer.
func (a *ARP) SerializeTo(payload []byte) ([]byte, error) {
	if !a.SenderIP.Is4() || !a.TargetIP.Is4() {
		return nil, fmt.Errorf("pkt: ARP requires IPv4 addresses")
	}
	hdr := make([]byte, 28)
	binary.BigEndian.PutUint16(hdr[0:2], 1) // Ethernet
	binary.BigEndian.PutUint16(hdr[2:4], uint16(EtherTypeIPv4))
	hdr[4] = 6
	hdr[5] = 4
	binary.BigEndian.PutUint16(hdr[6:8], a.Op)
	copy(hdr[8:14], a.SenderMAC[:])
	sip := a.SenderIP.As4()
	copy(hdr[14:18], sip[:])
	copy(hdr[18:24], a.TargetMAC[:])
	tip := a.TargetIP.As4()
	copy(hdr[24:28], tip[:])
	return hdr, nil
}

// NextLayerType implements Layer.
func (*ARP) NextLayerType() LayerType { return LayerTypeInvalid }

// Payload implements Layer.
func (a *ARP) Payload() []byte { return a.payload }
