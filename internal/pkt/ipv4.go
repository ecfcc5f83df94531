package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPProtocol selects the transport protocol of an IPv4 packet.
type IPProtocol uint8

// IP protocol numbers used by ESCAPE.
const (
	IPProtoICMP IPProtocol = 1
	IPProtoTCP  IPProtocol = 6
	IPProtoUDP  IPProtocol = 17
)

// IPv4 is an IPv4 header (options preserved but not interpreted).
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol IPProtocol
	Checksum uint16
	Src, Dst netip.Addr
	Options  []byte
	payload  []byte
	// totalLen as decoded, for validation.
	totalLen uint16
}

// Flag bits within IPv4.Flags.
//
//lint:ignore deadexport wire constants: the block is the protocol's table, unused codes included
const (
	IPv4DontFragment uint8 = 0x2
	IPv4MoreFrags    uint8 = 0x1
)

// LayerType implements Layer.
func (*IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// DecodeFromBytes implements Layer.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return errTooShort
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("pkt: IPv4 version %d", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 {
		return fmt.Errorf("pkt: IPv4 IHL %d too small", ihl)
	}
	if len(data) < ihl {
		return errTooShort
	}
	ip.TOS = data[1]
	ip.totalLen = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src = addr4(data[12:16])
	ip.Dst = addr4(data[16:20])
	ip.Options = data[20:ihl]
	end := int(ip.totalLen)
	if end > len(data) || end < ihl {
		// Tolerate padded frames (Ethernet minimum) but not truncation.
		if end > len(data) {
			return errTooShort
		}
		end = len(data)
	}
	ip.payload = data[ihl:end]
	return nil
}

// SerializeTo implements Layer.
func (ip *IPv4) SerializeTo(payload []byte) ([]byte, error) {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return nil, fmt.Errorf("pkt: IPv4 requires 4-byte addresses (src=%v dst=%v)", ip.Src, ip.Dst)
	}
	optLen := (len(ip.Options) + 3) &^ 3
	hdrLen := 20 + optLen
	hdr := make([]byte, hdrLen)
	hdr[0] = 0x40 | uint8(hdrLen/4)
	hdr[1] = ip.TOS
	binary.BigEndian.PutUint16(hdr[2:4], uint16(hdrLen+len(payload)))
	binary.BigEndian.PutUint16(hdr[4:6], ip.ID)
	binary.BigEndian.PutUint16(hdr[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	hdr[8] = ip.TTL
	hdr[9] = uint8(ip.Protocol)
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	copy(hdr[12:16], src[:])
	copy(hdr[16:20], dst[:])
	copy(hdr[20:], ip.Options)
	cs := checksum(hdr)
	binary.BigEndian.PutUint16(hdr[10:12], cs)
	ip.Checksum = cs
	return hdr, nil
}

// NextLayerType implements Layer.
func (ip *IPv4) NextLayerType() LayerType {
	if ip.FragOff != 0 {
		return LayerTypePayload // non-first fragment: opaque
	}
	switch ip.Protocol {
	case IPProtoICMP:
		return LayerTypeICMP
	case IPProtoUDP:
		return LayerTypeUDP
	case IPProtoTCP:
		return LayerTypeTCP
	}
	return LayerTypePayload
}

// Payload implements Layer.
func (ip *IPv4) Payload() []byte { return ip.payload }

// pseudoHeaderChecksum computes the IPv4 pseudo-header sum used by UDP/TCP.
func (ip *IPv4) pseudoHeaderChecksum(proto IPProtocol, length int) uint32 {
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

func addr4(b []byte) netip.Addr {
	var a [4]byte
	copy(a[:], b)
	return netip.AddrFrom4(a)
}

// checksum computes the Internet checksum (RFC 1071) of data.
func checksum(data []byte) uint16 {
	return finishChecksum(sumBytes(0, data))
}

func sumBytes(sum uint32, data []byte) uint32 {
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	return sum
}

func finishChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}
