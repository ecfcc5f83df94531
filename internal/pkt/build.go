package pkt

import (
	"net/netip"
)

// Builders for the frame shapes ESCAPE's tools generate constantly. They
// wrap SerializeLayers with sensible defaults so call sites stay short.

// BuildUDP builds an Ethernet/IPv4/UDP frame carrying payload.
func BuildUDP(srcMAC, dstMAC MAC, src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) ([]byte, error) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: src, Dst: dst}
	udp := &UDP{SrcPort: srcPort, DstPort: dstPort}
	udp.SetNetworkLayer(ip)
	return SerializeLayers(
		&Ethernet{Src: srcMAC, Dst: dstMAC, EtherType: EtherTypeIPv4},
		ip, udp, Raw(payload),
	)
}

// BuildICMPEcho builds an Ethernet/IPv4/ICMP echo request or reply.
func BuildICMPEcho(srcMAC, dstMAC MAC, src, dst netip.Addr, typ uint8, ident, seq uint16, payload []byte) ([]byte, error) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoICMP, Src: src, Dst: dst}
	return SerializeLayers(
		&Ethernet{Src: srcMAC, Dst: dstMAC, EtherType: EtherTypeIPv4},
		ip,
		&ICMP{Type: typ, Ident: ident, Seq: seq},
		Raw(payload),
	)
}

// BuildARPReply builds a unicast is-at answer.
func BuildARPReply(srcMAC, dstMAC MAC, srcIP, dstIP netip.Addr) ([]byte, error) {
	return SerializeLayers(
		&Ethernet{Src: srcMAC, Dst: dstMAC, EtherType: EtherTypeARP},
		&ARP{Op: ARPReply, SenderMAC: srcMAC, SenderIP: srcIP, TargetMAC: dstMAC, TargetIP: dstIP},
	)
}
