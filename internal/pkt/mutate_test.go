package pkt

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"testing/quick"
)

// checksumsValid verifies IP header and UDP/TCP checksums of a frame.
func checksumsValid(t *testing.T, frame []byte) {
	t.Helper()
	dec := Decode(frame)
	ip := dec.IPv4Layer()
	if ip == nil {
		t.Fatal("not an IP frame")
	}
	ihl := int(frame[14]&0xf) * 4
	if checksum(frame[14:14+ihl]) != 0 {
		t.Error("IP header checksum invalid")
	}
	// Transport: recompute over pseudo-header + segment; valid sums fold
	// to zero (UDP 0xffff case handled by the encoder).
	if u, ok := dec.Layer(LayerTypeUDP).(*UDP); ok && u.Checksum != 0 {
		seg := frame[14+ihl:]
		sum := ip.pseudoHeaderChecksum(IPProtoUDP, len(seg))
		if finishChecksum(sumBytes(sum, seg)) != 0 {
			t.Error("UDP checksum invalid")
		}
	}
	if _, ok := dec.Layer(LayerTypeTCP).(*tcp); ok {
		seg := frame[14+ihl:]
		sum := ip.pseudoHeaderChecksum(IPProtoTCP, len(seg))
		if finishChecksum(sumBytes(sum, seg)) != 0 {
			t.Error("TCP checksum invalid")
		}
	}
}

func TestSetNWAddrUDP(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1000, 2000, []byte("payload"))
	newDst := netip.MustParseAddr("172.16.5.5")
	if err := SetNWAddr(frame, true, newDst); err != nil {
		t.Fatal(err)
	}
	dec := Decode(frame)
	if dec.IPv4Layer().Dst != newDst {
		t.Errorf("dst = %s", dec.IPv4Layer().Dst)
	}
	checksumsValid(t, frame)
	// Source too.
	newSrc := netip.MustParseAddr("192.168.1.1")
	if err := SetNWAddr(frame, false, newSrc); err != nil {
		t.Fatal(err)
	}
	if Decode(frame).IPv4Layer().Src != newSrc {
		t.Error("src not rewritten")
	}
	checksumsValid(t, frame)
}

func TestSetNWAddrTCPAndVLAN(t *testing.T) {
	frame, _ := buildTCP(mac1, mac2, ip1, ip2, 80, 443, TCPAck, 7, []byte("tcp data"))
	tagged, _ := PushVLAN(frame, 99)
	newDst := netip.MustParseAddr("10.9.9.9")
	if err := SetNWAddr(tagged, true, newDst); err != nil {
		t.Fatal(err)
	}
	dec := Decode(tagged)
	if dec.IPv4Layer().Dst != newDst {
		t.Errorf("dst under VLAN = %s", dec.IPv4Layer().Dst)
	}
	// IP checksum under the VLAN tag (offset 18).
	ihl := int(tagged[18]&0xf) * 4
	if checksum(tagged[18:18+ihl]) != 0 {
		t.Error("IP checksum invalid under VLAN")
	}
}

func TestSetTPPortBothProtocols(t *testing.T) {
	udpF, _ := BuildUDP(mac1, mac2, ip1, ip2, 1000, 2000, []byte("u"))
	if err := SetTPPort(udpF, true, 53); err != nil {
		t.Fatal(err)
	}
	u, _ := Decode(udpF).Layer(LayerTypeUDP).(*UDP)
	if u.DstPort != 53 {
		t.Errorf("udp dst port = %d", u.DstPort)
	}
	checksumsValid(t, udpF)

	tcpF, _ := buildTCP(mac1, mac2, ip1, ip2, 80, 443, TCPSyn, 1, nil)
	if err := SetTPPort(tcpF, false, 8080); err != nil {
		t.Fatal(err)
	}
	tc, _ := Decode(tcpF).Layer(LayerTypeTCP).(*tcp)
	if tc.SrcPort != 8080 {
		t.Errorf("tcp src port = %d", tc.SrcPort)
	}
	checksumsValid(t, tcpF)
}

func TestMutateErrors(t *testing.T) {
	arp, _ := buildARPRequest(mac1, ip1, ip2)
	if err := SetNWAddr(arp, true, ip1); err == nil {
		t.Error("SetNWAddr on ARP succeeded")
	}
	if err := SetTPPort(arp, true, 1); err == nil {
		t.Error("SetTPPort on ARP succeeded")
	}
	short := []byte{1, 2, 3}
	if err := SetDLAddr(short, true, mac1); err == nil {
		t.Error("SetDLAddr on runt succeeded")
	}
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, nil)
	if err := SetNWAddr(frame, true, netip.MustParseAddr("::1")); err == nil {
		t.Error("IPv6 address accepted")
	}
	// ICMP transport is not rewritable.
	icmp, _ := BuildICMPEcho(mac1, mac2, ip1, ip2, ICMPEchoRequest, 1, 1, nil)
	if err := SetTPPort(icmp, true, 1); err == nil {
		t.Error("SetTPPort on ICMP succeeded")
	}
}

func TestFragmentNotRewritten(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, []byte("frag"))
	// Mark as a non-first fragment.
	binary.BigEndian.PutUint16(frame[20:22], 0x0010) // frag offset 16
	// Fix the header checksum for the mutation.
	frame[24], frame[25] = 0, 0
	cs := checksum(frame[14:34])
	binary.BigEndian.PutUint16(frame[24:26], cs)
	if err := SetTPPort(frame, true, 9); err == nil {
		t.Error("rewrote 'transport header' of a fragment")
	}
}

// Property: rewriting addresses and ports preserves checksum validity for
// arbitrary payloads and targets.
func TestQuickMutatePreservesChecksums(t *testing.T) {
	f := func(payload []byte, a, b, c, d byte, port uint16) bool {
		if len(payload) > 1200 {
			payload = payload[:1200]
		}
		frame, err := BuildUDP(mac1, mac2, ip1, ip2, 1111, 2222, payload)
		if err != nil {
			return false
		}
		addr := netip.AddrFrom4([4]byte{a | 1, b, c, d})
		if SetNWAddr(frame, true, addr) != nil {
			return false
		}
		if SetTPPort(frame, false, port) != nil {
			return false
		}
		ihl := int(frame[14]&0xf) * 4
		if checksum(frame[14:14+ihl]) != 0 {
			return false
		}
		dec := Decode(frame)
		ip := dec.IPv4Layer()
		u, ok := dec.Layer(LayerTypeUDP).(*UDP)
		if !ok || ip.Dst != addr || u.SrcPort != port {
			return false
		}
		seg := frame[14+ihl:]
		sum := ip.pseudoHeaderChecksum(IPProtoUDP, len(seg))
		return finishChecksum(sumBytes(sum, seg)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
