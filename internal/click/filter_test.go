package click

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"escape/internal/pkt"
)

// The tests below check Click's IPClassifier expression language as
// CompileFilter compiles it for the catalog's Firewall: expressions are
// tried in order and the first that matches wins.

var (
	tmac1 = pkt.MAC{2, 0, 0, 0, 0, 1}
	tmac2 = pkt.MAC{2, 0, 0, 0, 0, 2}
	tip1  = netip.MustParseAddr("10.0.0.1")
	tip2  = netip.MustParseAddr("10.0.0.2")
)

func udpFrame(t testing.TB, dstPort uint16, payload []byte) []byte {
	t.Helper()
	f, err := pkt.BuildUDP(tmac1, tmac2, tip1, tip2, 1000, dstPort, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// classify returns how many of frames each expression was the first to
// match; frames no expression matches are not counted.
func classify(t *testing.T, exprs []string, frames ...[]byte) []int {
	t.Helper()
	filters := make([]FrameFilter, len(exprs))
	for i, e := range exprs {
		f, err := CompileFilter(e)
		if err != nil {
			t.Fatalf("%q: %v", e, err)
		}
		filters[i] = f
	}
	counts := make([]int, len(exprs))
	for _, frame := range frames {
		h, _ := pkt.Parse(frame)
		for i, f := range filters {
			if f(&h) {
				counts[i]++
				break
			}
		}
	}
	return counts
}

func TestIPClassifierExpressions(t *testing.T) {
	tcpF, _ := buildTCP(tmac1, tmac2, tip1, tip2, 1, 80, pkt.TCPSyn, 0, nil)
	got := classify(t, []string{"dst port 53", "udp", "-"},
		udpFrame(t, 53, nil), udpFrame(t, 99, nil), tcpF)
	if got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("dns, udp, rest = %v, want [1 1 1]", got)
	}
}

func TestIPClassifierHostAndOr(t *testing.T) {
	icmpF, _ := pkt.BuildICMPEcho(tmac1, tmac2, tip1, tip2, pkt.ICMPEchoRequest, 1, 1, nil)
	arpF, _ := arpRequest(tmac1, tip1, tip2)
	tcpF, _ := buildTCP(tmac1, tmac2, tip2, tip1, 1, 2, 0, 0, nil) // src host is 10.0.0.2
	got := classify(t, []string{"src host 10.0.0.1 and udp", "icmp or arp", "-"},
		udpFrame(t, 1, nil), icmpF, arpF, tcpF)
	if got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("a, b, z = %v, want [1 2 1]", got)
	}
}

func TestIPClassifierBadExpr(t *testing.T) {
	for _, e := range []string{"frobnicate", "port xyz", "src", "host", "ip proto gre", "port 70000"} {
		if _, err := CompileFilter(e); err == nil {
			t.Errorf("expression %q accepted", e)
		}
	}
}

// buildTCP builds an Ethernet/IPv4/TCP frame; the TCP checksum is left
// zero.
func buildTCP(srcMAC, dstMAC pkt.MAC, src, dst netip.Addr, srcPort, dstPort uint16, flags uint8, seq uint32, payload []byte) ([]byte, error) {
	tcp := make([]byte, 20, 20+len(payload))
	binary.BigEndian.PutUint16(tcp[0:], srcPort)
	binary.BigEndian.PutUint16(tcp[2:], dstPort)
	binary.BigEndian.PutUint32(tcp[4:], seq)
	tcp[12] = 5 << 4 // data offset: five words
	tcp[13] = flags
	binary.BigEndian.PutUint16(tcp[14:], 65535)
	return pkt.SerializeLayers(
		&pkt.Ethernet{Src: srcMAC, Dst: dstMAC, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: src, Dst: dst},
		pkt.Raw(append(tcp, payload...)),
	)
}

// arpRequest builds a broadcast who-has query.
func arpRequest(srcMAC pkt.MAC, srcIP, targetIP netip.Addr) ([]byte, error) {
	return pkt.SerializeLayers(
		&pkt.Ethernet{Src: srcMAC, Dst: pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderMAC: srcMAC, SenderIP: srcIP, TargetIP: targetIP},
	)
}
