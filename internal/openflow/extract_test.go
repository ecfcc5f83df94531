package openflow

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"escape/internal/pkt"
)

// extractFieldsRef is ExtractFields as it was when it called pkt.Decode,
// with the header offsets read off the decoded layers: the oracle the
// allocation-free walk in pkt.Parse must agree with on every input.
func extractFieldsRef(frame []byte, inPort uint16) (PacketFields, error) {
	f := PacketFields{InPort: inPort}
	f.DLVLAN = VLANNone
	dec := pkt.Decode(frame)
	eth := dec.Ethernet()
	if eth == nil {
		return f, fmt.Errorf("openflow: frame has no Ethernet header")
	}
	f.DLSrc = eth.Src
	f.DLDst = eth.Dst
	f.DLType = uint16(eth.EtherType)
	l3 := uint16(14)
	if v, ok := dec.Layer(pkt.LayerTypeVLAN).(*pkt.VLAN); ok {
		f.DLVLAN = v.ID
		f.VLANPCP = v.Priority
		f.DLType = uint16(v.EtherType)
		l3 = 18
	}
	if ip := dec.IPv4Layer(); ip != nil {
		f.NWTOS = ip.TOS
		f.NWProto = uint8(ip.Protocol)
		f.NWSrc = ip.Src
		f.NWDst = ip.Dst
		f.L3 = l3
		l4 := l3 + 20 + uint16(len(ip.Options))
		// The transport ports; ICMP echo ident and seq stand in for them.
		if u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP); ok {
			f.TPSrc, f.TPDst, f.L4 = u.SrcPort, u.DstPort, l4
		} else if tc, ok := dec.Layer(pkt.LayerTypeTCP).(*pkt.TCP); ok {
			f.TPSrc, f.TPDst, f.L4 = tc.SrcPort, tc.DstPort, l4
		} else if ic, ok := dec.Layer(pkt.LayerTypeICMP).(*pkt.ICMP); ok {
			f.TPSrc, f.TPDst, f.L4 = ic.Ident, ic.Seq, l4
		}
	} else if a, ok := dec.Layer(pkt.LayerTypeARP).(*pkt.ARP); ok {
		f.NWProto = uint8(a.Op)
		f.NWSrc = a.SenderIP
		f.NWDst = a.TargetIP
	}
	return f, nil
}

// checkAgainstRef fails unless both extractors return the same fields and
// agree on whether the frame is an error.
func checkAgainstRef(t *testing.T, frame []byte, inPort uint16) {
	t.Helper()
	want, wantErr := extractFieldsRef(frame, inPort)
	got, gotErr := ExtractFields(frame, inPort)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("frame %x: err = %v, reference err = %v", frame, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("frame %x:\n got %+v\nwant %+v", frame, got, want)
	}
}

// extractSeeds are well-formed and malformed frames, one per branch of the
// walk; testdata/fuzz/FuzzExtractFields holds the same set.
func extractSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	src, dst := pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2}
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	must := func(f []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	udp := must(pkt.BuildUDP(src, dst, a, b, 5000, 53, []byte("payload")))
	tcp := must(pkt.BuildTCP(src, dst, a, b, 4000, 80, pkt.TCPSyn, 7, nil))
	ihl4 := append([]byte(nil), udp...)
	ihl4[14] = 0x44
	frag := append([]byte(nil), udp...)
	frag[14+6], frag[14+7] = 0x00, 0x10 // fragment offset 16
	vlan := must(pkt.PushVLAN(tcp, 0x123))
	vlan[14] |= 0x60 // PCP 3
	return map[string][]byte{
		"udp":      udp,
		"tcp":      tcp,
		"icmp":     must(pkt.BuildICMPEcho(src, dst, a, b, pkt.ICMPEchoRequest, 9, 3, []byte("ping"))),
		"arp":      must(pkt.BuildARPRequest(src, a, b)),
		"vlan":     vlan,
		"short13":  udp[:13],
		"ihl4":     ihl4,
		"fragment": frag,
	}
}

// The seeds themselves are compared with the reference by go test running
// FuzzExtractFields over them; this pins the tagged frame's values.
func TestExtractFieldsVLANTagged(t *testing.T) {
	vlan, err := ExtractFields(extractSeeds(t)["vlan"], 1)
	if err != nil || vlan.DLVLAN != 0x123 || vlan.VLANPCP != 3 || vlan.DLType != 0x0800 || vlan.NWProto != 6 || vlan.TPDst != 80 {
		t.Errorf("vlan+tcp fields = %+v, %v", vlan, err)
	}
}

// steer rewrites the bytes the walk branches on — EtherType, the VLAN's
// inner type, version/IHL, protocol, fragment offset, total length, the
// L4 length fields — then sometimes truncates, so random frames reach every
// branch rather than dying at the first header.
func steer(rng *rand.Rand, frame []byte) []byte {
	f := append([]byte(nil), frame...)
	put16 := func(off int, v uint16) {
		if off+1 < len(f) {
			f[off], f[off+1] = byte(v>>8), byte(v)
		}
	}
	pick16 := func(vs ...uint16) uint16 {
		if rng.Intn(4) == 0 {
			return uint16(rng.Intn(1 << 16))
		}
		return vs[rng.Intn(len(vs))]
	}
	l3 := 14
	if rng.Intn(3) == 0 {
		put16(12, pick16(0x0800, 0x0806, 0x8100, 0x88b5))
	}
	if len(f) > 13 && f[12] == 0x81 && f[13] == 0x00 {
		l3 = 18
		if rng.Intn(3) == 0 {
			put16(16, pick16(0x0800, 0x0806, 0x8100))
		}
	}
	if l3 < len(f) {
		switch rng.Intn(8) {
		case 0:
			f[l3] = byte(rng.Intn(256)) // version + IHL
		case 1:
			f[l3] = 0x40 | byte(rng.Intn(16))
		case 2:
			put16(l3+2, pick16(0, 19, 20, 28, uint16(len(f)-l3), uint16(len(f)-l3+1))) // total length
		case 3:
			put16(l3+6, pick16(0, 1, 0x2000, 0x1fff)) // flags + fragment offset
		case 4:
			if l3+9 < len(f) {
				f[l3+9] = byte(pick16(1, 6, 17, 47)) // protocol
			}
		case 5:
			put16(l3+24, pick16(0, 7, 8, 0xffff)) // UDP length
		case 6:
			if l3+32 < len(f) {
				f[l3+32] = byte(rng.Intn(256)) // TCP data offset
			}
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		f[rng.Intn(len(f))] = byte(rng.Intn(256))
	}
	if rng.Intn(3) == 0 {
		f = f[:rng.Intn(len(f)+1)]
	}
	return f
}

// TestExtractFieldsMatchesDecodeReference is the behaviour-parity check of
// pkt.Parse through its OpenFlow wrapper: over a million steered random
// frames it returns the PacketFields, header offsets included, and the
// error/no-error outcome pkt.Decode led to.
func TestExtractFieldsMatchesDecodeReference(t *testing.T) {
	n := 1 << 20
	if testing.Short() || raceEnabled {
		n = 1 << 16
	}
	var seeds [][]byte
	for _, name := range []string{"udp", "tcp", "icmp", "arp", "vlan", "ihl4", "fragment"} {
		seeds = append(seeds, extractSeeds(t)[name])
	}
	vlanUDP, _ := pkt.PushVLAN(seeds[0], 7)
	vlanARP, _ := pkt.PushVLAN(seeds[3], 4094)
	seeds = append(seeds, vlanUDP, vlanARP)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < n; i++ {
		checkAgainstRef(t, steer(rng, seeds[rng.Intn(len(seeds))]), uint16(i))
	}
}

func FuzzExtractFields(f *testing.F) {
	for _, frame := range extractSeeds(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) { checkAgainstRef(t, frame, 1) })
}

// TestExtractFieldsAllocatesNothing pins the per-frame cost the datapath
// pays once per switch traversal.
func TestExtractFieldsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, name := range []string{"udp", "vlan"} {
		frame := extractSeeds(t)[name]
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ExtractFields(frame, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: ExtractFields allocates %v objects per frame, want 0", name, n)
		}
	}
}
