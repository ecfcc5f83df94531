package pkt

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	mac1 = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	mac2 = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	ip1  = netip.MustParseAddr("10.0.0.1")
	ip2  = netip.MustParseAddr("10.0.0.2")
)

func TestMACString(t *testing.T) {
	if got := mac1.String(); got != "02:00:00:00:00:01" {
		t.Errorf("MAC.String() = %q", got)
	}
}

func TestParseMACRoundTrip(t *testing.T) {
	m, err := ParseMAC("de:ad:be:ef:00:2a")
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "de:ad:be:ef:00:2a" {
		t.Errorf("round trip = %s", m)
	}
}

func TestParseMACInvalid(t *testing.T) {
	for _, s := range []string{"", "gg:00:00:00:00:00", "01:02:03"} {
		if _, err := ParseMAC(s); err == nil {
			t.Errorf("ParseMAC(%q) succeeded, want error", s)
		}
	}
}

func TestNthMACDeterministicUnique(t *testing.T) {
	seen := map[MAC]bool{}
	for i := uint32(0); i < 1000; i++ {
		m := NthMAC(i)
		if m.IsMulticast() {
			t.Fatalf("NthMAC(%d) = %s is multicast", i, m)
		}
		if seen[m] {
			t.Fatalf("NthMAC(%d) = %s repeats", i, m)
		}
		seen[m] = true
		if m != NthMAC(i) {
			t.Fatalf("NthMAC(%d) not deterministic", i)
		}
	}
}

func TestBroadcastDetect(t *testing.T) {
	if !BroadcastMAC.IsBroadcast() || !BroadcastMAC.IsMulticast() {
		t.Error("BroadcastMAC misclassified")
	}
	if mac1.IsBroadcast() {
		t.Error("unicast MAC classified broadcast")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	frame, err := BuildUDP(mac1, mac2, ip1, ip2, 4000, 5000, []byte("hello escape"))
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(frame)
	if p.DecodeError != nil {
		t.Fatalf("decode: %v", p.DecodeError)
	}
	eth := p.Ethernet()
	if eth == nil || eth.Src != mac1 || eth.Dst != mac2 {
		t.Fatalf("ethernet = %+v", eth)
	}
	ip := p.IPv4Layer()
	if ip == nil || ip.Src != ip1 || ip.Dst != ip2 || ip.Protocol != IPProtoUDP {
		t.Fatalf("ip = %+v", ip)
	}
	u, ok := p.Layer(LayerTypeUDP).(*UDP)
	if !ok || u.SrcPort != 4000 || u.DstPort != 5000 {
		t.Fatalf("udp = %+v", u)
	}
	if string(u.Payload()) != "hello escape" {
		t.Fatalf("payload = %q", u.Payload())
	}
}

func TestTCPRoundTrip(t *testing.T) {
	frame, err := BuildTCP(mac1, mac2, ip1, ip2, 1234, 80, TCPSyn|TCPAck, 42, []byte("GET /"))
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(frame)
	tcp, ok := p.Layer(LayerTypeTCP).(*TCP)
	if !ok {
		t.Fatalf("no TCP layer: %s", p)
	}
	if tcp.SrcPort != 1234 || tcp.DstPort != 80 || tcp.Seq != 42 {
		t.Fatalf("tcp = %+v", tcp)
	}
	if tcp.Flags&TCPSyn == 0 || tcp.Flags&TCPAck == 0 {
		t.Fatalf("flags = %s", tcp.FlagString())
	}
	if string(tcp.Payload()) != "GET /" {
		t.Fatalf("payload = %q", tcp.Payload())
	}
}

func TestICMPEchoRoundTripAndChecksum(t *testing.T) {
	frame, err := BuildICMPEcho(mac1, mac2, ip1, ip2, ICMPEchoRequest, 7, 3, []byte("pingpayload"))
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(frame)
	ic, ok := p.Layer(LayerTypeICMP).(*ICMP)
	if !ok {
		t.Fatalf("no ICMP layer: %s", p)
	}
	if ic.Type != ICMPEchoRequest || ic.Ident != 7 || ic.Seq != 3 {
		t.Fatalf("icmp = %+v", ic)
	}
	if !ic.VerifyChecksum() {
		t.Error("checksum does not verify")
	}
	// Corrupt one payload byte: checksum must fail.
	frame[len(frame)-1] ^= 0xff
	p2 := Decode(frame)
	ic2 := p2.Layer(LayerTypeICMP).(*ICMP)
	if ic2.VerifyChecksum() {
		t.Error("checksum verified after corruption")
	}
}

func TestARPRoundTrip(t *testing.T) {
	frame, err := BuildARPRequest(mac1, ip1, ip2)
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(frame)
	a, ok := p.Layer(LayerTypeARP).(*ARP)
	if !ok {
		t.Fatalf("no ARP layer: %s", p)
	}
	if a.Op != ARPRequest || a.SenderIP != ip1 || a.TargetIP != ip2 || a.SenderMAC != mac1 {
		t.Fatalf("arp = %+v", a)
	}
	reply, err := BuildARPReply(mac2, mac1, ip2, ip1)
	if err != nil {
		t.Fatal(err)
	}
	ra := Decode(reply).Layer(LayerTypeARP).(*ARP)
	if ra.Op != ARPReply || ra.SenderMAC != mac2 {
		t.Fatalf("arp reply = %+v", ra)
	}
}

func TestVLANTagRoundTrip(t *testing.T) {
	ipl := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: ip1, Dst: ip2}
	udp := &UDP{SrcPort: 1, DstPort: 2}
	udp.SetNetworkLayer(ipl)
	frame, err := SerializeLayers(
		&Ethernet{Src: mac1, Dst: mac2, EtherType: EtherTypeVLAN},
		&VLAN{ID: 100, Priority: 3, EtherType: EtherTypeIPv4},
		ipl, udp, Raw("x"),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Decode(frame)
	v, ok := p.Layer(LayerTypeVLAN).(*VLAN)
	if !ok {
		t.Fatalf("no VLAN layer: %s", p)
	}
	if v.ID != 100 || v.Priority != 3 {
		t.Fatalf("vlan = %+v", v)
	}
	if p.IPv4Layer() == nil {
		t.Fatal("IPv4 under VLAN not decoded")
	}
}

func TestVLANIDRange(t *testing.T) {
	v := &VLAN{ID: 5000}
	if _, err := v.SerializeTo(nil); err == nil {
		t.Error("oversized VLAN ID accepted")
	}
}

func TestPushPopVLAN(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, []byte("data"))
	tagged, err := PushVLAN(frame, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Parse(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if h.DLVLAN != 42 || h.DLType != uint16(EtherTypeIPv4) || h.L3 != 18 {
		t.Fatalf("headers after push = %+v", h)
	}
	// Re-push rewrites in place (OF 1.0 semantics).
	retag, _ := PushVLAN(tagged, 43)
	if h2, _ := Parse(retag); h2.DLVLAN != 43 {
		t.Fatalf("retag = %+v", h2)
	}
	if len(retag) != len(tagged) {
		t.Fatalf("retag changed length %d != %d", len(retag), len(tagged))
	}
	popped, err := PopVLAN(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(popped, frame) {
		t.Error("pop(push(frame)) != frame")
	}
	// Pop on untagged is identity.
	same, _ := PopVLAN(frame)
	if !bytes.Equal(same, frame) {
		t.Error("pop on untagged changed frame")
	}
}

// TestSetVLANKeepsPriority: retagging a tagged frame replaces only the
// VID (OpenFlow 1.0 SET_VLAN_VID); the PCP and DEI bits stay.
func TestSetVLANKeepsPriority(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, []byte("data"))
	tagged, err := SerializeLayers(
		&Ethernet{Src: mac1, Dst: mac2, EtherType: EtherTypeVLAN},
		&VLAN{Priority: 5, DropElig: true, ID: 42, EtherType: EtherTypeIPv4},
		Raw(frame[14:]),
	)
	if err != nil {
		t.Fatal(err)
	}
	retag, err := PushVLAN(tagged, 0x123)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := Decode(retag).Layer(LayerTypeVLAN).(*VLAN)
	if !ok || v.ID != 0x123 || v.Priority != 5 || !v.DropElig {
		t.Fatalf("retagged frame carries %+v, want VID 0x123, PCP 5, DEI set", v)
	}
}

// TestVLANPushPopInPlace pins the append-like contract: with tag room in
// its capacity a frame is tagged and untagged in its own buffer, however
// often, and a pop keeps the buffer's front so the next push fits again.
func TestVLANPushPopInPlace(t *testing.T) {
	orig, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, make([]byte, 1400))
	frame := append(make([]byte, 0, len(orig)+4), orig...)
	for i := 0; i < 3; i++ {
		tagged, err := PushVLAN(frame, uint16(10+i))
		if err != nil {
			t.Fatal(err)
		}
		if &tagged[0] != &frame[0] || len(tagged) != len(orig)+4 {
			t.Fatalf("round %d: push moved the frame or grew it to %d bytes", i, len(tagged))
		}
		if h, _ := Parse(tagged); h.DLVLAN != uint16(10+i) || h.L3 != 18 {
			t.Fatalf("round %d: tagged headers %+v", i, h)
		}
		popped, err := PopVLAN(tagged)
		if err != nil {
			t.Fatal(err)
		}
		if &popped[0] != &frame[0] || cap(popped) != cap(frame) || !bytes.Equal(popped, orig) {
			t.Fatalf("round %d: pop gave %d/%d bytes in another place or changed them", i, len(popped), cap(popped))
		}
		frame = popped
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		tagged, _ := PushVLAN(frame, 7)
		frame, _ = PopVLAN(tagged)
	}); n != 0 {
		t.Errorf("a tag push and pop cost %v allocations, want 0", n)
	}
}

// TestPushVLANWithoutRoomCopies: a frame with no spare capacity is tagged
// in a fresh buffer, as append grows, and the original stays as it was.
func TestPushVLANWithoutRoomCopies(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, []byte("data"))
	frame = frame[:len(frame):len(frame)]
	orig := append([]byte(nil), frame...)
	tagged, err := PushVLAN(frame, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, orig) {
		t.Error("push into a full buffer changed the original")
	}
	if h, _ := Parse(tagged); h.DLVLAN != 9 {
		t.Errorf("tagged headers %+v", h)
	}
	for _, short := range [][]byte{orig[:13], {0: 0, 12: 0x81, 13: 0x00}} {
		if _, err := PushVLAN(short, 1); err == nil {
			t.Errorf("push on a %d-byte frame succeeded", len(short))
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, []byte("0123456789"))
	for _, cut := range []int{1, 10, 15, 22, 35} {
		if cut >= len(frame) {
			continue
		}
		p := Decode(frame[:cut])
		if p == nil {
			t.Fatalf("Decode returned nil at cut %d", cut)
		}
		if cut < 14 && p.DecodeError == nil {
			t.Errorf("cut=%d: want decode error", cut)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	p := Decode([]byte{0x01, 0x02})
	if p.DecodeError == nil {
		t.Error("garbage decoded without error")
	}
	if len(p.Layers()) != 0 {
		t.Errorf("layers = %d, want 0", len(p.Layers()))
	}
}

func TestHeadersFiveTuple(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 4000, 5000, nil)
	h, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	ft, ok := h.FiveTuple()
	want := FiveTuple{Proto: IPProtoUDP, Src: ip1, Dst: ip2, SrcPort: 4000, DstPort: 5000}
	if !ok || ft != want {
		t.Fatalf("tuple = %v, %v; want %v", ft, ok, want)
	}
}

// An ARP frame's NW fields hold its opcode and addresses: no five-tuple.
func TestFiveTupleNonIP(t *testing.T) {
	frame, _ := BuildARPRequest(mac1, ip1, ip2)
	h, err := Parse(frame)
	if err != nil || h.NWProto != uint8(ARPRequest) || h.NWSrc != ip1 {
		t.Fatalf("arp headers = %+v, %v", h, err)
	}
	if _, ok := h.FiveTuple(); ok {
		t.Error("five-tuple from ARP frame")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d (ones
	// complement of 0xddf2).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestIPv4ChecksumSelfConsistent(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: ip1, Dst: ip2}
	hdr, err := ip.SerializeTo(make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	// A correct IPv4 header checksums to zero when summed whole.
	if got := Checksum(hdr); got != 0 {
		t.Errorf("header checksum residue = %#04x, want 0", got)
	}
}

func TestPacketString(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 4000, 5000, []byte("x"))
	s := Decode(frame).String()
	for _, want := range []string{"Ethernet", "IPv4", "UDP", "4000>5000"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: any (ports, payload) round-trips through serialize+decode.
func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame, err := BuildUDP(mac1, mac2, ip1, ip2, sp, dp, payload)
		if err != nil {
			return false
		}
		p := Decode(frame)
		u, ok := p.Layer(LayerTypeUDP).(*UDP)
		if !ok {
			return false
		}
		return u.SrcPort == sp && u.DstPort == dp && bytes.Equal(u.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PushVLAN then PopVLAN is identity for valid IDs.
func TestQuickVLANPushPop(t *testing.T) {
	f := func(id uint16, payload []byte) bool {
		id = id % 4095
		frame, err := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, payload)
		if err != nil {
			return false
		}
		tagged, err := PushVLAN(frame, id)
		if err != nil {
			return false
		}
		h, err := Parse(tagged)
		if err != nil || h.DLVLAN != id {
			return false
		}
		popped, err := PopVLAN(tagged)
		return err == nil && bytes.Equal(popped, frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics and never fabricates
// layers beyond the data.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		p := Decode(data)
		return p != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Internet checksum of data with its own checksum appended is 0.
func TestQuickChecksumResidue(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		cs := Checksum(data)
		whole := append(append([]byte{}, data...), byte(cs>>8), byte(cs))
		return Checksum(whole) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseUntagged(t *testing.T) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 1, 2, nil)
	h, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.DLVLAN != VLANNone || h.DLType != uint16(EtherTypeIPv4) || h.DLSrc != mac1 || h.L3 != 14 || h.L4 != 34 {
		t.Fatalf("headers = %+v", h)
	}
}

// TestParseAllocatesNothing pins the per-frame cost every switch traversal
// and every filtering VNF pays.
func TestParseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	udp, _ := BuildUDP(mac1, mac2, ip1, ip2, 4000, 5000, make([]byte, 64))
	tagged, _ := PushVLAN(udp, 7)
	arp, _ := BuildARPRequest(mac1, ip1, ip2)
	for name, frame := range map[string][]byte{"udp": udp, "vlan": tagged, "arp": arp} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Parse(frame); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Parse allocates %v objects per frame, want 0", name, n)
		}
	}
}

func TestSerializeLayersEmpty(t *testing.T) {
	if _, err := SerializeLayers(); err == nil {
		t.Error("SerializeLayers() with no layers succeeded")
	}
}

func TestIPv4RejectsNonV4(t *testing.T) {
	ip := &IPv4{Src: netip.MustParseAddr("::1"), Dst: ip2}
	if _, err := ip.SerializeTo(nil); err == nil {
		t.Error("IPv6 address accepted by IPv4 layer")
	}
}

func BenchmarkDecodeUDP(b *testing.B) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 4000, 5000, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decode(frame)
	}
}

func BenchmarkParse(b *testing.B) {
	frame, _ := BuildUDP(mac1, mac2, ip1, ip2, 4000, 5000, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(frame); err != nil {
			b.Fatal(err)
		}
	}
}
