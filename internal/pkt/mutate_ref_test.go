package pkt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// The rewriters as they were before they read Parse's offsets: a
// hand-written offset walk (legacyLocate) feeding the Set* bodies. The
// bodies are kept verbatim, parameterised on the walk, so one body runs on
// two oracles: legacyLocate itself, and decodeLocate, the same offsets read
// off Decode's layers. SetNWAddr and SetTPPort must match
// decodeLocate on every input, and legacyLocate on every input except the
// malformed frames where the old walk saw a header Decode rejects (see
// locateDisagreement).

type legacyOffsets struct {
	ip    int // offset of IPv4 header, -1 when not IP
	ihl   int
	proto IPProtocol
	trans int // offset of transport header, -1 when absent/fragment
}

type locator func(frame []byte) (legacyOffsets, error)

func legacyLocate(frame []byte) (legacyOffsets, error) {
	off := legacyOffsets{ip: -1, trans: -1}
	if len(frame) < 14 {
		return off, errTooShort
	}
	et := EtherType(binary.BigEndian.Uint16(frame[12:14]))
	l3 := 14
	if et == EtherTypeVLAN {
		if len(frame) < 18 {
			return off, errTooShort
		}
		et = EtherType(binary.BigEndian.Uint16(frame[16:18]))
		l3 = 18
	}
	if et != EtherTypeIPv4 {
		return off, nil
	}
	if len(frame) < l3+20 {
		return off, errTooShort
	}
	off.ip = l3
	off.ihl = int(frame[l3]&0xf) * 4
	if off.ihl < 20 || len(frame) < l3+off.ihl {
		return off, fmt.Errorf("pkt: bad IHL")
	}
	off.proto = IPProtocol(frame[l3+9])
	fragOff := binary.BigEndian.Uint16(frame[l3+6:l3+8]) & 0x1fff
	if fragOff == 0 && (off.proto == IPProtoUDP || off.proto == IPProtoTCP) {
		t := l3 + off.ihl
		need := 8
		if off.proto == IPProtoTCP {
			need = 20
		}
		if len(frame) >= t+need {
			off.trans = t
		}
	}
	return off, nil
}

// decodeLocate is legacyLocate's answer read off Decode's layer stack.
func decodeLocate(frame []byte) (legacyOffsets, error) {
	off := legacyOffsets{ip: -1, trans: -1}
	dec := Decode(frame)
	if dec.Ethernet() == nil {
		return off, errTooShort
	}
	ip := dec.IPv4Layer()
	if ip == nil {
		return off, nil
	}
	off.ip = 14
	if dec.Layer(LayerTypeVLAN) != nil {
		off.ip = 18
	}
	off.ihl = 20 + len(ip.Options)
	off.proto = ip.Protocol
	if dec.Layer(LayerTypeUDP) != nil || dec.Layer(LayerTypeTCP) != nil {
		off.trans = off.ip + off.ihl
	}
	return off, nil
}

func legacySetNWAddr(locate locator, frame []byte, dst bool, addr netip.Addr) error {
	if !addr.Is4() {
		return fmt.Errorf("pkt: SetNWAddr wants an IPv4 address")
	}
	off, err := locate(frame)
	if err != nil {
		return err
	}
	if off.ip < 0 {
		return fmt.Errorf("pkt: frame is not IPv4")
	}
	fieldOff := off.ip + 12
	if dst {
		fieldOff = off.ip + 16
	}
	na := addr.As4()
	for i := 0; i < 4; i += 2 {
		old := binary.BigEndian.Uint16(frame[fieldOff+i : fieldOff+i+2])
		new_ := binary.BigEndian.Uint16(na[i : i+2])
		// IP header checksum.
		ipcs := binary.BigEndian.Uint16(frame[off.ip+10 : off.ip+12])
		binary.BigEndian.PutUint16(frame[off.ip+10:off.ip+12], updateChecksum16(ipcs, old, new_))
		// Transport checksum covers the pseudo-header.
		if off.trans >= 0 {
			csOff := legacyTransportChecksumOffset(off)
			if csOff > 0 {
				tcs := binary.BigEndian.Uint16(frame[csOff : csOff+2])
				if !(off.proto == IPProtoUDP && tcs == 0) { // UDP zero = no checksum
					binary.BigEndian.PutUint16(frame[csOff:csOff+2], updateChecksum16(tcs, old, new_))
				}
			}
		}
		binary.BigEndian.PutUint16(frame[fieldOff+i:fieldOff+i+2], new_)
	}
	return nil
}

func legacySetTPPort(locate locator, frame []byte, dst bool, port uint16) error {
	off, err := locate(frame)
	if err != nil {
		return err
	}
	if off.trans < 0 {
		return fmt.Errorf("pkt: frame has no rewritable transport header")
	}
	fieldOff := off.trans
	if dst {
		fieldOff += 2
	}
	old := binary.BigEndian.Uint16(frame[fieldOff : fieldOff+2])
	csOff := legacyTransportChecksumOffset(off)
	if csOff > 0 {
		tcs := binary.BigEndian.Uint16(frame[csOff : csOff+2])
		if !(off.proto == IPProtoUDP && tcs == 0) {
			binary.BigEndian.PutUint16(frame[csOff:csOff+2], updateChecksum16(tcs, old, port))
		}
	}
	binary.BigEndian.PutUint16(frame[fieldOff:fieldOff+2], port)
	return nil
}

func legacyTransportChecksumOffset(off legacyOffsets) int {
	switch off.proto {
	case IPProtoUDP:
		return off.trans + 6
	case IPProtoTCP:
		return off.trans + 16
	}
	return -1
}

var rewriteAddr = netip.MustParseAddr("192.0.2.77")

// rewrites are the rewriter calls under test, each with its reference body.
var rewrites = []struct {
	name string
	run  func(frame []byte) error
	ref  func(locate locator, frame []byte) error
}{
	{"SetNWAddr dst",
		func(f []byte) error { return SetNWAddr(f, true, rewriteAddr) },
		func(l locator, f []byte) error { return legacySetNWAddr(l, f, true, rewriteAddr) }},
	{"SetNWAddr src",
		func(f []byte) error { return SetNWAddr(f, false, rewriteAddr) },
		func(l locator, f []byte) error { return legacySetNWAddr(l, f, false, rewriteAddr) }},
	{"SetTPPort dst",
		func(f []byte) error { return SetTPPort(f, true, 4242) },
		func(l locator, f []byte) error { return legacySetTPPort(l, f, true, 4242) }},
	{"SetTPPort src",
		func(f []byte) error { return SetTPPort(f, false, 4242) },
		func(l locator, f []byte) error { return legacySetTPPort(l, f, false, 4242) }},
}

// The malformed frames on which the old walk and Decode see different
// headers. The rewriters follow Decode: they do not rewrite a header it
// rejects.
const (
	// An IPv4 EtherType whose header has a version other than 4, or a
	// total length past the end of the frame.
	malformedIPv4 = "IPv4 header Decode rejects"
	// A UDP or TCP header that fits in the frame but not in the IPv4
	// total length (it lies in Ethernet padding), or a TCP data offset
	// below five words or past the end of the segment.
	malformedL4 = "UDP/TCP header Decode rejects"
)

// locateDisagreement names the class of frame on which legacyLocate finds
// a header Decode rejects, or "" when both find the same headers.
func locateDisagreement(frame []byte) string {
	old, err := legacyLocate(frame)
	dec, _ := decodeLocate(frame)
	switch {
	case err != nil:
		return ""
	case old.ip >= 0 && dec.ip < 0:
		return malformedIPv4
	case old.trans >= 0 && dec.trans < 0:
		return malformedL4
	}
	return ""
}

// checkRewrites runs every rewriter on a copy of frame and fails unless it
// gives decodeLocate's bytes and error/no-error outcome, and legacyLocate's
// too unless the frame is of a documented malformed class. seen counts
// each rewriter's successes and each class met.
func checkRewrites(t testing.TB, frame []byte, seen map[string]int) {
	t.Helper()
	for _, rw := range rewrites {
		got := bytes.Clone(frame)
		gotErr := rw.run(got)
		want := bytes.Clone(frame)
		if wantErr := rw.ref(decodeLocate, want); !bytes.Equal(got, want) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s on %x:\n got %x (err %v)\nwant %x (err %v)", rw.name, frame, got, gotErr, want, wantErr)
		}
		old := bytes.Clone(frame)
		oldErr := rw.ref(legacyLocate, old)
		if bytes.Equal(got, old) && (gotErr == nil) == (oldErr == nil) {
			if gotErr == nil {
				seen[rw.name]++
			}
			continue
		}
		class := locateDisagreement(frame)
		if class == "" {
			t.Fatalf("%s on %x:\n got %x (err %v)\nlocate reference %x (err %v)", rw.name, frame, got, gotErr, old, oldErr)
		}
		seen[class]++
	}
}

// rewriteSeeds are one frame per path through the rewriters, plus one of
// each malformed class; testdata/fuzz/FuzzRewriters holds the same set.
func rewriteSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	must := func(f []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	udp := must(BuildUDP(mac1, mac2, ip1, ip2, 5000, 53, []byte("payload")))
	tcp := must(buildTCP(mac1, mac2, ip1, ip2, 4000, 80, TCPSyn, 7, nil))
	frag := bytes.Clone(udp)
	frag[14+6], frag[14+7] = 0x00, 0x10 // fragment offset 16
	version6 := bytes.Clone(udp)
	version6[14] = 0x65
	longTotal := bytes.Clone(udp)
	binary.BigEndian.PutUint16(longTotal[16:18], uint16(len(udp)-14+1))
	padded := bytes.Clone(udp) // the UDP header is now Ethernet padding
	binary.BigEndian.PutUint16(padded[16:18], 20)
	tcpOff4 := bytes.Clone(tcp)
	tcpOff4[14+20+12] = 0x40 // data offset 4 words
	return map[string][]byte{
		"udp":       udp,
		"tcp":       tcp,
		"vlan-tcp":  must(PushVLAN(tcp, 0x123)),
		"icmp":      must(BuildICMPEcho(mac1, mac2, ip1, ip2, ICMPEchoRequest, 9, 3, []byte("ping"))),
		"arp":       must(buildARPRequest(mac1, ip1, ip2)),
		"fragment":  frag,
		"short13":   udp[:13],
		"version6":  version6,
		"longTotal": longTotal,
		"padded":    padded,
		"tcpOff4":   tcpOff4,
	}
}

// steer rewrites the bytes the walks branch on — EtherType, the VLAN's
// inner type, version/IHL, protocol, fragment offset, total length, the
// L4 length fields — then sometimes truncates, so random frames reach every
// branch rather than dying at the first header.
func steer(rng *rand.Rand, frame []byte) []byte {
	f := bytes.Clone(frame)
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

// TestRewritersMatchLocateReference is the behaviour-parity check of the
// rewriters on Parse's offsets: over 64k steered random frames each gives
// the old walk's bytes and error/no-error outcome, except on the two
// malformed classes, where it gives Decode's. Every rewriter must succeed
// and every class must turn up, or the frames steered nowhere.
func TestRewritersMatchLocateReference(t *testing.T) {
	seeds := rewriteSeeds(t)
	var frames [][]byte
	for _, name := range []string{"udp", "tcp", "vlan-tcp", "icmp", "arp", "fragment"} {
		frames = append(frames, seeds[name])
	}
	vlanUDP, _ := PushVLAN(seeds["udp"], 7)
	frames = append(frames, vlanUDP)
	rng := rand.New(rand.NewSource(27))
	seen := map[string]int{}
	for i := 0; i < 1<<16; i++ {
		checkRewrites(t, steer(rng, frames[rng.Intn(len(frames))]), seen)
	}
	for _, rw := range rewrites {
		if seen[rw.name] == 0 {
			t.Errorf("%s never succeeded", rw.name)
		}
	}
	for _, class := range []string{malformedIPv4, malformedL4} {
		if seen[class] == 0 {
			t.Errorf("no frame of class %q", class)
		}
	}
	t.Logf("%v", seen)
}

// TestRewritersFollowDecodeOnMalformedFrames pins the frames where the old
// walk and Decode disagreed: a header Decode rejects is not rewritten,
// where the old walk rewrote it.
func TestRewritersFollowDecodeOnMalformedFrames(t *testing.T) {
	seeds := rewriteSeeds(t)
	for _, tc := range []struct {
		seed, class string
		rewriter    func([]byte) error
	}{
		{"version6", malformedIPv4, func(f []byte) error { return SetNWAddr(f, false, rewriteAddr) }},
		{"longTotal", malformedIPv4, func(f []byte) error { return SetNWAddr(f, true, rewriteAddr) }},
		{"padded", malformedL4, func(f []byte) error { return SetTPPort(f, true, 4242) }},
		{"tcpOff4", malformedL4, func(f []byte) error { return SetTPPort(f, false, 4242) }},
	} {
		frame := seeds[tc.seed]
		if got := locateDisagreement(frame); got != tc.class {
			t.Errorf("%s: class %q, want %q", tc.seed, got, tc.class)
		}
		got := bytes.Clone(frame)
		if err := tc.rewriter(got); err == nil || !bytes.Equal(got, frame) {
			t.Errorf("%s: rewrote a header Decode rejects (err %v)", tc.seed, err)
		}
	}
	// The address still rewrites; the bytes the old walk took for a UDP
	// checksum, past the IPv4 total length, stay as they were.
	padded := bytes.Clone(seeds["padded"])
	if err := SetNWAddr(padded, true, rewriteAddr); err != nil {
		t.Fatal(err)
	}
	if h, _ := Parse(padded); h.NWDst != rewriteAddr || h.L4 != 0 {
		t.Errorf("padded frame after SetNWAddr: %+v", h)
	}
	if !bytes.Equal(padded[34:], seeds["padded"][34:]) {
		t.Error("SetNWAddr touched bytes past the IPv4 total length")
	}
}

func FuzzRewriters(f *testing.F) {
	for _, frame := range rewriteSeeds(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) { checkRewrites(t, frame, map[string]int{}) })
}
