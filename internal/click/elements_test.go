package click

import (
	"bytes"
	"net/netip"
	"strconv"
	"testing"
	"testing/quick"

	"escape/internal/pkt"
)

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

func mustRouter(t testing.TB, config string) *Router {
	t.Helper()
	r, err := NewRouter("t", config, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func counterCount(t testing.TB, r *Router, name string) int {
	t.Helper()
	v, err := r.ReadHandler(name + ".count")
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestClassifierARPvsIP(t *testing.T) {
	r := mustRouter(t, `
		c :: Classifier(12/0806, 12/0800, -);
		arp :: Counter; ip :: Counter; other :: Counter;
		c[0] -> arp -> Discard;
		c[1] -> ip -> Discard;
		c[2] -> other -> Discard;
	`)
	arpF, _ := pkt.BuildARPRequest(tmac1, tip1, tip2)
	r.InjectPush("c", 0, NewPacket(arpF))
	r.InjectPush("c", 0, NewPacket(udpFrame(t, 53, nil)))
	r.InjectPush("c", 0, NewPacket(udpFrame(t, 80, nil)))
	weird := make([]byte, 20) // ethertype 0
	r.InjectPush("c", 0, NewPacket(weird))
	if n := counterCount(t, r, "arp"); n != 1 {
		t.Errorf("arp = %d", n)
	}
	if n := counterCount(t, r, "ip"); n != 2 {
		t.Errorf("ip = %d", n)
	}
	if n := counterCount(t, r, "other"); n != 1 {
		t.Errorf("other = %d", n)
	}
}

func TestClassifierWildcardNibble(t *testing.T) {
	// Match any ethertype 0x08?? via '?' wildcard on second nibble byte.
	r := mustRouter(t, `
		c :: Classifier(12/08??, -);
		hit :: Counter; miss :: Counter;
		c[0] -> hit -> Discard;
		c[1] -> miss -> Discard;
	`)
	r.InjectPush("c", 0, NewPacket(udpFrame(t, 1, nil))) // 0x0800
	arpF, _ := pkt.BuildARPRequest(tmac1, tip1, tip2)    // 0x0806
	r.InjectPush("c", 0, NewPacket(arpF))                //
	r.InjectPush("c", 0, NewPacket(make([]byte, 20)))    // 0x0000
	if n := counterCount(t, r, "hit"); n != 2 {
		t.Errorf("hit = %d", n)
	}
	if n := counterCount(t, r, "miss"); n != 1 {
		t.Errorf("miss = %d", n)
	}
}

func TestClassifierNoMatchDrops(t *testing.T) {
	r := mustRouter(t, `
		c :: Classifier(12/0806);
		c -> Discard;
	`)
	r.InjectPush("c", 0, NewPacket(udpFrame(t, 1, nil)))
	v, _ := r.ReadHandler("c.drops")
	if v != "1" {
		t.Errorf("drops = %s", v)
	}
}

func TestClassifierBadPatterns(t *testing.T) {
	for _, pat := range []string{"nope", "x/08", "12/0", "12/08%ff00", "12/0h"} {
		if _, err := NewRouter("t", `c :: Classifier(`+pat+`); c -> Discard;`, Options{}); err == nil {
			t.Errorf("pattern %q accepted", pat)
		}
	}
}

func TestIPClassifierExpressions(t *testing.T) {
	r := mustRouter(t, `
		c :: IPClassifier(dst port 53, udp, -);
		dns :: Counter; udp :: Counter; rest :: Counter;
		c[0] -> dns -> Discard;
		c[1] -> udp -> Discard;
		c[2] -> rest -> Discard;
	`)
	r.InjectPush("c", 0, NewPacket(udpFrame(t, 53, nil)))
	r.InjectPush("c", 0, NewPacket(udpFrame(t, 99, nil)))
	tcpF, _ := pkt.BuildTCP(tmac1, tmac2, tip1, tip2, 1, 80, pkt.TCPSyn, 0, nil)
	r.InjectPush("c", 0, NewPacket(tcpF))
	if n := counterCount(t, r, "dns"); n != 1 {
		t.Errorf("dns = %d", n)
	}
	if n := counterCount(t, r, "udp"); n != 1 {
		t.Errorf("udp = %d", n)
	}
	if n := counterCount(t, r, "rest"); n != 1 {
		t.Errorf("rest = %d", n)
	}
}

func TestIPClassifierHostAndOr(t *testing.T) {
	r := mustRouter(t, `
		c :: IPClassifier(src host 10.0.0.1 and udp, icmp or arp, -);
		a :: Counter; b :: Counter; z :: Counter;
		c[0] -> a -> Discard; c[1] -> b -> Discard; c[2] -> z -> Discard;
	`)
	r.InjectPush("c", 0, NewPacket(udpFrame(t, 1, nil))) // src 10.0.0.1 udp → a
	icmpF, _ := pkt.BuildICMPEcho(tmac1, tmac2, tip1, tip2, pkt.ICMPEchoRequest, 1, 1, nil)
	r.InjectPush("c", 0, NewPacket(icmpF)) // → b
	arpF, _ := pkt.BuildARPRequest(tmac1, tip1, tip2)
	r.InjectPush("c", 0, NewPacket(arpF)) // → b
	tcpF, _ := pkt.BuildTCP(tmac1, tmac2, tip2, tip1, 1, 2, 0, 0, nil)
	r.InjectPush("c", 0, NewPacket(tcpF)) // → z (src host is 10.0.0.2)
	if n := counterCount(t, r, "a"); n != 1 {
		t.Errorf("a = %d", n)
	}
	if n := counterCount(t, r, "b"); n != 2 {
		t.Errorf("b = %d", n)
	}
	if n := counterCount(t, r, "z"); n != 1 {
		t.Errorf("z = %d", n)
	}
}

func TestIPClassifierBadExpr(t *testing.T) {
	for _, e := range []string{"frobnicate", "port xyz", "src", "host"} {
		if _, err := NewRouter("t", `c :: IPClassifier(`+e+`); c -> Discard;`, Options{}); err == nil {
			t.Errorf("expression %q accepted", e)
		}
	}
}

func TestSwitchSteering(t *testing.T) {
	r := mustRouter(t, `
		s :: Switch(2);
		a :: Counter; b :: Counter;
		s[0] -> a -> Discard;
		s[1] -> b -> Discard;
	`)
	r.InjectPush("s", 0, NewPacket(make([]byte, 20)))
	if err := r.WriteHandler("s.switch", "1"); err != nil {
		t.Fatal(err)
	}
	r.InjectPush("s", 0, NewPacket(make([]byte, 20)))
	if err := r.WriteHandler("s.switch", "-1"); err != nil {
		t.Fatal(err)
	}
	r.InjectPush("s", 0, NewPacket(make([]byte, 20))) // dropped
	if n := counterCount(t, r, "a"); n != 1 {
		t.Errorf("a = %d", n)
	}
	if n := counterCount(t, r, "b"); n != 1 {
		t.Errorf("b = %d", n)
	}
}

func TestPaintAndPaintSwitch(t *testing.T) {
	r := mustRouter(t, `
		p :: Paint(1);
		ps :: PaintSwitch(2);
		a :: Counter; b :: Counter;
		p -> ps;
		ps[0] -> a -> Discard;
		ps[1] -> b -> Discard;
	`)
	r.InjectPush("p", 0, NewPacket(make([]byte, 20)))
	if n := counterCount(t, r, "b"); n != 1 {
		t.Errorf("painted packet went to output %d", n)
	}
	if n := counterCount(t, r, "a"); n != 0 {
		t.Errorf("a = %d", n)
	}
}

func TestRoundRobinSwitch(t *testing.T) {
	r := mustRouter(t, `
		rr :: RoundRobinSwitch(3);
		a :: Counter; b :: Counter; c :: Counter;
		rr[0] -> a -> Discard; rr[1] -> b -> Discard; rr[2] -> c -> Discard;
	`)
	for i := 0; i < 9; i++ {
		r.InjectPush("rr", 0, NewPacket(make([]byte, 20)))
	}
	for _, name := range []string{"a", "b", "c"} {
		if n := counterCount(t, r, name); n != 3 {
			t.Errorf("%s = %d, want 3", name, n)
		}
	}
}

func TestHashSwitchFlowAffinity(t *testing.T) {
	r := mustRouter(t, `
		h :: HashSwitch(4);
		a :: Counter; b :: Counter; c :: Counter; d :: Counter;
		h[0] -> a -> Discard; h[1] -> b -> Discard;
		h[2] -> c -> Discard; h[3] -> d -> Discard;
	`)
	// Same flow 10 times → all on one output; symmetric for reverse flow.
	for i := 0; i < 10; i++ {
		r.InjectPush("h", 0, NewPacket(udpFrame(t, 53, nil)))
	}
	rev, _ := pkt.BuildUDP(tmac2, tmac1, tip2, tip1, 53, 1000, nil)
	for i := 0; i < 10; i++ {
		r.InjectPush("h", 0, NewPacket(rev))
	}
	nonZero := 0
	for _, name := range []string{"a", "b", "c", "d"} {
		if n := counterCount(t, r, name); n > 0 {
			nonZero++
			if n != 20 {
				t.Errorf("%s = %d, want 20 (forward+reverse on same output)", name, n)
			}
		}
	}
	if nonZero != 1 {
		t.Errorf("flow spread over %d outputs", nonZero)
	}
}

func TestTeeClones(t *testing.T) {
	r := mustRouter(t, `
		t :: Tee(3);
		a :: Counter; b :: Counter; c :: Counter;
		t[0] -> a -> Discard; t[1] -> b -> Discard; t[2] -> c -> Discard;
	`)
	r.InjectPush("t", 0, NewPacket(make([]byte, 33)))
	for _, name := range []string{"a", "b", "c"} {
		if n := counterCount(t, r, name); n != 1 {
			t.Errorf("%s = %d", name, n)
		}
	}
}

func TestRandomSampleDeterministicSeed(t *testing.T) {
	r := mustRouter(t, `
		s :: RandomSample(0.5, SEED 42);
		keep :: Counter;
		s -> keep -> Discard;
	`)
	for i := 0; i < 1000; i++ {
		r.InjectPush("s", 0, NewPacket(make([]byte, 20)))
	}
	n := counterCount(t, r, "keep")
	if n < 400 || n > 600 {
		t.Errorf("sampled = %d, want ≈500", n)
	}
	sampled, _ := r.ReadHandler("s.sampled")
	dropped, _ := r.ReadHandler("s.dropped")
	sn, _ := strconv.Atoi(sampled)
	dn, _ := strconv.Atoi(dropped)
	if sn+dn != 1000 {
		t.Errorf("sampled+dropped = %d", sn+dn)
	}
}

func TestStripUnstripRoundTrip(t *testing.T) {
	r := mustRouter(t, `
		s :: Strip(14);
		u :: Unstrip(14);
		c :: Counter;
		s -> u -> c -> Discard;
	`)
	frame := udpFrame(t, 9, []byte("abc"))
	p := NewPacket(frame)
	r.InjectPush("s", 0, p)
	if !bytes.Equal(p.Data(), frame) {
		t.Error("strip+unstrip did not round trip")
	}
}

func TestStripTooShortDrops(t *testing.T) {
	r := mustRouter(t, `
		s :: Strip(100);
		c :: Counter;
		s -> c -> Discard;
	`)
	r.InjectPush("s", 0, NewPacket(make([]byte, 20)))
	if n := counterCount(t, r, "c"); n != 0 {
		t.Errorf("short packet passed strip: %d", n)
	}
}

func TestEtherEncap(t *testing.T) {
	r := mustRouter(t, `
		e :: EtherEncap(0x0800, 02:00:00:00:00:01, 02:00:00:00:00:02);
		c :: Counter;
		e -> c -> Discard;
	`)
	p := NewPacket([]byte("payload"))
	r.InjectPush("e", 0, p)
	h, err := pkt.Parse(p.Data())
	if err != nil {
		t.Fatal(err)
	}
	if h.DLType != uint16(pkt.EtherTypeIPv4) || h.DLSrc != tmac1 || h.DLDst != tmac2 {
		t.Errorf("headers = %+v", h)
	}
	if p.Len() != 14+7 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestVLANEncapDecap(t *testing.T) {
	r := mustRouter(t, `
		enc :: VLANEncap(VLAN_ID 123);
		dec :: VLANDecap;
		c :: Counter;
		enc -> dec -> c -> Discard;
	`)
	frame := udpFrame(t, 5, []byte("z"))
	p := NewPacket(frame)
	r.InjectPush("enc", 0, p)
	if !bytes.Equal(p.Data(), frame) {
		t.Error("encap+decap did not round trip")
	}
	if n := counterCount(t, r, "c"); n != 1 {
		t.Errorf("count = %d", n)
	}
}

func TestCheckIPHeaderValidInvalid(t *testing.T) {
	r := mustRouter(t, `
		chk :: CheckIPHeader;
		c :: Counter;
		chk -> c -> Discard;
	`)
	good := udpFrame(t, 7, []byte("ok"))
	r.InjectPush("chk", 0, NewPacket(good))
	bad := append([]byte(nil), good...)
	bad[24] ^= 0xff // corrupt the IP checksum field
	r.InjectPush("chk", 0, NewPacket(bad))
	short := good[:20]
	r.InjectPush("chk", 0, NewPacket(short))
	if n := counterCount(t, r, "c"); n != 1 {
		t.Errorf("passed = %d, want 1", n)
	}
	v, _ := r.ReadHandler("chk.drops")
	if v != "2" {
		t.Errorf("drops = %s", v)
	}
}

func TestDecIPTTLChecksumStaysValid(t *testing.T) {
	r := mustRouter(t, `
		dec :: DecIPTTL;
		chk :: CheckIPHeader;
		c :: Counter;
		dec -> chk -> c -> Discard;
	`)
	p := NewPacket(udpFrame(t, 7, nil))
	r.InjectPush("dec", 0, p)
	if n := counterCount(t, r, "c"); n != 1 {
		t.Fatalf("packet with decremented TTL failed checksum check")
	}
	ip := pkt.Decode(p.Data()).IPv4Layer()
	if ip == nil || ip.TTL != 63 {
		t.Errorf("TTL = %+v", ip)
	}
}

func TestDecIPTTLExpiry(t *testing.T) {
	r := mustRouter(t, `
		dec :: DecIPTTL;
		c :: Counter;
		dec -> c -> Discard;
	`)
	frame := udpFrame(t, 7, nil)
	frame[22] = 1 // TTL byte at offset 14+8
	r.InjectPush("dec", 0, NewPacket(frame))
	if n := counterCount(t, r, "c"); n != 0 {
		t.Error("expired packet passed")
	}
	v, _ := r.ReadHandler("dec.expired")
	if v != "1" {
		t.Errorf("expired = %s", v)
	}
}

func TestStoreDataRewrites(t *testing.T) {
	r := mustRouter(t, `
		st :: StoreData(0, deadbeef);
		c :: Counter;
		st -> c -> Discard;
	`)
	p := NewPacket(make([]byte, 8))
	r.InjectPush("st", 0, p)
	if !bytes.Equal(p.Data()[:4], []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Errorf("data = %x", p.Data())
	}
}

func TestPrintWritesToWriter(t *testing.T) {
	old := PrintWriter
	var buf bytes.Buffer
	PrintWriter = &buf
	defer func() { PrintWriter = old }()
	r := mustRouter(t, `
		p :: Print("tag", MAXLENGTH 4);
		p -> Discard;
	`)
	r.InjectPush("p", 0, NewPacket([]byte{1, 2, 3, 4, 5, 6}))
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte("tag:")) {
		t.Errorf("print output = %q", out)
	}
	if !bytes.Contains([]byte(out), []byte("01020304")) || bytes.Contains([]byte(out), []byte("0102030405")) {
		t.Errorf("maxlength not honoured: %q", out)
	}
}

func TestPacketStripUnstripPrepend(t *testing.T) {
	p := NewPacket([]byte("hello world"))
	if err := p.Strip(6); err != nil {
		t.Fatal(err)
	}
	if string(p.Data()) != "world" {
		t.Errorf("data = %q", p.Data())
	}
	if err := p.Unstrip(6); err != nil {
		t.Fatal(err)
	}
	if string(p.Data()) != "hello world" {
		t.Errorf("data = %q", p.Data())
	}
	if err := p.Unstrip(1000); err == nil {
		t.Error("over-unstrip succeeded")
	}
	p.Prepend([]byte(">>"))
	if string(p.Data()) != ">>hello world" {
		t.Errorf("data = %q", p.Data())
	}
	// Large prepend exceeding headroom must still work.
	big := bytes.Repeat([]byte("x"), 100)
	p.Prepend(big)
	if p.Len() != 100+13 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestPacketCloneIndependent(t *testing.T) {
	p := NewPacket([]byte{1, 2, 3})
	p.Paint = 7
	q := p.Clone()
	q.Data()[0] = 99
	if p.Data()[0] == 99 {
		t.Error("clone shares storage")
	}
	if q.Paint != 7 {
		t.Error("clone lost annotations")
	}
}

// Property: Strip(n) then Unstrip(n) restores the original data for any
// n within bounds.
func TestQuickStripUnstrip(t *testing.T) {
	f := func(data []byte, n uint8) bool {
		p := NewPacket(data)
		k := int(n) % (len(data) + 1)
		if err := p.Strip(k); err != nil {
			return false
		}
		if err := p.Unstrip(k); err != nil {
			return false
		}
		return bytes.Equal(p.Data(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a Classifier with a catch-all pattern never drops.
func TestQuickClassifierCatchAll(t *testing.T) {
	r := mustRouter(t, `
		c :: Classifier(12/0800, -);
		a :: Counter; b :: Counter;
		c[0] -> a -> Discard; c[1] -> b -> Discard;
	`)
	total := 0
	f := func(data []byte) bool {
		r.InjectPush("c", 0, NewPacket(data))
		total++
		return counterCount(t, r, "a")+counterCount(t, r, "b") == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
