package catalog

import (
	"context"
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"escape/internal/click"
	"escape/internal/pkt"
)

var (
	cmac1 = pkt.MAC{2, 0, 0, 0, 0, 1}
	cmac2 = pkt.MAC{2, 0, 0, 0, 0, 2}
	cip1  = netip.MustParseAddr("10.0.0.1")
	cip2  = netip.MustParseAddr("10.0.0.2")
)

func TestDefaultCatalogRendersAll(t *testing.T) {
	c := Default()
	names := c.Names()
	if len(names) < 8 {
		t.Fatalf("catalog has %d types", len(names))
	}
	for _, name := range names {
		typ, err := c.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := typ.Render(nil)
		if err != nil {
			t.Fatalf("%s: render: %v", name, err)
		}
		// Every rendered config must parse and build with its declared
		// ports attached.
		devs := map[string]click.Device{}
		for _, p := range typ.Ports {
			devs[p] = newChanDevice(p, 4)
		}
		if _, err := click.NewRouter(name, cfg, click.Options{Devices: devs}); err != nil {
			t.Errorf("%s: config does not build: %v\n%s", name, err, cfg)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Default().Lookup("teleporter"); err == nil {
		t.Error("unknown type found")
	}
}

func TestRenderUnknownParam(t *testing.T) {
	typ, _ := Default().Lookup("firewall")
	if _, err := typ.Render(map[string]string{"COLOUR": "red"}); err == nil {
		t.Error("unknown parameter accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate registration")
		}
	}()
	c := newCatalog()
	c.register(&VNFType{Name: "x", render: func(map[string]string) (string, error) { return "", nil }})
	c.register(&VNFType{Name: "x", render: func(map[string]string) (string, error) { return "", nil }})
}

// runVNF builds and runs a VNF from the catalog, returning in/out devices.
func runVNF(t *testing.T, typeName string, params map[string]string) (*click.Router, *chanDevice, *chanDevice) {
	t.Helper()
	typ, err := Default().Lookup(typeName)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := typ.Render(params)
	if err != nil {
		t.Fatal(err)
	}
	in := newChanDevice("in", 64)
	out := newChanDevice("out", 64)
	devs := map[string]click.Device{"in": in, "out": out}
	for _, p := range typ.Ports {
		if p != "in" && p != "out" {
			devs[p] = newChanDevice(p, 64)
		}
	}
	r, err := click.NewRouter(typeName, cfg, click.Options{Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go r.Run(ctx)
	t.Cleanup(func() { cancel(); r.Stop() })
	return r, in, out
}

func expectOut(t *testing.T, out *chanDevice, what string) []byte {
	t.Helper()
	select {
	case f := <-out.Out:
		return f
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

func udpWith(t *testing.T, payload []byte) []byte {
	t.Helper()
	f, err := pkt.BuildUDP(cmac1, cmac2, cip1, cip2, 5000, 5001, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSimpleForwarderForwards(t *testing.T) {
	r, in, out := runVNF(t, "simpleForwarder", nil)
	frame := udpWith(t, []byte("hello"))
	in.In <- frame
	got := expectOut(t, out, "forwarded frame")
	if len(got) != len(frame) {
		t.Errorf("len = %d, want %d", len(got), len(frame))
	}
	v, err := r.ReadHandler("rx.count")
	if err != nil || v != "1" {
		t.Errorf("rx.count = %q err=%v", v, err)
	}
}

func TestCompressorDecompressorRoundTrip(t *testing.T) {
	_, cin, cout := runVNF(t, "headerCompressor", map[string]string{"REFRESH": "4"})
	_, din, dout := runVNF(t, "headerDecompressor", nil)

	payloads := []string{"pkt-one", "pkt-two", "pkt-three", "pkt-four", "pkt-five", "pkt-six"}
	for _, pl := range payloads {
		cin.In <- udpWith(t, []byte(pl))
	}
	var sawCompressed bool
	for _, pl := range payloads {
		comp := expectOut(t, cout, "compressed frame")
		if et := uint16(comp[12])<<8 | uint16(comp[13]); et == compEtherType && comp[16] == 0 {
			sawCompressed = true
			if len(comp) >= len(udpWith(t, []byte(pl))) {
				t.Errorf("compressed frame (%dB) not smaller than original", len(comp))
			}
		}
		din.In <- comp
		restored := expectOut(t, dout, "restored frame")
		dec := pkt.Decode(restored)
		u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
		if !ok {
			t.Fatalf("restored frame has no UDP: %s", dec)
		}
		if string(u.Payload()) != pl {
			t.Errorf("payload = %q, want %q", u.Payload(), pl)
		}
		ip := dec.IPv4Layer()
		if ip.Src != cip1 || ip.Dst != cip2 || u.SrcPort != 5000 || u.DstPort != 5001 {
			t.Errorf("restored headers wrong: %s", dec)
		}
	}
	if !sawCompressed {
		t.Error("no compressed (non-IR) frames observed")
	}
}

func TestDecompressorUnknownContextDrops(t *testing.T) {
	r, din, dout := runVNF(t, "headerDecompressor", nil)
	// A compressed (non-IR) frame for a context never announced.
	frame := make([]byte, 24)
	copy(frame[0:6], cmac2[:])
	copy(frame[6:12], cmac1[:])
	frame[12] = byte(compEtherType >> 8)
	frame[13] = byte(compEtherType & 0xff)
	frame[14] = byte(compMagic >> 8)
	frame[15] = byte(compMagic & 0xff)
	frame[16] = 0 // compressed, not IR
	frame[17] = 0x12
	frame[18] = 0x34
	din.In <- frame
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, _ := r.ReadHandler("decomp.unknown_context")
		if v == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unknown context not counted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case <-dout.Out:
		t.Error("frame with unknown context forwarded")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestFirewallRules(t *testing.T) {
	r, in, out := runVNF(t, "firewall", map[string]string{
		"RULES": "deny udp and dst port 23, allow udp, deny -",
	})
	telnet, _ := pkt.BuildUDP(cmac1, cmac2, cip1, cip2, 999, 23, nil)
	dns, _ := pkt.BuildUDP(cmac1, cmac2, cip1, cip2, 999, 53, nil)
	tcp, _ := buildTCP(cmac1, cmac2, cip1, cip2, 1, 80, pkt.TCPSyn, 0, nil)
	in.In <- telnet
	in.In <- dns
	in.In <- tcp
	got := expectOut(t, out, "allowed frame")
	u, ok := pkt.Decode(got).Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if !ok || u.DstPort != 53 {
		t.Fatalf("passed frame = %s", pkt.Decode(got))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		d, _ := r.ReadHandler("fw.dropped")
		if d == "2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %s, want 2", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rules, _ := r.ReadHandler("fw.rules")
	if !strings.Contains(rules, "deny udp and dst port 23 (1 hits)") {
		t.Errorf("rules = %q", rules)
	}
}

func TestFirewallBadRules(t *testing.T) {
	typ, _ := Default().Lookup("firewall")
	cfg, err := typ.Render(map[string]string{"RULES": "frobnicate everything"})
	if err != nil {
		t.Fatal(err)
	}
	devs := map[string]click.Device{
		"in":  newChanDevice("in", 1),
		"out": newChanDevice("out", 1),
	}
	if _, err := click.NewRouter("fw", cfg, click.Options{Devices: devs}); err == nil {
		t.Error("bad rule accepted")
	}
}

func TestDPICountsAndDrops(t *testing.T) {
	r, in, out := runVNF(t, "dpi", map[string]string{"SIGNATURE": "attack", "DROP": "true"})
	in.In <- udpWith(t, []byte("normal traffic"))
	in.In <- udpWith(t, []byte("an attack payload"))
	got := expectOut(t, out, "clean frame")
	u, _ := pkt.Decode(got).Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if !strings.Contains(string(u.Payload()), "normal") {
		t.Errorf("wrong frame passed: %q", u.Payload())
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, _ := r.ReadHandler("dpi.matches")
		if m == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("signature not matched")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case <-out.Out:
		t.Error("attack frame forwarded despite DROP")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestNATTranslation(t *testing.T) {
	typ, _ := Default().Lookup("nat")
	cfg, err := typ.Render(map[string]string{"PUBLIC": "192.0.2.99"})
	if err != nil {
		t.Fatal(err)
	}
	in := newChanDevice("in", 8)
	out := newChanDevice("out", 8)
	rin := newChanDevice("rin", 8)
	rout := newChanDevice("rout", 8)
	r, err := click.NewRouter("nat", cfg, click.Options{Devices: map[string]click.Device{
		"in": in, "out": out, "rin": rin, "rout": rout,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go r.Run(ctx)
	defer func() { cancel(); r.Stop() }()

	// Outbound: src must become the public address.
	in.In <- udpWith(t, []byte("outbound"))
	outFrame := expectOut(t, out, "translated outbound")
	dec := pkt.Decode(outFrame)
	ip := dec.IPv4Layer()
	if ip.Src.String() != "192.0.2.99" {
		t.Fatalf("translated src = %s", ip.Src)
	}
	u, _ := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	pubPort := u.SrcPort
	if pubPort < 30000 {
		t.Errorf("public port = %d", pubPort)
	}
	// IP checksum must be valid after rewrite.
	ihl := int(outFrame[14]&0xf) * 4
	if headerChecksum(outFrame[14:14+ihl]) != 0 {
		t.Error("IP checksum invalid after NAT")
	}

	// Inbound reply to the public port: dst must be restored.
	reply, _ := pkt.BuildUDP(cmac2, cmac1, cip2, netip.MustParseAddr("192.0.2.99"), 5001, pubPort, []byte("reply"))
	rin.In <- reply
	back := expectOut(t, rout, "translated inbound")
	dec2 := pkt.Decode(back)
	if dec2.IPv4Layer().Dst != cip1 {
		t.Errorf("restored dst = %s", dec2.IPv4Layer().Dst)
	}
	u2, _ := dec2.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if u2.DstPort != 5000 {
		t.Errorf("restored port = %d", u2.DstPort)
	}
	// Unknown inbound port drops.
	stray, _ := pkt.BuildUDP(cmac2, cmac1, cip2, netip.MustParseAddr("192.0.2.99"), 1, 9999, nil)
	rin.In <- stray
	time.Sleep(50 * time.Millisecond)
	v, _ := r.ReadHandler("nat.dropped")
	if v != "1" {
		t.Errorf("dropped = %s", v)
	}
}

func TestLoadBalancerSticksAndBalances(t *testing.T) {
	vip := "10.0.0.100"
	r, in, out := runVNF(t, "loadbalancer", map[string]string{
		"VIP": vip, "BACKENDS": "10.0.1.1,10.0.1.2",
	})
	// Two distinct flows to the VIP → two backends; same flow sticks.
	mk := func(srcPort uint16) []byte {
		f, _ := pkt.BuildUDP(cmac1, cmac2, cip1, netip.MustParseAddr(vip), srcPort, 80, nil)
		return f
	}
	backends := map[string]int{}
	for i := 0; i < 3; i++ {
		in.In <- mk(1111)
	}
	for i := 0; i < 3; i++ {
		in.In <- mk(2222)
	}
	firstFlowDst := ""
	for i := 0; i < 6; i++ {
		f := expectOut(t, out, "balanced frame")
		dec := pkt.Decode(f)
		dst := dec.IPv4Layer().Dst.String()
		backends[dst]++
		u, _ := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
		if u.SrcPort == 1111 {
			if firstFlowDst == "" {
				firstFlowDst = dst
			} else if dst != firstFlowDst {
				t.Errorf("flow 1111 moved from %s to %s", firstFlowDst, dst)
			}
		}
	}
	if len(backends) != 2 {
		t.Errorf("backends used = %v, want both", backends)
	}
	flows, _ := r.ReadHandler("lb.flows")
	if flows != "2" {
		t.Errorf("flows = %s", flows)
	}
}

func TestRateLimiterLimits(t *testing.T) {
	_, in, out := runVNF(t, "ratelimiter", map[string]string{"RATE": "50", "QUEUE": "1000"})
	for i := 0; i < 100; i++ {
		in.In <- udpWith(t, []byte{byte(i)})
	}
	// At 50 pps, ~10 packets should emerge in 200ms (plus up to one
	// 100ms-burst worth); many more indicates no limiting.
	time.Sleep(200 * time.Millisecond)
	n := len(out.Out)
	if n == 0 {
		t.Fatal("rate limiter passed nothing")
	}
	if n > 40 {
		t.Errorf("passed %d packets in 200ms at RATE 50", n)
	}
}

func strconvOrZero(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// TestRenderRefusesInjectedParams: a parameter value that would close the
// element's argument list and wire elements of its own, or that is not of
// its parameter's kind, is refused before it reaches a Click config.
func TestRenderRefusesInjectedParams(t *testing.T) {
	for _, c := range []struct{ typ, param, value string }{
		{"simpleForwarder", "QUEUE", "1000) -> Unqueue -> Discard; src :: InfiniteSource(LIMIT -1) -> Queue(1"},
		{"dpi", "SIGNATURE", `x", DROP false) -> Discard; s :: InfiniteSource(LIMIT -1) -> d2 :: DPI(SIGNATURE "y`},
		{"simpleForwarder", "QUEUE", "10, 5"},
		{"headerCompressor", "REFRESH", "64); x :: Counter"},
		{"ratelimiter", "RATE", "NaN"},
		{"ratelimiter", "RATE", "1000) -> Counter -> ToDevice(out"},
		{"nat", "PUBLIC", "192.0.2.1); FromDevice(x) -> ToDevice(y"},
		{"nat", "PUBLIC", "::1"},
		{"loadbalancer", "VIP", "10.0.0.100, 10.0.0.7"},
		{"loadbalancer", "BACKENDS", "10.0.1.1,10.0.1.2) -> Counter -> ToDevice(out"},
		{"loadbalancer", "BACKENDS", ""},
		{"dpi", "DROP", "true) -> ToDevice(out"},
		{"dpi", "SIGNATURE", "a,b"},
		{"firewall", "RULES", "allow -) -> ToDevice(out); FromDevice(x) -> Firewall(allow -"},
		{"firewall", "RULES", "allow -\nx :: Counter"},
		{"firewall", "RULES", `allow - // comment`},
		{"firewall", "RULES", "allow -; deny -"},
		{"firewall", "RULES", "allow src host 1.2.3.4 -> deny -"},
		{"firewall", "RULES", "allow x::y"},
		{"firewall", "RULES", `allow \ -`},
		{"firewall", "RULES", "allow /* - */"},
	} {
		typ, err := Default().Lookup(c.typ)
		if err != nil {
			t.Fatal(err)
		}
		if cfg, err := typ.Render(map[string]string{c.param: c.value}); err == nil {
			t.Errorf("%s with %s=%q rendered:\n%s", c.typ, c.param, c.value, cfg)
		}
	}
}

// TestRenderAcceptsUsedParams: every parameter value the examples, the
// tests and the benchmark deploy still renders.
func TestRenderAcceptsUsedParams(t *testing.T) {
	var benchRules []string
	for i := 1; i <= 15; i++ {
		benchRules = append(benchRules, "deny src host 10.250.0."+strconv.Itoa(i))
	}
	for _, c := range []struct {
		typ    string
		params map[string]string
	}{
		{"headerCompressor", map[string]string{"REFRESH": "128"}},
		{"headerCompressor", map[string]string{"REFRESH": "4"}},
		{"loadbalancer", map[string]string{"VIP": "10.99.0.1", "BACKENDS": "10.99.1.1,10.99.1.2"}},
		{"loadbalancer", map[string]string{"VIP": "10.0.0.100", "BACKENDS": "10.0.1.1, 10.0.1.2"}},
		{"firewall", map[string]string{"RULES": "allow icmp, allow udp, deny -"}},
		{"firewall", map[string]string{"RULES": "deny udp and dst port 23, allow udp, deny -"}},
		{"firewall", map[string]string{"RULES": "allow udp, deny -"}},
		{"firewall", map[string]string{"RULES": "deny -"}},
		{"firewall", map[string]string{"RULES": strings.Join(benchRules, ", ") + ", allow -"}},
		{"dpi", map[string]string{"SIGNATURE": "attack", "DROP": "true"}},
		{"dpi", map[string]string{"SIGNATURE": "attack", "DROP": "false"}},
		{"nat", map[string]string{"PUBLIC": "192.0.2.99"}},
		{"ratelimiter", map[string]string{"RATE": "50", "QUEUE": "1000"}},
		{"ratelimiter", map[string]string{"RATE": "0.5"}},
	} {
		typ, err := Default().Lookup(c.typ)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := typ.Render(c.params)
		if err != nil {
			t.Errorf("%s with %v: %v", c.typ, c.params, err)
			continue
		}
		devs := map[string]click.Device{}
		for _, p := range typ.Ports {
			devs[p] = newChanDevice(p, 1)
		}
		if _, err := click.NewRouter(c.typ, cfg, click.Options{Devices: devs}); err != nil {
			t.Errorf("%s with %v does not build: %v", c.typ, c.params, err)
		}
	}
}

// TestEveryClickClassIsDeployed: the Click element classes are exactly the
// ones the catalog's types deploy. A class with no catalog type to deploy
// it is code no intent can reach.
func TestEveryClickClassIsDeployed(t *testing.T) {
	c := Default()
	deployed := map[string]bool{}
	for _, name := range c.Names() {
		typ, _ := c.Lookup(name)
		src, err := typ.Render(nil)
		if err != nil {
			t.Fatal(err)
		}
		devs := map[string]click.Device{}
		for _, p := range typ.Ports {
			devs[p] = newChanDevice(p, 1)
		}
		r, err := click.NewRouter(name, src, click.Options{Devices: devs})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range r.ElementNames() {
			deployed[r.Element(e).Class()] = true
		}
	}
	registered := map[string]bool{}
	for _, class := range registeredClasses(t) {
		registered[class] = true
		if !deployed[class] {
			t.Errorf("element class %s is registered, but no catalog type deploys it", class)
		}
	}
	for class := range deployed {
		if !registered[class] {
			t.Errorf("a catalog type deploys %s, which is not registered", class)
		}
	}
}

// registeredClasses lists the element classes the non-test sources of
// click and catalog register, in the order they appear.
func registeredClasses(t *testing.T) []string {
	t.Helper()
	re := regexp.MustCompile(`RegisterElement\("(\w+)"`)
	var classes []string
	for _, dir := range []string{".", "../click"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range re.FindAllSubmatch(src, -1) {
				classes = append(classes, string(m[1]))
			}
		}
	}
	if len(classes) == 0 {
		t.Fatal("no RegisterElement call found")
	}
	return classes
}

// chanDevice is an in-memory click.Device: a test feeds In and reads Out.
type chanDevice struct {
	name    string
	In, Out chan []byte
}

func newChanDevice(name string, depth int) *chanDevice {
	return &chanDevice{name: name, In: make(chan []byte, depth), Out: make(chan []byte, depth)}
}

func (d *chanDevice) DeviceName() string { return d.name }

// Send drops when Out is full, as a full NIC ring does.
func (d *chanDevice) Send(frame []byte) error {
	select {
	case d.Out <- frame:
		return nil
	default:
		return click.ErrDeviceFull
	}
}

func (d *chanDevice) Recv() <-chan []byte { return d.In }

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

// headerChecksum is the RFC 1071 sum over an IPv4 header: zero when the
// header's checksum field is right.
func headerChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
