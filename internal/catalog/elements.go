// Package catalog is ESCAPE's VNF catalog: "a built-in set of useful VNFs
// implemented in Click". Each catalog entry maps a VNF type name to a
// parameterized Click configuration; the domain-specific elements those
// configurations use (HeaderCompressor, Firewall, NAT, DPI, LoadBalancer)
// are implemented here and registered with the Click engine through its
// extensible element registry.
package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"escape/internal/click"
	"escape/internal/pkt"
)

func init() {
	click.RegisterElement("HeaderCompressor", func() click.Element { return &HeaderCompressor{} })
	click.RegisterElement("HeaderDecompressor", func() click.Element { return &HeaderDecompressor{} })
	click.RegisterElement("Firewall", func() click.Element { return &Firewall{} })
	click.RegisterElement("NAT", func() click.Element { return &NAT{} })
	click.RegisterElement("DPI", func() click.Element { return &DPI{} })
	click.RegisterElement("LoadBalancer", func() click.Element { return &LoadBalancer{} })
}

// compEtherType marks compressed frames (an experimental ethertype).
const compEtherType = 0x88b5

// compMagic guards against misparsing.
const compMagic = 0xc0de

// flowContext is the compression context shared by compressor and
// decompressor: the immutable parts of the Ethernet+IPv4+UDP envelope.
type flowContext struct {
	ethSrc, ethDst pkt.MAC
	src, dst       netip.Addr
	srcPort        uint16
	dstPort        uint16
	ttl, tos       uint8
}

// HeaderCompressor implements ESCAPE's demo VNF: a toy ROHC-style
// UDP/IPv4 header compressor. The first packet of each flow travels as an
// IR (initialization/refresh) packet carrying the full headers plus the
// context id; subsequent packets carry an 8-byte compressed header
// instead of the 28-byte IP+UDP headers. Non-UDP traffic passes through
// untouched.
//
// Handlers: compressed, passthrough, contexts (r).
type HeaderCompressor struct {
	click.Base
	mu       sync.Mutex
	contexts map[pkt.FiveTuple]uint16
	nextCtx  uint16
	// refresh sends a fresh IR packet every N compressed packets
	// (context refresh, default 64; 0 = only the first packet).
	refresh    int
	sinceIR    map[uint16]int
	compressed uint64
	passthru   uint64
}

// Class implements click.Element.
func (*HeaderCompressor) Class() string { return "HeaderCompressor" }

// Spec implements click.Element.
func (*HeaderCompressor) Spec() click.PortSpec {
	return click.PortSpec{NIn: 1, NOut: 1, In: []click.Processing{click.Agnostic}, Out: []click.Processing{click.Agnostic}}
}

// Configure implements click.Element.
func (h *HeaderCompressor) Configure(r *click.Router, args []string) error {
	ca := click.ParseArgs(args)
	refresh, err := ca.KeyInt("REFRESH", 64)
	if err != nil {
		return err
	}
	if refresh < 0 {
		return fmt.Errorf("REFRESH must be non-negative")
	}
	h.refresh = refresh
	h.contexts = map[pkt.FiveTuple]uint16{}
	h.sinceIR = map[uint16]int{}
	return nil
}

// SimpleAction implements the per-packet transform.
func (h *HeaderCompressor) SimpleAction(p *click.Packet) *click.Packet {
	frame := p.Data()
	dec := pkt.Decode(frame)
	ip := dec.IPv4Layer()
	udp, isUDP := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if ip == nil || !isUDP {
		h.passthru++
		return p
	}
	ft := pkt.FiveTuple{Proto: pkt.IPProtoUDP, Src: ip.Src, Dst: ip.Dst, SrcPort: udp.SrcPort, DstPort: udp.DstPort}
	h.mu.Lock()
	ctx, known := h.contexts[ft]
	if !known {
		ctx = h.nextCtx
		h.nextCtx++
		h.contexts[ft] = ctx
		h.sinceIR[ctx] = 0
	}
	needIR := !known
	if h.refresh > 0 && h.sinceIR[ctx] >= h.refresh {
		needIR = true
	}
	if needIR {
		h.sinceIR[ctx] = 0
	} else {
		h.sinceIR[ctx]++
	}
	h.mu.Unlock()

	if needIR {
		// IR packet: compressed ethertype, flag 1, context id, then the
		// original frame's IP packet (full headers).
		out := make([]byte, 0, len(frame)+5)
		out = append(out, frame[0:12]...)
		out = append(out, byte(compEtherType>>8), byte(compEtherType&0xff))
		var hdr [5]byte
		binary.BigEndian.PutUint16(hdr[0:2], compMagic)
		hdr[2] = 1 // IR flag
		binary.BigEndian.PutUint16(hdr[3:5], ctx)
		out = append(out, hdr[:]...)
		out = append(out, frame[14:]...) // full IP packet
		p.SetData(out)
		h.compressed++
		return p
	}
	// Compressed packet: replace IP+UDP headers with the 5-byte header;
	// payload follows directly.
	payload := udp.Payload()
	out := make([]byte, 0, 14+5+len(payload))
	out = append(out, frame[0:12]...)
	out = append(out, byte(compEtherType>>8), byte(compEtherType&0xff))
	var hdr [5]byte
	binary.BigEndian.PutUint16(hdr[0:2], compMagic)
	hdr[2] = 0
	binary.BigEndian.PutUint16(hdr[3:5], ctx)
	out = append(out, hdr[:]...)
	out = append(out, payload...)
	p.SetData(out)
	h.compressed++
	return p
}

// Handlers implements click.HandlerProvider.
func (h *HeaderCompressor) Handlers() []click.Handler {
	return []click.Handler{
		{Name: "compressed", Read: func() string { return strconv.FormatUint(h.compressed, 10) }},
		{Name: "passthrough", Read: func() string { return strconv.FormatUint(h.passthru, 10) }},
		{Name: "contexts", Read: func() string {
			h.mu.Lock()
			defer h.mu.Unlock()
			return strconv.Itoa(len(h.contexts))
		}},
	}
}

// HeaderDecompressor restores frames produced by HeaderCompressor.
// Packets referencing an unknown context (IR lost) are dropped and
// counted.
//
// Handlers: restored, unknown_context, passthrough (r).
type HeaderDecompressor struct {
	click.Base
	mu       sync.Mutex
	contexts map[uint16]flowContext
	restored uint64
	unknown  uint64
	passthru uint64
}

// Class implements click.Element.
func (*HeaderDecompressor) Class() string { return "HeaderDecompressor" }

// Spec implements click.Element.
func (*HeaderDecompressor) Spec() click.PortSpec {
	return click.PortSpec{NIn: 1, NOut: 1, In: []click.Processing{click.Agnostic}, Out: []click.Processing{click.Agnostic}}
}

// Configure implements click.Element.
func (h *HeaderDecompressor) Configure(r *click.Router, args []string) error {
	h.contexts = map[uint16]flowContext{}
	return nil
}

// SimpleAction implements the per-packet transform.
func (h *HeaderDecompressor) SimpleAction(p *click.Packet) *click.Packet {
	frame := p.Data()
	if len(frame) < 19 {
		h.passthru++
		return p
	}
	et := binary.BigEndian.Uint16(frame[12:14])
	if et != compEtherType || binary.BigEndian.Uint16(frame[14:16]) != compMagic {
		h.passthru++
		return p
	}
	ir := frame[16] == 1
	ctx := binary.BigEndian.Uint16(frame[17:19])
	body := frame[19:]
	if ir {
		// IR: body is the full IP packet. Learn the context and restore
		// the original frame.
		restored := make([]byte, 0, 14+len(body))
		restored = append(restored, frame[0:12]...)
		restored = append(restored, byte(pkt.EtherTypeIPv4>>8), byte(pkt.EtherTypeIPv4&0xff))
		restored = append(restored, body...)
		dec := pkt.Decode(restored)
		ip := dec.IPv4Layer()
		udp, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
		if ip == nil || !ok {
			h.unknown++
			p.Kill()
			return nil
		}
		var fc flowContext
		copy(fc.ethDst[:], frame[0:6])
		copy(fc.ethSrc[:], frame[6:12])
		fc.src, fc.dst = ip.Src, ip.Dst
		fc.srcPort, fc.dstPort = udp.SrcPort, udp.DstPort
		fc.ttl, fc.tos = ip.TTL, ip.TOS
		h.mu.Lock()
		h.contexts[ctx] = fc
		h.mu.Unlock()
		p.SetData(restored)
		h.restored++
		return p
	}
	h.mu.Lock()
	fc, ok := h.contexts[ctx]
	h.mu.Unlock()
	if !ok {
		h.unknown++
		p.Kill()
		return nil
	}
	ipl := &pkt.IPv4{TTL: fc.ttl, TOS: fc.tos, Protocol: pkt.IPProtoUDP, Src: fc.src, Dst: fc.dst}
	udp := &pkt.UDP{SrcPort: fc.srcPort, DstPort: fc.dstPort}
	udp.SetNetworkLayer(ipl)
	restored, err := pkt.SerializeLayers(
		&pkt.Ethernet{Src: fc.ethSrc, Dst: fc.ethDst, EtherType: pkt.EtherTypeIPv4},
		ipl, udp, pkt.Raw(body),
	)
	if err != nil {
		h.unknown++
		p.Kill()
		return nil
	}
	p.SetData(restored)
	h.restored++
	return p
}

// Handlers implements click.HandlerProvider.
func (h *HeaderDecompressor) Handlers() []click.Handler {
	return []click.Handler{
		{Name: "restored", Read: func() string { return strconv.FormatUint(h.restored, 10) }},
		{Name: "unknown_context", Read: func() string { return strconv.FormatUint(h.unknown, 10) }},
		{Name: "passthrough", Read: func() string { return strconv.FormatUint(h.passthru, 10) }},
	}
}

// fwRule is one firewall rule: verdict + classifier expression.
type fwRule struct {
	allow  bool
	expr   string
	filter click.FrameFilter
	hits   uint64
}

// Firewall is a stateless ACL: rules are evaluated in order, first match
// wins, unmatched packets are dropped (implicit deny).
//
// Configuration: Firewall(allow udp and dst port 53, deny src host
// 10.0.0.9, allow -). Handlers: passed, dropped, rules (r).
type Firewall struct {
	click.Base
	rules   []*fwRule
	passed  uint64
	dropped uint64
	hdr     pkt.Headers // the packet being filtered, kept off the heap
}

// Class implements click.Element.
func (*Firewall) Class() string { return "Firewall" }

// Spec implements click.Element.
func (*Firewall) Spec() click.PortSpec {
	return click.PortSpec{NIn: 1, NOut: 1, In: []click.Processing{click.Agnostic}, Out: []click.Processing{click.Agnostic}}
}

// Configure implements click.Element.
func (fw *Firewall) Configure(r *click.Router, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("Firewall needs at least one rule")
	}
	for _, a := range args {
		a = strings.TrimSpace(a)
		var allow bool
		var expr string
		switch {
		case strings.HasPrefix(a, "allow "):
			allow, expr = true, strings.TrimSpace(strings.TrimPrefix(a, "allow "))
		case a == "allow":
			allow, expr = true, "-"
		case strings.HasPrefix(a, "deny "):
			allow, expr = false, strings.TrimSpace(strings.TrimPrefix(a, "deny "))
		case a == "deny":
			allow, expr = false, "-"
		default:
			return fmt.Errorf("firewall rule %q must start with allow/deny", a)
		}
		f, err := click.CompileFilter(expr)
		if err != nil {
			return fmt.Errorf("firewall rule %q: %w", a, err)
		}
		fw.rules = append(fw.rules, &fwRule{allow: allow, expr: expr, filter: f})
	}
	return nil
}

// SimpleAction implements the per-packet transform.
func (fw *Firewall) SimpleAction(p *click.Packet) *click.Packet {
	fw.hdr, _ = pkt.Parse(p.Data())
	for _, r := range fw.rules {
		if r.filter(&fw.hdr) {
			r.hits++
			if r.allow {
				fw.passed++
				return p
			}
			fw.dropped++
			p.Kill()
			return nil
		}
	}
	fw.dropped++ // implicit deny
	p.Kill()
	return nil
}

// Handlers implements click.HandlerProvider.
func (fw *Firewall) Handlers() []click.Handler {
	hs := []click.Handler{
		{Name: "passed", Read: func() string { return strconv.FormatUint(fw.passed, 10) }},
		{Name: "dropped", Read: func() string { return strconv.FormatUint(fw.dropped, 10) }},
		{Name: "rules", Read: func() string {
			var sb strings.Builder
			for _, r := range fw.rules {
				verdict := "deny"
				if r.allow {
					verdict = "allow"
				}
				fmt.Fprintf(&sb, "%s %s (%d hits)\n", verdict, r.expr, r.hits)
			}
			return sb.String()
		}},
	}
	return hs
}

// NAT rewrites source addresses of outbound traffic (input 0) to a public
// address and restores inbound traffic (input 1) using a port-indexed
// translation table — a minimal symmetric NAPT.
//
// Configuration: NAT(PUBLIC 192.0.2.1). Port 0: inside→outside,
// port 1: outside→inside. Handlers: translations, dropped (r).
type NAT struct {
	click.Base
	public  netip.Addr
	mu      sync.Mutex
	byInt   map[pkt.FiveTuple]uint16 // internal flow → public port
	byPort  map[uint16]pkt.FiveTuple
	nextP   uint16
	dropped uint64
}

// Class implements click.Element.
func (*NAT) Class() string { return "NAT" }

// Spec implements click.Element.
func (*NAT) Spec() click.PortSpec {
	return click.PortSpec{NIn: 2, NOut: 2, In: []click.Processing{click.Push}, Out: []click.Processing{click.Push}}
}

// Configure implements click.Element.
func (n *NAT) Configure(r *click.Router, args []string) error {
	ca := click.ParseArgs(args)
	pub := ca.Key("PUBLIC", ca.Pos(0, ""))
	if pub == "" {
		return fmt.Errorf("NAT needs PUBLIC address")
	}
	addr, err := netip.ParseAddr(pub)
	if err != nil || !addr.Is4() {
		return fmt.Errorf("bad PUBLIC address %q", pub)
	}
	n.public = addr
	n.byInt = map[pkt.FiveTuple]uint16{}
	n.byPort = map[uint16]pkt.FiveTuple{}
	n.nextP = 30000
	return nil
}

// Push implements click.Element.
func (n *NAT) Push(port int, p *click.Packet) {
	frame := p.Data()
	h, _ := pkt.Parse(frame)
	ft, ok := h.FiveTuple()
	if !ok || (ft.Proto != pkt.IPProtoUDP && ft.Proto != pkt.IPProtoTCP) {
		// Non-translatable traffic passes straight through.
		n.PushOut(port, p)
		return
	}
	if port == 0 {
		// Outbound: allocate/lookup a public port, rewrite src.
		n.mu.Lock()
		pub, known := n.byInt[ft]
		if !known {
			pub = n.nextP
			n.nextP++
			n.byInt[ft] = pub
			n.byPort[pub] = ft
		}
		n.mu.Unlock()
		if pkt.SetNWAddr(frame, false, n.public) != nil || pkt.SetTPPort(frame, false, pub) != nil {
			n.dropped++
			p.Kill()
			return
		}
		n.PushOut(0, p)
		return
	}
	// Inbound: translate back by destination port.
	n.mu.Lock()
	orig, known := n.byPort[ft.DstPort]
	n.mu.Unlock()
	if !known {
		n.dropped++
		p.Kill()
		return
	}
	if pkt.SetNWAddr(frame, true, orig.Src) != nil || pkt.SetTPPort(frame, true, orig.SrcPort) != nil {
		n.dropped++
		p.Kill()
		return
	}
	n.PushOut(1, p)
}

// Handlers implements click.HandlerProvider.
func (n *NAT) Handlers() []click.Handler {
	return []click.Handler{
		{Name: "translations", Read: func() string {
			n.mu.Lock()
			defer n.mu.Unlock()
			return strconv.Itoa(len(n.byInt))
		}},
		{Name: "dropped", Read: func() string { return strconv.FormatUint(n.dropped, 10) }},
	}
}

// DPI counts (and optionally drops) packets whose payload contains a
// signature string — a toy deep-packet-inspection function.
//
// Configuration: DPI(SIGNATURE string[, DROP true]). Handlers: matches,
// total (r).
type DPI struct {
	click.Base
	signature []byte
	drop      bool
	matches   uint64
	total     uint64
}

// Class implements click.Element.
func (*DPI) Class() string { return "DPI" }

// Spec implements click.Element.
func (*DPI) Spec() click.PortSpec {
	return click.PortSpec{NIn: 1, NOut: 1, In: []click.Processing{click.Agnostic}, Out: []click.Processing{click.Agnostic}}
}

// Configure implements click.Element.
func (d *DPI) Configure(r *click.Router, args []string) error {
	ca := click.ParseArgs(args)
	sig := click.Unquote(ca.Key("SIGNATURE", ca.Pos(0, "")))
	if sig == "" {
		return fmt.Errorf("DPI needs a SIGNATURE")
	}
	d.signature = []byte(sig)
	var err error
	if d.drop, err = ca.KeyBool("DROP", false); err != nil {
		return err
	}
	return nil
}

// SimpleAction implements the per-packet transform.
func (d *DPI) SimpleAction(p *click.Packet) *click.Packet {
	d.total++
	if bytes.Contains(p.Data(), d.signature) {
		d.matches++
		if d.drop {
			p.Kill()
			return nil
		}
	}
	return p
}

// Handlers implements click.HandlerProvider.
func (d *DPI) Handlers() []click.Handler {
	return []click.Handler{
		{Name: "matches", Read: func() string { return strconv.FormatUint(d.matches, 10) }},
		{Name: "total", Read: func() string { return strconv.FormatUint(d.total, 10) }},
	}
}

// LoadBalancer rewrites the destination address across a backend pool:
// flows stick to a backend (hash on the five-tuple), new flows go to the
// least-loaded backend (per-flow count).
//
// Configuration: LoadBalancer(VIP 10.0.0.100, 10.0.1.1, 10.0.1.2, …).
// Only packets addressed to the VIP are rewritten. Handlers: flows,
// backend<i> (r).
type LoadBalancer struct {
	click.Base
	vip      netip.Addr
	backends []netip.Addr
	mu       sync.Mutex
	flowMap  map[pkt.FiveTuple]int
	counts   []uint64
}

// Class implements click.Element.
func (*LoadBalancer) Class() string { return "LoadBalancer" }

// Spec implements click.Element.
func (*LoadBalancer) Spec() click.PortSpec {
	return click.PortSpec{NIn: 1, NOut: 1, In: []click.Processing{click.Agnostic}, Out: []click.Processing{click.Agnostic}}
}

// Configure implements click.Element.
func (lb *LoadBalancer) Configure(r *click.Router, args []string) error {
	ca := click.ParseArgs(args)
	vip := ca.Key("VIP", "")
	if vip == "" && len(ca.Positional) > 0 {
		vip = ca.Positional[0]
		ca.Positional = ca.Positional[1:]
	}
	addr, err := netip.ParseAddr(vip)
	if err != nil || !addr.Is4() {
		return fmt.Errorf("bad VIP %q", vip)
	}
	lb.vip = addr
	for _, b := range ca.Positional {
		ba, err := netip.ParseAddr(b)
		if err != nil || !ba.Is4() {
			return fmt.Errorf("bad backend %q", b)
		}
		lb.backends = append(lb.backends, ba)
	}
	if len(lb.backends) == 0 {
		return fmt.Errorf("LoadBalancer needs at least one backend")
	}
	lb.flowMap = map[pkt.FiveTuple]int{}
	lb.counts = make([]uint64, len(lb.backends))
	return nil
}

// SimpleAction implements the per-packet transform.
func (lb *LoadBalancer) SimpleAction(p *click.Packet) *click.Packet {
	h, _ := pkt.Parse(p.Data())
	ft, ok := h.FiveTuple()
	if !ok || ft.Dst != lb.vip {
		return p
	}
	lb.mu.Lock()
	idx, known := lb.flowMap[ft]
	if !known {
		// Least-loaded assignment for new flows.
		idx = 0
		for i := 1; i < len(lb.counts); i++ {
			if lb.counts[i] < lb.counts[idx] {
				idx = i
			}
		}
		lb.flowMap[ft] = idx
	}
	lb.counts[idx]++
	backend := lb.backends[idx]
	lb.mu.Unlock()
	if pkt.SetNWAddr(p.Data(), true, backend) != nil {
		p.Kill()
		return nil
	}
	return p
}

// Handlers implements click.HandlerProvider.
func (lb *LoadBalancer) Handlers() []click.Handler {
	hs := []click.Handler{
		{Name: "flows", Read: func() string {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			return strconv.Itoa(len(lb.flowMap))
		}},
	}
	for i := range lb.backends {
		i := i
		hs = append(hs, click.Handler{
			Name: fmt.Sprintf("backend%d", i),
			Read: func() string {
				lb.mu.Lock()
				defer lb.mu.Unlock()
				return strconv.FormatUint(lb.counts[i], 10)
			},
		})
	}
	return hs
}
