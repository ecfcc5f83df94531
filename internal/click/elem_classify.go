package click

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"sync/atomic"

	"escape/internal/pkt"
)

// Classification and branching elements.

func init() {
	RegisterElement("Classifier", func() Element { return &Classifier{} })
	RegisterElement("IPClassifier", func() Element { return &IPClassifier{} })
	RegisterElement("Switch", func() Element { return &Switch{} })
	RegisterElement("PaintSwitch", func() Element { return &PaintSwitch{} })
	RegisterElement("RoundRobinSwitch", func() Element { return &RoundRobinSwitch{} })
	RegisterElement("HashSwitch", func() Element { return &HashSwitch{} })
	RegisterElement("Tee", func() Element { return &Tee{} })
	RegisterElement("RandomSample", func() Element { return &RandomSample{} })
}

// classifierPattern is one conjunctive Classifier pattern: all terms must
// match. The empty pattern ("-") matches everything.
type classifierPattern struct {
	terms []classifierTerm
}

type classifierTerm struct {
	offset int
	value  []byte
	mask   []byte // same length as value; nil means exact
}

func (p classifierPattern) match(data []byte) bool {
	for _, t := range p.terms {
		end := t.offset + len(t.value)
		if end > len(data) {
			return false
		}
		for i := range t.value {
			b := data[t.offset+i]
			if t.mask != nil {
				b &= t.mask[i]
			}
			if b != t.value[i] {
				return false
			}
		}
	}
	return true
}

// parseClassifierPattern parses Click syntax: space-separated terms of the
// form "offset/hexvalue" or "offset/hexvalue%hexmask"; "-" matches all.
// '?' nibbles in the value are wildcards.
func parseClassifierPattern(s string) (classifierPattern, error) {
	s = strings.TrimSpace(s)
	if s == "-" || s == "" {
		return classifierPattern{}, nil
	}
	var pat classifierPattern
	for _, term := range strings.Fields(s) {
		slash := strings.IndexByte(term, '/')
		if slash < 0 {
			return pat, fmt.Errorf("bad classifier term %q (want offset/value)", term)
		}
		off, err := strconv.Atoi(term[:slash])
		if err != nil || off < 0 {
			return pat, fmt.Errorf("bad classifier offset in %q", term)
		}
		valPart := term[slash+1:]
		var maskHex string
		if pc := strings.IndexByte(valPart, '%'); pc >= 0 {
			maskHex = valPart[pc+1:]
			valPart = valPart[:pc]
		}
		if len(valPart)%2 == 1 {
			return pat, fmt.Errorf("odd hex length in %q", term)
		}
		value := make([]byte, len(valPart)/2)
		mask := make([]byte, len(valPart)/2)
		hasWild := false
		for i := 0; i < len(valPart); i += 2 {
			var b, m byte
			for j := 0; j < 2; j++ {
				c := valPart[i+j]
				b <<= 4
				m <<= 4
				if c == '?' {
					hasWild = true
					continue
				}
				v, err := strconv.ParseUint(string(c), 16, 8)
				if err != nil {
					return pat, fmt.Errorf("bad hex %q in %q", string(c), term)
				}
				b |= byte(v)
				m |= 0xf
			}
			value[i/2] = b
			mask[i/2] = m
		}
		if maskHex != "" {
			mb, err := hex.DecodeString(maskHex)
			if err != nil || len(mb) != len(value) {
				return pat, fmt.Errorf("bad mask in %q", term)
			}
			for i := range value {
				mask[i] &= mb[i]
				value[i] &= mask[i]
			}
			hasWild = true
		}
		t := classifierTerm{offset: off, value: value}
		if hasWild {
			for i := range value {
				value[i] &= mask[i]
			}
			t.mask = mask
		}
		pat.terms = append(pat.terms, t)
	}
	return pat, nil
}

// Classifier sends each packet to the output of the first matching
// pattern; packets matching no pattern are dropped.
//
// Configuration: Classifier(pattern, pattern, …) with Click's
// "offset/hexvalue%mask" syntax, "-" for match-all.
// Handlers: count<i> per output, drops.
type Classifier struct {
	Base
	patterns []classifierPattern
	counts   []uint64
	drops    atomic.Uint64
}

// Class implements Element.
func (*Classifier) Class() string { return "Classifier" }

// Spec implements Element.
func (c *Classifier) Spec() PortSpec { return pushPorts(1, len(c.patterns)) }

// Configure implements Element.
func (c *Classifier) Configure(r *Router, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("Classifier needs at least one pattern")
	}
	for _, a := range args {
		p, err := parseClassifierPattern(a)
		if err != nil {
			return err
		}
		c.patterns = append(c.patterns, p)
	}
	c.counts = make([]uint64, len(c.patterns))
	return nil
}

// Push implements Element.
func (c *Classifier) Push(port int, p *Packet) {
	data := p.Data()
	for i, pat := range c.patterns {
		if pat.match(data) {
			atomic.AddUint64(&c.counts[i], 1)
			c.PushOut(i, p)
			return
		}
	}
	c.drops.Add(1)
	p.Kill()
}

// Handlers implements HandlerProvider.
func (c *Classifier) Handlers() []Handler {
	hs := []Handler{{Name: "drops", Read: func() string { return strconv.FormatUint(c.drops.Load(), 10) }}}
	for i := range c.counts {
		i := i
		hs = append(hs, Handler{Name: fmt.Sprintf("count%d", i),
			Read: func() string { return strconv.FormatUint(atomic.LoadUint64(&c.counts[i]), 10) }})
	}
	return hs
}

// IPClassifier classifies by a tcpdump-like expression subset:
//
//	primitives: ip, arp, icmp, tcp, udp, "src host A", "dst host A",
//	            "host A", "src port N", "dst port N", "port N", true/-
//	connectives: "and", "or" (no parentheses; and binds tighter)
//
// One expression per output; first match wins; no match drops.
type IPClassifier struct {
	Base
	exprs  []string
	preds  []FrameFilter
	counts []uint64
	drops  uint64
	hdr    pkt.Headers // the packet being classified, kept off the heap
}

// Class implements Element.
func (*IPClassifier) Class() string { return "IPClassifier" }

// Spec implements Element.
func (c *IPClassifier) Spec() PortSpec { return pushPorts(1, len(c.preds)) }

// Configure implements Element.
func (c *IPClassifier) Configure(r *Router, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("IPClassifier needs at least one expression")
	}
	for _, a := range args {
		p, err := CompileFilter(a)
		if err != nil {
			return err
		}
		c.preds = append(c.preds, p)
		c.exprs = append(c.exprs, a)
	}
	c.counts = make([]uint64, len(c.preds))
	return nil
}

// CompileFilter compiles an IPClassifier-style expression ("udp and dst
// port 53", "src host 10.0.0.1", "-") into a predicate over a parsed
// frame. It is the extension hook ESCAPE's catalog elements (Firewall)
// use to share the classifier language.
func CompileFilter(expr string) (FrameFilter, error) {
	expr = strings.TrimSpace(expr)
	if expr == "-" || expr == "true" || expr == "any" || expr == "" {
		return func(*pkt.Headers) bool { return true }, nil
	}
	var orTerms []FrameFilter
	for _, orPart := range strings.Split(expr, " or ") {
		var andTerms []FrameFilter
		toks := strings.Fields(orPart)
		for i := 0; i < len(toks); i++ {
			if toks[i] == "and" {
				continue
			}
			dir := ""
			if toks[i] == "src" || toks[i] == "dst" {
				dir = toks[i]
				i++
				if i >= len(toks) {
					return nil, fmt.Errorf("ipclassifier: dangling %q in %q", dir, expr)
				}
			}
			switch toks[i] {
			case "ip":
				// allow "ip proto tcp" form
				if i+2 < len(toks) && toks[i+1] == "proto" {
					proto := toks[i+2]
					i += 2
					p, err := protoPredicate(proto)
					if err != nil {
						return nil, err
					}
					andTerms = append(andTerms, p)
				} else {
					andTerms = append(andTerms, func(h *pkt.Headers) bool { return h.IsIPv4() })
				}
			case "arp":
				andTerms = append(andTerms, func(h *pkt.Headers) bool { return h.DLType == uint16(pkt.EtherTypeARP) })
			case "icmp", "tcp", "udp":
				p, err := protoPredicate(toks[i])
				if err != nil {
					return nil, err
				}
				andTerms = append(andTerms, p)
			case "host":
				i++
				if i >= len(toks) {
					return nil, fmt.Errorf("ipclassifier: missing host address in %q", expr)
				}
				// Anything but a canonical dotted quad matches no packet,
				// as when the rendered addresses were compared as strings.
				addr, _ := netip.ParseAddr(toks[i])
				if addr.String() != toks[i] {
					addr = netip.Addr{}
				}
				d := dir
				andTerms = append(andTerms, func(h *pkt.Headers) bool {
					if !h.IsIPv4() {
						return false
					}
					switch d {
					case "src":
						return h.NWSrc == addr
					case "dst":
						return h.NWDst == addr
					default:
						return h.NWSrc == addr || h.NWDst == addr
					}
				})
			case "port":
				i++
				if i >= len(toks) {
					return nil, fmt.Errorf("ipclassifier: missing port number in %q", expr)
				}
				n, err := strconv.Atoi(toks[i])
				if err != nil || n < 0 || n > 65535 {
					return nil, fmt.Errorf("ipclassifier: bad port %q", toks[i])
				}
				want := uint16(n)
				d := dir
				andTerms = append(andTerms, func(h *pkt.Headers) bool {
					// A TCP or UDP packet has ports; they read 0 when its
					// header did not decode (a non-first fragment).
					if p := pkt.IPProtocol(h.NWProto); !h.IsIPv4() || p != pkt.IPProtoTCP && p != pkt.IPProtoUDP {
						return false
					}
					switch d {
					case "src":
						return h.TPSrc == want
					case "dst":
						return h.TPDst == want
					default:
						return h.TPSrc == want || h.TPDst == want
					}
				})
			default:
				return nil, fmt.Errorf("ipclassifier: unknown primitive %q in %q", toks[i], expr)
			}
		}
		if len(andTerms) == 0 {
			return nil, fmt.Errorf("ipclassifier: empty term in %q", expr)
		}
		and := andTerms
		orTerms = append(orTerms, func(h *pkt.Headers) bool {
			for _, t := range and {
				if !t(h) {
					return false
				}
			}
			return true
		})
	}
	return func(h *pkt.Headers) bool {
		for _, t := range orTerms {
			if t(h) {
				return true
			}
		}
		return false
	}, nil
}

func protoPredicate(name string) (FrameFilter, error) {
	var want pkt.IPProtocol
	switch name {
	case "icmp":
		want = pkt.IPProtoICMP
	case "tcp":
		want = pkt.IPProtoTCP
	case "udp":
		want = pkt.IPProtoUDP
	default:
		return nil, fmt.Errorf("ipclassifier: unknown protocol %q", name)
	}
	return func(h *pkt.Headers) bool { return h.IsIPv4() && pkt.IPProtocol(h.NWProto) == want }, nil
}

// Push implements Element.
func (c *IPClassifier) Push(port int, p *Packet) {
	c.hdr, _ = pkt.Parse(p.Data())
	for i, pred := range c.preds {
		if pred(&c.hdr) {
			c.counts[i]++
			c.PushOut(i, p)
			return
		}
	}
	c.drops++
	p.Kill()
}

// Handlers implements HandlerProvider.
func (c *IPClassifier) Handlers() []Handler {
	hs := []Handler{{Name: "drops", Read: func() string { return strconv.FormatUint(c.drops, 10) }}}
	for i := range c.counts {
		i := i
		hs = append(hs, Handler{Name: fmt.Sprintf("count%d", i),
			Read: func() string { return strconv.FormatUint(c.counts[i], 10) }})
	}
	return hs
}

// Switch pushes every packet to one selected output; -1 drops. The
// selection is a write handler so controllers can re-steer at runtime.
//
// Configuration: Switch(N outputs[, INITIAL i]). Handlers: switch (rw).
type Switch struct {
	Base
	nout int
	sel  int
}

// Class implements Element.
func (*Switch) Class() string { return "Switch" }

// Spec implements Element.
func (s *Switch) Spec() PortSpec { return pushPorts(1, s.nout) }

// Configure implements Element.
func (s *Switch) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	n, err := ca.PosInt(0, 2)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("Switch needs at least one output")
	}
	s.nout = n
	if s.sel, err = ca.KeyInt("INITIAL", 0); err != nil {
		return err
	}
	if s.sel >= n {
		return fmt.Errorf("INITIAL %d out of range", s.sel)
	}
	return nil
}

// Push implements Element.
func (s *Switch) Push(port int, p *Packet) {
	if s.sel >= 0 && s.sel < s.nout {
		s.PushOut(s.sel, p)
		return
	}
	p.Kill()
}

// Handlers implements HandlerProvider.
func (s *Switch) Handlers() []Handler {
	return []Handler{{
		Name: "switch",
		Read: func() string { return strconv.Itoa(s.sel) },
		Write: func(v string) error {
			n, err := strconv.Atoi(v)
			if err != nil || n >= s.nout {
				return fmt.Errorf("bad switch value %q", v)
			}
			s.sel = n
			return nil
		},
	}}
}

// PaintSwitch routes by the paint annotation: paint p goes to output p,
// out-of-range paints are dropped.
//
// Configuration: PaintSwitch(N outputs).
type PaintSwitch struct {
	Base
	nout  int
	drops uint64
}

// Class implements Element.
func (*PaintSwitch) Class() string { return "PaintSwitch" }

// Spec implements Element.
func (s *PaintSwitch) Spec() PortSpec { return pushPorts(1, s.nout) }

// Configure implements Element.
func (s *PaintSwitch) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	n, err := ca.PosInt(0, 2)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("PaintSwitch needs at least one output")
	}
	s.nout = n
	return nil
}

// Push implements Element.
func (s *PaintSwitch) Push(port int, p *Packet) {
	if int(p.Paint) < s.nout {
		s.PushOut(int(p.Paint), p)
		return
	}
	s.drops++
	p.Kill()
}

// Handlers implements HandlerProvider.
func (s *PaintSwitch) Handlers() []Handler {
	return []Handler{{Name: "drops", Read: func() string { return strconv.FormatUint(s.drops, 10) }}}
}

// RoundRobinSwitch spreads packets over its outputs in rotation.
//
// Configuration: RoundRobinSwitch(N outputs).
type RoundRobinSwitch struct {
	Base
	nout int
	next int
}

// Class implements Element.
func (*RoundRobinSwitch) Class() string { return "RoundRobinSwitch" }

// Spec implements Element.
func (s *RoundRobinSwitch) Spec() PortSpec { return pushPorts(1, s.nout) }

// Configure implements Element.
func (s *RoundRobinSwitch) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	n, err := ca.PosInt(0, 2)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("RoundRobinSwitch needs at least one output")
	}
	s.nout = n
	return nil
}

// Push implements Element.
func (s *RoundRobinSwitch) Push(port int, p *Packet) {
	s.PushOut(s.next, p)
	s.next = (s.next + 1) % s.nout
}

// HashSwitch routes by flow hash so one flow always takes one output.
//
// Configuration: HashSwitch(N outputs).
type HashSwitch struct {
	Base
	nout int
}

// Class implements Element.
func (*HashSwitch) Class() string { return "HashSwitch" }

// Spec implements Element.
func (s *HashSwitch) Spec() PortSpec { return pushPorts(1, s.nout) }

// Configure implements Element.
func (s *HashSwitch) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	n, err := ca.PosInt(0, 2)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("HashSwitch needs at least one output")
	}
	s.nout = n
	return nil
}

// Push implements Element.
func (s *HashSwitch) Push(port int, p *Packet) {
	hdr, err := pkt.Parse(p.Data())
	var h uint32
	if ft, ok := hdr.FiveTuple(); ok {
		// Symmetric FNV-ish mix so both flow directions share an output.
		a := ft.Src.As4()
		b := ft.Dst.As4()
		for i := 0; i < 4; i++ {
			h = h*16777619 + uint32(a[i]^b[i])
		}
		h = h*16777619 + uint32(ft.SrcPort^ft.DstPort)
		h = h*16777619 + uint32(ft.Proto)
	} else if err == nil {
		for i := 0; i < 6; i++ {
			h = h*16777619 + uint32(hdr.DLSrc[i]^hdr.DLDst[i])
		}
	}
	s.PushOut(int(h%uint32(s.nout)), p)
}

// Tee clones each input packet to every output.
//
// Configuration: Tee(N outputs).
type Tee struct {
	Base
	nout int
}

// Class implements Element.
func (*Tee) Class() string { return "Tee" }

// Spec implements Element.
func (t *Tee) Spec() PortSpec { return pushPorts(1, t.nout) }

// Configure implements Element.
func (t *Tee) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	n, err := ca.PosInt(0, 2)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("Tee needs at least one output")
	}
	t.nout = n
	return nil
}

// Push implements Element.
func (t *Tee) Push(port int, p *Packet) {
	for i := 0; i < t.nout-1; i++ {
		t.PushOut(i, p.Clone())
	}
	t.PushOut(t.nout-1, p)
}

// RandomSample passes packets with probability P and drops the rest.
//
// Configuration: RandomSample(P) with 0 ≤ P ≤ 1. Handlers: sampled,
// dropped (r).
type RandomSample struct {
	Base
	prob    float64
	rng     *rand.Rand
	sampled uint64
	dropped uint64
}

// Class implements Element.
func (*RandomSample) Class() string { return "RandomSample" }

// Spec implements Element.
func (*RandomSample) Spec() PortSpec { return agnostic(1, 1) }

// Configure implements Element.
func (s *RandomSample) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	pv := ca.Key("PROB", ca.Pos(0, "0.5"))
	p, err := strconv.ParseFloat(pv, 64)
	if err != nil || p < 0 || p > 1 {
		return fmt.Errorf("bad sampling probability %q", pv)
	}
	s.prob = p
	seed, err := ca.KeyInt("SEED", 1)
	if err != nil {
		return err
	}
	s.rng = rand.New(rand.NewSource(int64(seed)))
	return nil
}

// SimpleAction implements the agnostic per-packet transform.
func (s *RandomSample) SimpleAction(p *Packet) *Packet {
	if s.rng.Float64() < s.prob {
		s.sampled++
		return p
	}
	s.dropped++
	p.Kill()
	return nil
}

// Handlers implements HandlerProvider.
func (s *RandomSample) Handlers() []Handler {
	return []Handler{
		{Name: "sampled", Read: func() string { return strconv.FormatUint(s.sampled, 10) }},
		{Name: "dropped", Read: func() string { return strconv.FormatUint(s.dropped, 10) }},
	}
}
