package click

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"testing"

	"escape/internal/pkt"
)

// The classifier front end as it was before it read pkt.Headers: three
// walks per frame — pkt.Decode, an Ethernet+VLAN envelope reader and a
// five-tuple extractor over the decoded layers — into a view the compiled
// predicates tested. All of it is kept here verbatim but for the names, as
// the reference CompileFilter's verdicts over pkt.Parse must agree with.

type legacyEnvelopeFields struct {
	Dst, Src  pkt.MAC
	VLANID    int // -1 if untagged
	EtherType pkt.EtherType
}

func legacyEnvelope(frame []byte) (legacyEnvelopeFields, error) {
	var s legacyEnvelopeFields
	if len(frame) < 14 {
		return s, pkt.ErrTooShort
	}
	copy(s.Dst[:], frame[0:6])
	copy(s.Src[:], frame[6:12])
	et := pkt.EtherType(uint16(frame[12])<<8 | uint16(frame[13]))
	s.VLANID = -1
	if et == pkt.EtherTypeVLAN {
		if len(frame) < 18 {
			return s, pkt.ErrTooShort
		}
		s.VLANID = int(uint16(frame[14])<<8|uint16(frame[15])) & 0x0fff
		et = pkt.EtherType(uint16(frame[16])<<8 | uint16(frame[17]))
	}
	s.EtherType = et
	return s, nil
}

func legacyFiveTuple(p *pkt.Packet) (ft pkt.FiveTuple, ok bool) {
	ip := p.IPv4Layer()
	if ip == nil {
		return ft, false
	}
	ft.Proto = ip.Protocol
	ft.Src = ip.Src
	ft.Dst = ip.Dst
	switch l := p.Layer(pkt.LayerTypeUDP); {
	case l != nil:
		u := l.(*pkt.UDP)
		ft.SrcPort, ft.DstPort = u.SrcPort, u.DstPort
	default:
		if l := p.Layer(pkt.LayerTypeTCP); l != nil {
			t := l.(*pkt.TCP)
			ft.SrcPort, ft.DstPort = t.SrcPort, t.DstPort
		} else if l := p.Layer(pkt.LayerTypeICMP); l != nil {
			ic := l.(*pkt.ICMP)
			ft.SrcPort, ft.DstPort = ic.Ident, ic.Seq
		}
	}
	return ft, true
}

type legacyView struct {
	sum          legacyEnvelopeFields
	ip           *pkt.IPv4 // nil unless the frame carries a decodable IPv4 header
	sport, dport uint16
	haveL4       bool // TCP or UDP: sport and dport are ports
}

func legacyViewOf(frame []byte) legacyView {
	dec := pkt.Decode(frame)
	v := legacyView{ip: dec.IPv4Layer()}
	v.sum, _ = legacyEnvelope(frame)
	if ft, ok := legacyFiveTuple(dec); ok {
		v.sport, v.dport = ft.SrcPort, ft.DstPort
		v.haveL4 = ft.Proto == pkt.IPProtoTCP || ft.Proto == pkt.IPProtoUDP
	}
	return v
}

type legacyFilter func(*legacyView) bool

func legacyCompileFilter(expr string) (legacyFilter, error) {
	expr = strings.TrimSpace(expr)
	if expr == "-" || expr == "true" || expr == "any" || expr == "" {
		return func(*legacyView) bool { return true }, nil
	}
	var orTerms []legacyFilter
	for _, orPart := range strings.Split(expr, " or ") {
		var andTerms []legacyFilter
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
					p, err := legacyProtoPredicate(proto)
					if err != nil {
						return nil, err
					}
					andTerms = append(andTerms, p)
				} else {
					andTerms = append(andTerms, func(v *legacyView) bool { return v.ip != nil })
				}
			case "arp":
				andTerms = append(andTerms, func(v *legacyView) bool { return v.sum.EtherType == pkt.EtherTypeARP })
			case "icmp", "tcp", "udp":
				p, err := legacyProtoPredicate(toks[i])
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
				andTerms = append(andTerms, func(v *legacyView) bool {
					if v.ip == nil {
						return false
					}
					switch d {
					case "src":
						return v.ip.Src == addr
					case "dst":
						return v.ip.Dst == addr
					default:
						return v.ip.Src == addr || v.ip.Dst == addr
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
				andTerms = append(andTerms, func(v *legacyView) bool {
					if !v.haveL4 {
						return false
					}
					switch d {
					case "src":
						return v.sport == want
					case "dst":
						return v.dport == want
					default:
						return v.sport == want || v.dport == want
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
		orTerms = append(orTerms, func(v *legacyView) bool {
			for _, t := range and {
				if !t(v) {
					return false
				}
			}
			return true
		})
	}
	return func(v *legacyView) bool {
		for _, t := range orTerms {
			if t(v) {
				return true
			}
		}
		return false
	}, nil
}

func legacyProtoPredicate(name string) (legacyFilter, error) {
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
	return func(v *legacyView) bool { return v.ip != nil && v.ip.Protocol == want }, nil
}

// filterExprs is the fixed expression set the verdicts are compared over:
// every primitive, both connectives, and the traps — an ARP request's
// opcode 1 is ICMP's protocol number, its addresses sit where IPv4's do,
// and a non-first fragment or an ICMP echo has no ports.
var filterExprs = []string{
	"-", "ip", "arp", "icmp", "tcp", "udp", "ip proto udp",
	"src host 10.0.0.1", "dst host 10.0.0.2", "host 10.0.0.2",
	"src port 5000", "dst port 53", "port 80", "dst port 0", "port 3",
	"udp and dst port 53", "arp or dst port 80", "icmp or src host 10.0.0.1",
	"tcp and src port 4000 or arp",
}

type compiledExpr struct {
	expr string
	got  FrameFilter
	want legacyFilter
}

func compileExprs(t testing.TB) []compiledExpr {
	t.Helper()
	var out []compiledExpr
	for _, expr := range filterExprs {
		got, err := CompileFilter(expr)
		want, wantErr := legacyCompileFilter(expr)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: compile err %v, reference %v", expr, err, wantErr)
		}
		if err == nil {
			out = append(out, compiledExpr{expr, got, want})
		}
	}
	return out
}

// checkVerdicts fails unless every expression gives frame the verdict the
// reference gives it; seen counts each expression's true verdicts.
func checkVerdicts(t testing.TB, exprs []compiledExpr, frame []byte, seen map[string]int) {
	t.Helper()
	h, _ := pkt.Parse(frame)
	v := legacyViewOf(frame)
	for _, e := range exprs {
		got, want := e.got(&h), e.want(&v)
		if got != want {
			t.Fatalf("%q on %x: verdict %v, reference %v", e.expr, frame, got, want)
		}
		if got {
			seen[e.expr]++
		}
	}
}

// filterSeeds are frames of every kind the expressions tell apart;
// testdata/fuzz/FuzzFilterVerdicts holds the same set.
func filterSeeds(t testing.TB) map[string][]byte {
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
	arp := must(pkt.BuildARPRequest(src, a, b))
	frag := bytes.Clone(udp)
	frag[14+6], frag[14+7] = 0x00, 0x10 // fragment offset 16
	return map[string][]byte{
		"udp":      udp,
		"tcp":      tcp,
		"icmp":     must(pkt.BuildICMPEcho(src, dst, a, b, pkt.ICMPEchoRequest, 9, 3, []byte("ping"))),
		"arp":      arp,
		"fragment": frag,
		"vlan-tcp": must(pkt.PushVLAN(tcp, 0x123)),
		"vlan-udp": must(pkt.PushVLAN(udp, 7)),
		"vlan-arp": must(pkt.PushVLAN(arp, 4094)),
		"short16":  must(pkt.PushVLAN(udp, 7))[:16],
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

// TestFilterVerdictsMatchLegacyViewReference is the behaviour-parity check
// of CompileFilter over pkt.Parse: over 64k steered random frames every
// expression gives the verdict it gave over the legacy view. Expressions must
// match some frames and miss others, or the frames steered nowhere.
func TestFilterVerdictsMatchLegacyViewReference(t *testing.T) {
	exprs := compileExprs(t)
	seeds := filterSeeds(t)
	var frames [][]byte
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		frames = append(frames, seeds[name])
	}
	const n = 1 << 16
	rng := rand.New(rand.NewSource(27))
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		checkVerdicts(t, exprs, steer(rng, frames[rng.Intn(len(frames))]), seen)
	}
	for _, e := range exprs {
		// "-" matches every frame; "port 3" is the ICMP echo's sequence
		// number, no port, and may match none.
		if c := seen[e.expr]; e.expr != "-" && c == n || e.expr != "port 3" && c == 0 {
			t.Errorf("%q matched %d of %d frames", e.expr, c, n)
		}
	}
}

func FuzzFilterVerdicts(f *testing.F) {
	for _, frame := range filterSeeds(f) {
		f.Add(frame)
	}
	exprs := compileExprs(f)
	f.Fuzz(func(t *testing.T, frame []byte) { checkVerdicts(t, exprs, frame, map[string]int{}) })
}
