package click

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"escape/internal/pkt"
)

// FrameFilter reports whether a frame's headers, parsed once by pkt.Parse
// for any number of filters, match a compiled expression (see
// CompileFilter).
type FrameFilter func(*pkt.Headers) bool

// CompileFilter compiles an expression in Click's IPClassifier language
// subset into a predicate over a parsed frame:
//
//	primitives: ip, arp, icmp, tcp, udp, "ip proto P", "src host A",
//	            "dst host A", "host A", "src port N", "dst port N",
//	            "port N", and "-", "true" or "any" for match-all
//	connectives: "and", "or" (no parentheses; and binds tighter)
//
// The catalog's Firewall compiles its rules with it.
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
