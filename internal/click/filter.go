package click

import (
	"escape/internal/pkt"
)

// FrameView is one frame parsed once for any number of filters: what a
// compiled classifier expression can test.
type FrameView struct {
	sum          pkt.Summary
	ip           *pkt.IPv4 // nil unless the frame carries a decodable IPv4 header
	sport, dport uint16
	haveL4       bool // TCP or UDP: sport and dport are ports
}

// ParseFrame parses frame for FrameFilters to test. The view aliases
// frame and is good only while the bytes stay put.
func ParseFrame(frame []byte) FrameView {
	dec := pkt.Decode(frame)
	v := FrameView{ip: dec.IPv4Layer()}
	v.sum, _ = pkt.Summarize(frame)
	if ft, ok := pkt.ExtractFiveTuple(dec); ok {
		v.sport, v.dport = ft.SrcPort, ft.DstPort
		v.haveL4 = ft.Proto == pkt.IPProtoTCP || ft.Proto == pkt.IPProtoUDP
	}
	return v
}

// FrameFilter reports whether a parsed frame matches a compiled
// expression (see CompileFilter).
type FrameFilter func(*FrameView) bool
