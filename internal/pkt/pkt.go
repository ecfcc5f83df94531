// Package pkt implements the packet model used throughout ESCAPE.
//
// Frames travelling over the emulated network (internal/netem), through
// OpenFlow switches (internal/ofswitch) and through Click element graphs
// (internal/click) are real byte slices in standard wire format. This
// package provides the layer types (Ethernet, VLAN, ARP, IPv4, ICMP, UDP,
// TCP), decoding, serialization, header parsing and in-place rewriting.
//
// The design follows the layered decoder idiom popularised by gopacket: a
// decoded Packet holds a stack of Layer values, each layer exposes its
// header fields, and SerializeLayers builds wire bytes from a layer stack.
// Decode serves whoever needs layers — to build a reply, print a frame or
// read a payload. The per-frame path (the switch's flow lookup, Click's
// classifiers, l2_learning, the host stack, the Set* rewriters) reads
// headers through Parse instead: the same layer decoders walked once on
// stack values into a Headers, reading exactly what Decode would and
// allocating nothing. ESCAPE is a prototyping environment, not a
// line-rate forwarder, but that path runs for every frame at every hop.
package pkt

import (
	"fmt"
	"strings"
)

// LayerType identifies a protocol layer within a packet.
type LayerType uint8

// Known layer types.
//
//lint:ignore deadexport the layered decoder is the reference of the parity tests in click, openflow and core, which select its layers by these kinds
const (
	LayerTypeInvalid LayerType = iota
	LayerTypeEthernet
	LayerTypeVLAN
	LayerTypeARP
	LayerTypeIPv4
	LayerTypeICMP
	LayerTypeUDP
	LayerTypeTCP
	LayerTypePayload
)

// String returns the conventional protocol name.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeVLAN:
		return "VLAN"
	case LayerTypeARP:
		return "ARP"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeICMP:
		return "ICMP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypePayload:
		return "Payload"
	}
	return "Invalid"
}

// Layer is a decoded protocol layer.
type Layer interface {
	// LayerType reports which protocol this layer is.
	LayerType() LayerType
	// DecodeFromBytes parses the layer from data, which must start at the
	// first byte of this layer's header.
	DecodeFromBytes(data []byte) error
	// SerializeTo appends the wire representation of the layer to b given
	// the already-serialized payload length (needed for length/checksum
	// fields). It returns the header bytes.
	SerializeTo(payload []byte) ([]byte, error)
	// NextLayerType reports the type of the layer carried in the payload,
	// or LayerTypePayload when unknown/opaque.
	NextLayerType() LayerType
	// Payload returns the bytes this layer carries.
	Payload() []byte
}

// Packet is a decoded frame: the original data plus the parsed layer stack.
type Packet struct {
	data   []byte
	layers []Layer
	// Truncated reports that decoding stopped early because the data was
	// shorter than a header demanded.
	Truncated bool
	// DecodeError holds the error that stopped decoding, if any. Leading
	// layers that decoded successfully are still available.
	DecodeError error
}

// Decode parses data as an Ethernet frame. It never returns a nil Packet:
// undecodable suffixes are recorded in DecodeError/Truncated and the
// successfully decoded prefix layers remain accessible.
func Decode(data []byte) *Packet {
	p := &Packet{data: data}
	var next LayerType = LayerTypeEthernet
	rest := data
	for next != LayerTypePayload && next != LayerTypeInvalid && len(rest) > 0 {
		var l Layer
		switch next {
		case LayerTypeEthernet:
			l = &Ethernet{}
		case LayerTypeVLAN:
			l = &vlan{}
		case LayerTypeARP:
			l = &ARP{}
		case LayerTypeIPv4:
			l = &IPv4{}
		case LayerTypeICMP:
			l = &ICMP{}
		case LayerTypeUDP:
			l = &UDP{}
		case LayerTypeTCP:
			l = &tcp{}
		default:
			next = LayerTypePayload
			continue
		}
		if err := l.DecodeFromBytes(rest); err != nil {
			p.DecodeError = err
			if err == errTooShort {
				p.Truncated = true
			}
			return p
		}
		p.layers = append(p.layers, l)
		rest = l.Payload()
		next = l.NextLayerType()
	}
	return p
}

// Layer returns the first layer of type t, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Ethernet returns the Ethernet layer, or nil.
func (p *Packet) Ethernet() *Ethernet {
	if l := p.Layer(LayerTypeEthernet); l != nil {
		return l.(*Ethernet)
	}
	return nil
}

// IPv4Layer returns the IPv4 layer, or nil.
func (p *Packet) IPv4Layer() *IPv4 {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l.(*IPv4)
	}
	return nil
}

// String renders a one-line summary, e.g.
// "Ethernet 02:..:01>02:..:02 | IPv4 10.0.0.1>10.0.0.2 | UDP 5000>5001 (18B)".
func (p *Packet) String() string {
	var parts []string
	for _, l := range p.layers {
		parts = append(parts, layerSummary(l))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("undecoded (%dB)", len(p.data))
	}
	return strings.Join(parts, " | ")
}

func layerSummary(l Layer) string {
	switch v := l.(type) {
	case *Ethernet:
		return fmt.Sprintf("Ethernet %s>%s 0x%04x", v.Src, v.Dst, uint16(v.EtherType))
	case *vlan:
		return fmt.Sprintf("VLAN %d", v.ID)
	case *ARP:
		op := "req"
		if v.Op == ARPReply {
			op = "reply"
		}
		return fmt.Sprintf("ARP %s %s?%s", op, v.TargetIP, v.SenderIP)
	case *IPv4:
		return fmt.Sprintf("IPv4 %s>%s p%d ttl%d", v.Src, v.Dst, v.Protocol, v.TTL)
	case *ICMP:
		return fmt.Sprintf("ICMP t%d c%d", v.Type, v.Code)
	case *UDP:
		return fmt.Sprintf("UDP %d>%d (%dB)", v.SrcPort, v.DstPort, len(v.payload))
	case *tcp:
		return fmt.Sprintf("TCP %d>%d %s", v.SrcPort, v.DstPort, v.flagString())
	}
	return l.LayerType().String()
}

// SerializeLayers builds a frame from the given layers, innermost payload
// handled last. Length and checksum fields are computed automatically.
func SerializeLayers(layers ...Layer) ([]byte, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("pkt: no layers to serialize")
	}
	payload := []byte(nil)
	for i := len(layers) - 1; i >= 0; i-- {
		hdr, err := layers[i].SerializeTo(payload)
		if err != nil {
			return nil, fmt.Errorf("pkt: serializing %s: %w", layers[i].LayerType(), err)
		}
		buf := make([]byte, 0, len(hdr)+len(payload))
		buf = append(buf, hdr...)
		buf = append(buf, payload...)
		payload = buf
	}
	return payload, nil
}

// Raw is an opaque payload layer.
type Raw []byte

// LayerType implements Layer.
func (Raw) LayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes implements Layer.
func (r Raw) DecodeFromBytes(data []byte) error { return nil }

// SerializeTo implements Layer.
func (r Raw) SerializeTo(payload []byte) ([]byte, error) { return []byte(r), nil }

// NextLayerType implements Layer.
func (Raw) NextLayerType() LayerType { return LayerTypeInvalid }

// Payload implements Layer.
func (Raw) Payload() []byte { return nil }
