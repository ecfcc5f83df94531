package openflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"

	"escape/internal/pkt"
)

// Wildcard bits for Match (ofp_flow_wildcards).
const (
	WildInPort  uint32 = 1 << 0
	WildDLVLAN  uint32 = 1 << 1
	WildDLSrc   uint32 = 1 << 2
	WildDLDst   uint32 = 1 << 3
	WildDLType  uint32 = 1 << 4
	WildNWProto uint32 = 1 << 5
	WildTPSrc   uint32 = 1 << 6
	WildTPDst   uint32 = 1 << 7
	// NW src/dst wildcards are 6-bit CIDR-style counts; 32+ = fully wild.
	wildNWSrcShift        = 8
	wildNWDstShift        = 14
	WildNWSrcAll   uint32 = 32 << wildNWSrcShift
	WildNWDstAll   uint32 = 32 << wildNWDstShift
	WildDLVLANPCP  uint32 = 1 << 20
	WildNWTOS      uint32 = 1 << 21
	// WildAll matches every packet.
	WildAll uint32 = 0x3fffff
)

// VLANNone in DLVLAN means "untagged" (OFP_VLAN_NONE).
const VLANNone = pkt.VLANNone

// Match is the OpenFlow 1.0 12-tuple match structure.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLSrc     pkt.MAC
	DLDst     pkt.MAC
	DLVLAN    uint16
	DLVLANPCP uint8
	DLType    uint16
	NWTOS     uint8
	NWProto   uint8
	NWSrc     netip.Addr
	NWDst     netip.Addr
	TPSrc     uint16
	TPDst     uint16
}

const matchLen = 40

// zero4 is 0.0.0.0; Match always stores valid 4-byte addresses so that
// encode/decode round trips are exact.
var zero4 = netip.AddrFrom4([4]byte{})

// MatchAll returns a match with every field wildcarded.
func MatchAll() Match { return Match{Wildcards: WildAll, NWSrc: zero4, NWDst: zero4} }

func (m *Match) encode(b []byte) []byte {
	buf := make([]byte, matchLen)
	binary.BigEndian.PutUint32(buf[0:4], m.Wildcards)
	binary.BigEndian.PutUint16(buf[4:6], m.InPort)
	copy(buf[6:12], m.DLSrc[:])
	copy(buf[12:18], m.DLDst[:])
	binary.BigEndian.PutUint16(buf[18:20], m.DLVLAN)
	buf[20] = m.DLVLANPCP
	binary.BigEndian.PutUint16(buf[22:24], m.DLType)
	buf[24] = m.NWTOS
	buf[25] = m.NWProto
	putAddr4(buf[28:32], m.NWSrc)
	putAddr4(buf[32:36], m.NWDst)
	binary.BigEndian.PutUint16(buf[36:38], m.TPSrc)
	binary.BigEndian.PutUint16(buf[38:40], m.TPDst)
	return append(b, buf...)
}

func (m *Match) decode(data []byte) error {
	if len(data) < matchLen {
		return fmt.Errorf("match too short: %d", len(data))
	}
	m.Wildcards = binary.BigEndian.Uint32(data[0:4])
	m.InPort = binary.BigEndian.Uint16(data[4:6])
	copy(m.DLSrc[:], data[6:12])
	copy(m.DLDst[:], data[12:18])
	m.DLVLAN = binary.BigEndian.Uint16(data[18:20])
	m.DLVLANPCP = data[20]
	m.DLType = binary.BigEndian.Uint16(data[22:24])
	m.NWTOS = data[24]
	m.NWProto = data[25]
	m.NWSrc = getAddr4(data[28:32])
	m.NWDst = getAddr4(data[32:36])
	m.TPSrc = binary.BigEndian.Uint16(data[36:38])
	m.TPDst = binary.BigEndian.Uint16(data[38:40])
	return nil
}

func putAddr4(b []byte, a netip.Addr) {
	if a.Is4() {
		v := a.As4()
		copy(b, v[:])
	}
}

func getAddr4(b []byte) netip.Addr {
	var v [4]byte
	copy(v[:], b)
	return netip.AddrFrom4(v)
}

// NWSrcBits returns the number of wildcarded low bits for NW src (0..32).
func (m Match) NWSrcBits() int {
	n := int(m.Wildcards >> wildNWSrcShift & 0x3f)
	if n > 32 {
		n = 32
	}
	return n
}

// NWDstBits is NWSrcBits for NW dst.
func (m Match) NWDstBits() int {
	n := int(m.Wildcards >> wildNWDstShift & 0x3f)
	if n > 32 {
		n = 32
	}
	return n
}

// PacketFields is everything from a frame a Match can test, extracted once
// by the datapath.
type PacketFields struct {
	InPort uint16
	pkt.Headers
}

// ExtractFields parses frame into the matchable field set (see pkt.Parse:
// one walk, no allocation). The error is a frame with no Ethernet header.
func ExtractFields(frame []byte, inPort uint16) (PacketFields, error) {
	h, err := pkt.Parse(frame)
	return PacketFields{InPort: inPort, Headers: h}, err
}

// Matches reports whether the fields satisfy the match. Both sides are
// passed by pointer: a flow-table lookup tests one frame's fields against
// every entry, and neither struct is copied per entry.
func (m *Match) Matches(f *PacketFields) bool {
	w := m.Wildcards
	if w&WildInPort == 0 && m.InPort != f.InPort {
		return false
	}
	if w&WildDLSrc == 0 && m.DLSrc != f.DLSrc {
		return false
	}
	if w&WildDLDst == 0 && m.DLDst != f.DLDst {
		return false
	}
	if w&WildDLVLAN == 0 && m.DLVLAN != f.DLVLAN {
		return false
	}
	if w&WildDLVLANPCP == 0 && m.DLVLANPCP != f.VLANPCP {
		return false
	}
	if w&WildDLType == 0 && m.DLType != f.DLType {
		return false
	}
	if w&WildNWTOS == 0 && m.NWTOS != f.NWTOS {
		return false
	}
	if w&WildNWProto == 0 && m.NWProto != f.NWProto {
		return false
	}
	if !cidrMatch(m.NWSrc, f.NWSrc, m.NWSrcBits()) {
		return false
	}
	if !cidrMatch(m.NWDst, f.NWDst, m.NWDstBits()) {
		return false
	}
	if w&WildTPSrc == 0 && m.TPSrc != f.TPSrc {
		return false
	}
	if w&WildTPDst == 0 && m.TPDst != f.TPDst {
		return false
	}
	return true
}

// cidrMatch tests want against got ignoring the lowest wildBits bits.
func cidrMatch(want, got netip.Addr, wildBits int) bool {
	if wildBits >= 32 {
		return true
	}
	if !want.Is4() || !got.Is4() {
		return wildBits >= 32
	}
	wa, ga := want.As4(), got.As4()
	w := binary.BigEndian.Uint32(wa[:])
	g := binary.BigEndian.Uint32(ga[:])
	mask := ^uint32(0) << uint(wildBits)
	return w&mask == g&mask
}

// Specificity counts the number of non-wildcarded fields; useful as a
// default priority for overlapping entries.
func (m Match) Specificity() int {
	n := 0
	for _, bit := range []uint32{WildInPort, WildDLVLAN, WildDLSrc, WildDLDst, WildDLType, WildNWProto, WildTPSrc, WildTPDst, WildDLVLANPCP, WildNWTOS} {
		if m.Wildcards&bit == 0 {
			n++
		}
	}
	n += 32 - m.NWSrcBits()
	n += 32 - m.NWDstBits()
	return n
}

// String renders only the concrete (non-wildcard) fields.
func (m Match) String() string {
	var parts []string
	w := m.Wildcards
	if w&WildInPort == 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if w&WildDLSrc == 0 {
		parts = append(parts, "dl_src="+m.DLSrc.String())
	}
	if w&WildDLDst == 0 {
		parts = append(parts, "dl_dst="+m.DLDst.String())
	}
	if w&WildDLVLAN == 0 {
		parts = append(parts, fmt.Sprintf("dl_vlan=%d", m.DLVLAN))
	}
	if w&WildDLType == 0 {
		parts = append(parts, fmt.Sprintf("dl_type=0x%04x", m.DLType))
	}
	if w&WildNWProto == 0 {
		parts = append(parts, fmt.Sprintf("nw_proto=%d", m.NWProto))
	}
	if m.NWSrcBits() < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", m.NWSrc, 32-m.NWSrcBits()))
	}
	if m.NWDstBits() < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", m.NWDst, 32-m.NWDstBits()))
	}
	if w&WildTPSrc == 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TPSrc))
	}
	if w&WildTPDst == 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TPDst))
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, ",")
}

// ExactMatch builds a match binding every field of f (the classic
// learning-switch exact match).
func ExactMatch(f PacketFields) Match {
	m := Match{
		InPort: f.InPort, DLSrc: f.DLSrc, DLDst: f.DLDst,
		DLVLAN: f.DLVLAN, DLVLANPCP: f.VLANPCP, DLType: f.DLType,
		NWTOS: f.NWTOS, NWProto: f.NWProto, NWSrc: f.NWSrc, NWDst: f.NWDst,
		TPSrc: f.TPSrc, TPDst: f.TPDst,
	}
	if !m.NWSrc.IsValid() {
		m.Wildcards |= WildNWSrcAll
		m.NWSrc = zero4
	}
	if !m.NWDst.IsValid() {
		m.Wildcards |= WildNWDstAll
		m.NWDst = zero4
	}
	return m
}
