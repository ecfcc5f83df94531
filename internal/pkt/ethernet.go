package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// errTooShort reports that a buffer was shorter than the header it should
// contain.
var errTooShort = errors.New("pkt: data too short")

// EtherType selects the protocol carried by an Ethernet frame.
type EtherType uint16

// EtherTypes used by ESCAPE.
//
//lint:ignore deadexport wire constants: the block is the protocol's table, unused codes included
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeVLAN EtherType = 0x8100
)

// MAC is a 48-bit Ethernet address. The array form keeps it usable as a map
// key (flow tables, MAC learning) without allocation.
type MAC [6]byte

// String formats the address as colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType EtherType
	payload   []byte
}

// LayerType implements Layer.
func (*Ethernet) LayerType() LayerType { return LayerTypeEthernet }

// DecodeFromBytes implements Layer.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < 14 {
		return errTooShort
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:14]))
	e.payload = data[14:]
	return nil
}

// SerializeTo implements Layer.
func (e *Ethernet) SerializeTo(payload []byte) ([]byte, error) {
	hdr := make([]byte, 14)
	copy(hdr[0:6], e.Dst[:])
	copy(hdr[6:12], e.Src[:])
	binary.BigEndian.PutUint16(hdr[12:14], uint16(e.EtherType))
	return hdr, nil
}

// NextLayerType implements Layer.
func (e *Ethernet) NextLayerType() LayerType {
	switch e.EtherType {
	case EtherTypeIPv4:
		return LayerTypeIPv4
	case EtherTypeARP:
		return LayerTypeARP
	case EtherTypeVLAN:
		return LayerTypeVLAN
	}
	return LayerTypePayload
}

// Payload implements Layer.
func (e *Ethernet) Payload() []byte { return e.payload }

// vlan is an 802.1Q tag. ESCAPE's steering module uses VLAN IDs to mark
// which service chain (and chain hop) a frame belongs to.
type vlan struct {
	Priority  uint8 // PCP, 3 bits
	DropElig  bool  // DEI
	ID        uint16
	EtherType EtherType // encapsulated ethertype
	payload   []byte
}

// maxVLANID is the largest valid 802.1Q VLAN identifier.
const maxVLANID = 4094

// LayerType implements Layer.
func (*vlan) LayerType() LayerType { return LayerTypeVLAN }

// DecodeFromBytes implements Layer.
func (v *vlan) DecodeFromBytes(data []byte) error {
	if len(data) < 4 {
		return errTooShort
	}
	tci := binary.BigEndian.Uint16(data[0:2])
	v.Priority = uint8(tci >> 13)
	v.DropElig = tci&0x1000 != 0
	v.ID = tci & 0x0fff
	v.EtherType = EtherType(binary.BigEndian.Uint16(data[2:4]))
	v.payload = data[4:]
	return nil
}

// SerializeTo implements Layer.
func (v *vlan) SerializeTo(payload []byte) ([]byte, error) {
	if v.ID > maxVLANID {
		return nil, fmt.Errorf("vlan id %d out of range", v.ID)
	}
	hdr := make([]byte, 4)
	tci := uint16(v.Priority)<<13 | v.ID
	if v.DropElig {
		tci |= 0x1000
	}
	binary.BigEndian.PutUint16(hdr[0:2], tci)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(v.EtherType))
	return hdr, nil
}

// NextLayerType implements Layer.
func (v *vlan) NextLayerType() LayerType {
	switch v.EtherType {
	case EtherTypeIPv4:
		return LayerTypeIPv4
	case EtherTypeARP:
		return LayerTypeARP
	}
	return LayerTypePayload
}

// Payload implements Layer.
func (v *vlan) Payload() []byte { return v.payload }
