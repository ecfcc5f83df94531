package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// In-place frame mutation helpers used by the OpenFlow datapath's
// set-field actions and by NAT-style Click elements. All of them keep the
// IPv4 header checksum and the UDP/TCP pseudo-header checksums correct by
// incremental update (RFC 1624: HC' = ~(~HC + ~m + m')).

// updateChecksum16 folds the replacement of 16-bit value old by new into
// checksum cs.
func updateChecksum16(cs, old, new_ uint16) uint16 {
	sum := uint32(^cs) + uint32(^old) + uint32(new_)
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// SetDLAddr rewrites the destination (dst=true) or source MAC address.
func SetDLAddr(frame []byte, dst bool, mac MAC) error {
	if len(frame) < 14 {
		return ErrTooShort
	}
	if dst {
		copy(frame[0:6], mac[:])
	} else {
		copy(frame[6:12], mac[:])
	}
	return nil
}

var errNotIPv4 = errors.New("pkt: frame is not IPv4")

// parseIPv4 parses frame for a rewriter that needs an IPv4 header.
func parseIPv4(frame []byte) (Headers, error) {
	h, err := Parse(frame)
	if err == nil && !h.IsIPv4() {
		err = errNotIPv4
	}
	return h, err
}

// transportChecksum returns the offset of the UDP or TCP checksum, or -1
// when no UDP or TCP header decoded.
func transportChecksum(h *Headers) int {
	if h.L4 == 0 {
		return -1
	}
	switch IPProtocol(h.NWProto) {
	case IPProtoUDP:
		return int(h.L4) + 6
	case IPProtoTCP:
		return int(h.L4) + 16
	}
	return -1
}

// updateTransportChecksum folds old → new_ into the UDP/TCP checksum, if
// the frame has one; a UDP checksum of zero (none computed) stays zero.
func updateTransportChecksum(frame []byte, h *Headers, old, new_ uint16) {
	csOff := transportChecksum(h)
	if csOff < 0 {
		return
	}
	tcs := binary.BigEndian.Uint16(frame[csOff : csOff+2])
	if !(IPProtocol(h.NWProto) == IPProtoUDP && tcs == 0) {
		binary.BigEndian.PutUint16(frame[csOff:csOff+2], updateChecksum16(tcs, old, new_))
	}
}

// SetNWAddr rewrites the IPv4 destination (dst=true) or source address,
// fixing the IP header checksum and any UDP/TCP checksum.
func SetNWAddr(frame []byte, dst bool, addr netip.Addr) error {
	if !addr.Is4() {
		return fmt.Errorf("pkt: SetNWAddr wants an IPv4 address")
	}
	h, err := parseIPv4(frame)
	if err != nil {
		return err
	}
	ip := int(h.L3)
	fieldOff := ip + 12
	if dst {
		fieldOff = ip + 16
	}
	na := addr.As4()
	for i := 0; i < 4; i += 2 {
		old := binary.BigEndian.Uint16(frame[fieldOff+i : fieldOff+i+2])
		new_ := binary.BigEndian.Uint16(na[i : i+2])
		ipcs := binary.BigEndian.Uint16(frame[ip+10 : ip+12])
		binary.BigEndian.PutUint16(frame[ip+10:ip+12], updateChecksum16(ipcs, old, new_))
		// The transport checksum covers the pseudo-header.
		updateTransportChecksum(frame, &h, old, new_)
		binary.BigEndian.PutUint16(frame[fieldOff+i:fieldOff+i+2], new_)
	}
	return nil
}

// SetTPPort rewrites the destination (dst=true) or source UDP/TCP port,
// fixing the transport checksum.
func SetTPPort(frame []byte, dst bool, port uint16) error {
	h, err := Parse(frame)
	if err != nil {
		return err
	}
	if transportChecksum(&h) < 0 {
		return fmt.Errorf("pkt: frame has no rewritable transport header")
	}
	fieldOff := int(h.L4)
	if dst {
		fieldOff += 2
	}
	old := binary.BigEndian.Uint16(frame[fieldOff : fieldOff+2])
	updateTransportChecksum(frame, &h, old, port)
	binary.BigEndian.PutUint16(frame[fieldOff:fieldOff+2], port)
	return nil
}

// SetNWTOS rewrites the IPv4 TOS byte, fixing the header checksum.
func SetNWTOS(frame []byte, tos uint8) error {
	h, err := parseIPv4(frame)
	if err != nil {
		return err
	}
	ip := int(h.L3)
	// TOS shares a 16-bit word with version/IHL.
	old := binary.BigEndian.Uint16(frame[ip : ip+2])
	frame[ip+1] = tos
	new_ := binary.BigEndian.Uint16(frame[ip : ip+2])
	ipcs := binary.BigEndian.Uint16(frame[ip+10 : ip+12])
	binary.BigEndian.PutUint16(frame[ip+10:ip+12], updateChecksum16(ipcs, old, new_))
	return nil
}
