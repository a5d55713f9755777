package dnsmsg

import "encoding/binary"

// WireQuery is an allocation-free view of a simple DNS query packet: one
// question, no other sections, uncompressed qname. It is the input of the
// dnsserver template fast path, which answers without ever materializing a
// Message.
type WireQuery struct {
	ID               uint16
	RecursionDesired bool
	Type             Type
	Class            Class
	// NameWire is the qname's wire encoding including the terminating root
	// byte. It aliases the packet and is only valid while the packet is.
	NameWire []byte
}

// ParseWireQuery validates pkt as a plain query eligible for the template
// fast path. Anything unusual — responses, non-query opcodes, multiple
// questions, extra sections (e.g. EDNS OPT), compressed or oversized
// qnames, trailing bytes — returns ok == false so the caller falls back to
// the full decoder.
func ParseWireQuery(pkt []byte) (wq WireQuery, ok bool) {
	if len(pkt) < 12 {
		return WireQuery{}, false
	}
	flags := binary.BigEndian.Uint16(pkt[2:])
	if flags&flagQR != 0 || OpCode(flags>>11&0xF) != OpCodeQuery {
		return WireQuery{}, false
	}
	if binary.BigEndian.Uint16(pkt[4:]) != 1 {
		return WireQuery{}, false
	}
	if pkt[6]|pkt[7]|pkt[8]|pkt[9]|pkt[10]|pkt[11] != 0 {
		return WireQuery{}, false
	}
	off := 12
	total := 1
	for {
		if off >= len(pkt) {
			return WireQuery{}, false
		}
		b := pkt[off]
		if b == 0 {
			off++
			break
		}
		if b&0xC0 != 0 {
			return WireQuery{}, false
		}
		l := int(b)
		if off+1+l > len(pkt) {
			return WireQuery{}, false
		}
		if total += l + 1; total > MaxNameLen {
			return WireQuery{}, false
		}
		off += 1 + l
	}
	if off+4 != len(pkt) {
		return WireQuery{}, false
	}
	return WireQuery{
		ID:               binary.BigEndian.Uint16(pkt),
		RecursionDesired: flags&flagRD != 0,
		Type:             Type(binary.BigEndian.Uint16(pkt[off:])),
		Class:            Class(binary.BigEndian.Uint16(pkt[off+2:])),
		NameWire:         pkt[12:off],
	}, true
}

// WireNameHasSuffix reports whether the uncompressed wire-encoded name
// equals suffix or is a subdomain of it, comparing ASCII
// case-insensitively and never allocating. wire is in NameWire form (the
// terminating root byte is permitted but not required).
func WireNameHasSuffix(wire []byte, suffix Name) bool {
	cnt := 0
	for off := 0; off < len(wire) && wire[off] != 0; {
		l := int(wire[off])
		if l&0xC0 != 0 || off+1+l > len(wire) {
			return false
		}
		cnt++
		off += 1 + l
	}
	if cnt < len(suffix.labels) {
		return false
	}
	off := 0
	for i := cnt - len(suffix.labels); i > 0; i-- {
		off += 1 + int(wire[off])
	}
	for _, l := range suffix.labels {
		n := int(wire[off])
		if n != len(l) || !asciiEqualFold(wire[off+1:off+1+n], l) {
			return false
		}
		off += 1 + n
	}
	return true
}

// ReadWireName decodes a wire-format name starting at wire[0], returning
// the name and the offset just past its encoding.
func ReadWireName(wire []byte) (Name, int, error) {
	return readName(wire, 0)
}
