package dnsmsg

import (
	"encoding/binary"
	"fmt"
)

// WireQuery is an allocation-free view of a simple DNS query packet: one
// question with an uncompressed qname, and no other records but an
// optional EDNS OPT pseudo-record. It is the input of the DNS server's
// wire path, on which a zone answers from its stored wire records without
// ever materializing a Message.
type WireQuery struct {
	ID               uint16
	RecursionDesired bool
	Type             Type
	Class            Class
	// NameWire is the qname's wire encoding including the terminating root
	// byte. It aliases the packet and is only valid while the packet is.
	NameWire []byte
}

// typeOPT is the type of the EDNS(0) OPT pseudo-record (RFC 6891 §6.1).
const typeOPT Type = 41

// ParseWireQuery validates pkt as a plain query eligible for the wire
// path: one question with an uncompressed qname and no other records but
// at most one EDNS OPT pseudo-record, as recursive resolvers attach: the
// root as owner, type OPT, and RDATA that ends the packet. The OPT record
// is not read further; the decode path's reply carries no OPT either, so
// a wire answer keeps that reply's bytes. Anything else — responses,
// non-query opcodes, multiple questions, answer or authority records, any
// other additional record, compressed or oversized qnames, trailing bytes
// — returns ok == false so the caller falls back to the full decoder.
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
	if pkt[6]|pkt[7]|pkt[8]|pkt[9]|pkt[10] != 0 || pkt[11] > 1 {
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
	if off+4 > len(pkt) {
		return WireQuery{}, false
	}
	if rest := pkt[off+4:]; pkt[11] == 0 && len(rest) > 0 || pkt[11] == 1 && !isOPT(rest) {
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

// isOPT reports whether rr is exactly one OPT pseudo-record: the root as
// owner, type OPT, class, TTL, and an RDATA length that ends it.
func isOPT(rr []byte) bool {
	return len(rr) >= 11 && rr[0] == 0 && Type(binary.BigEndian.Uint16(rr[1:])) == typeOPT &&
		11+int(binary.BigEndian.Uint16(rr[9:])) == len(rr)
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

// AppendFoldedName appends the uncompressed wire name at the start of
// wire to dst with its ASCII letters folded to lower case, the one case
// rule of every name comparison in the package: names that compare equal
// fold to the same bytes, so the result can key a map of names. Length
// bytes are at most 63, below 'A', so only letters change.
func AppendFoldedName(dst, wire []byte) []byte {
	for _, b := range wire[:wireNameLen(wire)] {
		dst = append(dst, asciiLower(b))
	}
	return dst
}

// AppendRecord appends rr to dst in uncompressed wire form: owner name,
// type, class, TTL, RDATA length and RDATA, with every name spelled out.
// A zone stores its records in this form, and Compressor.AppendRecord
// writes one of them into a message. A record that does not encode is an
// error, and so is an Unknown payload of a type whose RDATA names
// Message.Append compresses (rdataNames), since Compressor.AppendRecord
// would read its raw bytes as names.
func AppendRecord(dst []byte, rr Record) ([]byte, error) {
	if u, ok := rr.Data.(Unknown); ok {
		if _, names := rdataNames(u.T); names > 0 {
			return nil, fmt.Errorf("dnsmsg: record %s carries %s RDATA as raw bytes", rr.Name, u.T)
		}
	}
	return appendRecord(dst, rr, nil)
}

// SplitRecord splits the first record off recs, a run of records as
// AppendRecord writes them: it returns that record, its type, its RDATA,
// and the records after it.
func SplitRecord(recs []byte) (rr []byte, typ Type, rdata, rest []byte) {
	n := wireNameLen(recs)
	end := n + 10 + int(binary.BigEndian.Uint16(recs[n+8:]))
	return recs[:end], Type(binary.BigEndian.Uint16(recs[n:])), recs[n+10 : end], recs[end:]
}
