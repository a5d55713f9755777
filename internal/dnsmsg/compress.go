package dnsmsg

import (
	"encoding/binary"
	"sync"
)

// maxCompressorEntries bounds the number of name offsets a compressor
// tracks. Entries beyond the cap are silently not registered, which only
// degrades compression, never correctness. 64 covers every response the
// probing stack emits (a handful of names per section).
const maxCompressorEntries = 64

// compressorPtrBudget bounds pointer chasing while comparing a candidate
// suffix against already-encoded wire bytes. Encoded names never chain more
// than MaxNameLen/2 pointers; 64 is comfortably above that.
const compressorPtrBudget = 64

// compressor is the RFC 1035 §4.1.4 name-compression state for one message
// encode. Instead of a map from canonical suffix strings to offsets (which
// allocates a key per suffix), it records the buffer offsets at which name
// suffixes begin and matches candidates by walking the wire bytes already
// written — making encode allocation-free. Every name, a Name or a zone's
// stored wire name, is written uncompressed and then compressed in place
// by compress.
type compressor struct {
	offs [maxCompressorEntries]uint16
	n    int
}

var compressorPool = sync.Pool{New: func() any { return new(compressor) }}

func (c *compressor) reset() { c.n = 0 }

// add registers off as the start of a freshly-encoded name suffix.
func (c *compressor) add(off int) {
	if c.n < maxCompressorEntries && off < 0x3FFF {
		c.offs[c.n] = uint16(off)
		c.n++
	}
}

// compress compresses the valid uncompressed name that buf holds from
// start to its end: the first of its suffixes already on the wire before
// it becomes a pointer, and each label ahead of that suffix registers its
// offset. Each lookup sees only buf[:off], what a label-by-label encoder
// would have written by then.
func (c *compressor) compress(buf []byte, start int) []byte {
	for off := start; buf[off] != 0; off += 1 + int(buf[off]) {
		if p, ok := c.lookup(buf[:off], buf[off:]); ok {
			return append(buf[:off], 0xC0|byte(p>>8), byte(p))
		}
		c.add(off)
	}
	return buf
}

// lookup returns the offset of an already-encoded name equal to the
// uncompressed wire name, comparing case-insensitively against the wire
// bytes in buf.
func (c *compressor) lookup(buf, wire []byte) (uint16, bool) {
	for i := 0; i < c.n; i++ {
		if wireNameEquals(buf, int(c.offs[i]), wire) {
			return c.offs[i], true
		}
	}
	return 0, false
}

// wireNameEquals reports whether the (possibly compressed) name encoded at
// buf[off:] equals the uncompressed wire name, case-insensitively. It only
// ever follows pointers into bytes the encoder itself wrote, so a bounded
// hop budget is a pure belt-and-suspenders check.
func wireNameEquals(buf []byte, off int, wire []byte) bool {
	hops := 0
	for i := 0; wire[i] != 0; i += 1 + int(wire[i]) {
		off, hops = followPointers(buf, off, hops)
		if off < 0 || off >= len(buf) {
			return false
		}
		n := int(buf[off])
		if n == 0 || n&0xC0 != 0 || n != int(wire[i]) || off+1+n > len(buf) {
			return false
		}
		if !asciiEqualFold(buf[off+1:off+1+n], wire[i+1:i+1+n]) {
			return false
		}
		off += 1 + n
	}
	off, _ = followPointers(buf, off, hops)
	return off >= 0 && off < len(buf) && buf[off] == 0
}

// followPointers resolves a chain of compression pointers starting at off,
// returning the offset of the first non-pointer byte, or -1 on a malformed
// or over-long chain.
func followPointers(buf []byte, off, hops int) (int, int) {
	for off < len(buf) && buf[off]&0xC0 == 0xC0 {
		if off+1 >= len(buf) {
			return -1, hops
		}
		if hops++; hops > compressorPtrBudget {
			return -1, hops
		}
		off = int(buf[off]&0x3F)<<8 | int(buf[off+1])
	}
	return off, hops
}

// asciiEqualFold reports ASCII case-insensitive equality of a and b, the
// comparison RFC 4343 §3 prescribes for domain names: bytes outside A-Z
// and a-z compare as they are. It never allocates, unlike
// strings.EqualFold on a converted []byte, and it is the one case rule of
// every name comparison in the package.
func asciiEqualFold[A, B ~string | ~[]byte](a A, b B) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if asciiLower(a[i]) != asciiLower(b[i]) {
			return false
		}
	}
	return true
}

// asciiLower folds an ASCII upper-case letter to lower case and leaves
// every other byte as it is.
func asciiLower(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// Compressor writes names into one message with RFC 1035 §4.1.4
// compression, as Message.Append does, for a caller that builds the
// message from wire bytes: a zone answering from its stored records. The
// message starts at index 0 of the buffer its methods append to, and the
// zero Compressor starts a new message.
type Compressor struct{ c compressor }

// AppendName appends wire, a valid uncompressed name ending in its root
// byte (a WireQuery's NameWire, say), to msg.
func (c *Compressor) AppendName(msg, wire []byte) []byte {
	return c.c.compress(append(msg, wire...), len(msg))
}

// AppendRecord appends rr, one record as AppendRecord writes it, to msg,
// compressing its owner name and the names in its RDATA where
// Message.Append would (rdataNames).
func (c *Compressor) AppendRecord(msg, rr []byte) []byte {
	n := wireNameLen(rr)
	msg = c.AppendName(msg, rr[:n])
	msg = append(msg, rr[n:n+8]...) // type, class, TTL
	rdata := rr[n+10:]
	lenAt := len(msg)
	msg = append(msg, 0, 0)
	prefix, names := rdataNames(Type(binary.BigEndian.Uint16(rr[n:])))
	msg = append(msg, rdata[:prefix]...)
	rdata = rdata[prefix:]
	for ; names > 0; names-- {
		m := wireNameLen(rdata)
		msg = c.AppendName(msg, rdata[:m])
		rdata = rdata[m:]
	}
	msg = append(msg, rdata...)
	binary.BigEndian.PutUint16(msg[lenAt:], uint16(len(msg)-lenAt-2))
	return msg
}

// rdataNames is the one list of the RDATA types whose names
// Message.Append compresses, and where those names sit in the RDATA their
// appendTo writes: names of them in a row after prefix fixed bytes. names
// is 0 for every other type.
func rdataNames(t Type) (prefix, names int) {
	switch t {
	case TypeMX:
		return 2, 1 // preference, exchange
	case TypeNS, TypeCNAME, TypePTR:
		return 0, 1
	case TypeSOA:
		return 0, 2 // MNAME, RNAME, then five 32-bit fields
	}
	return 0, 0
}

// wireNameLen returns the length of the uncompressed wire name at the
// start of wire, its root byte included.
func wireNameLen(wire []byte) int {
	off := 0
	for wire[off] != 0 {
		off += 1 + int(wire[off])
	}
	return off + 1
}
