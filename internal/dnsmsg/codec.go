package dnsmsg

import (
	"encoding/binary"
	"sync"
)

// Cache bounds for a reused Decoder. When an interning table grows past its
// bound (a flood of unique probe labels, exactly what SPFail campaigns
// generate) it is dropped and rebuilt, so memory stays proportional to the
// working set of distinct names, not to campaign length.
const (
	maxInternedLabels = 4096
	maxCachedRData    = 1024
)

// Decoder decodes DNS messages with amortized zero allocation. It reuses
// one Message (including every Name's label backing array) across calls,
// interns label strings, and caches the RData boxes of context-free record
// types (A, AAAA, TXT — types whose RDATA never embeds compression
// pointers into the surrounding message).
//
// The *Message returned by Decode or DecodeAnswers is owned by the
// Decoder: it is valid only until the Decoder's next decode or PutDecoder
// call. Callers that need to retain the message indefinitely should use
// Unpack instead.
//
// A Decoder pays off for an owner that decodes many messages: the DNS
// server's UDP read loop on an OS socket, each UDP socket a
// dnsclient.Client keeps (for the lookups that read their responses in
// place), and, drawn from the pool, each UDP answer the DNS server runs
// on a fabric sender's goroutine and each DNS-over-TCP server connection.
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	//spfail:allow poolhygiene message slots and label arrays are the warm cache; recycling them is the point
	msg Message
	//spfail:allow poolhygiene interning table deliberately survives recycling; bounded by maxInternedLabels
	labels map[string]string // interned name labels
	//spfail:allow poolhygiene RData box cache deliberately survives recycling; bounded by maxCachedRData
	a4 map[string]RData // cached A boxes keyed by raw RDATA
	//spfail:allow poolhygiene RData box cache deliberately survives recycling; bounded by maxCachedRData
	a6 map[string]RData // cached AAAA boxes keyed by raw RDATA
	//spfail:allow poolhygiene RData box cache deliberately survives recycling; bounded by maxCachedRData
	txt map[string]RData // cached TXT boxes keyed by raw RDATA

	// retained disables slot reuse, interning, and RData caching so the
	// returned Message owns all its memory (the Unpack contract).
	retained bool
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// NewDecoder returns a fresh Decoder for a long-lived owner, such as a
// server read loop or a client's kept socket.
func NewDecoder() *Decoder { return new(Decoder) }

// GetDecoder fetches a pooled Decoder, for an owner as short-lived as one
// UDP answer or one DNS-over-TCP server connection; pair it with
// PutDecoder.
func GetDecoder() *Decoder {
	//spfail:allow poolhygiene Decode truncates every reused slot before filling it; the warm caches are the product
	return decoderPool.Get().(*Decoder)
}

// PutDecoder returns d to the pool. Any *Message previously returned by
// d.Decode must no longer be referenced.
func PutDecoder(d *Decoder) {
	if d != nil && !d.retained {
		d.scrub()
		decoderPool.Put(d)
	}
}

// scrub prepares d for recycling. Unlike most pooled types the Decoder
// keeps its caches on purpose — the interning table and RData boxes are
// what make repeat decodes allocation-free, and Decode bounds and
// truncates them itself — so scrub only clears per-checkout state.
func (d *Decoder) scrub() {
	d.retained = false
}

// Decode decodes a complete DNS message. The returned Message is valid
// until the next Decode, DecodeAnswers or PutDecoder call on this Decoder.
func (d *Decoder) Decode(msg []byte) (*Message, error) { return d.decode(msg, true) }

// DecodeAnswers decodes msg as Decode does, except that it only frames the
// authority and additional records: each must fit in msg, but none is
// decoded, and the Message comes back with empty Authority and Additional
// sections. It is for a reader of the answers alone, such as a Resolver
// lookup, which would otherwise decode the SOA that every negative answer
// carries in its authority section.
func (d *Decoder) DecodeAnswers(msg []byte) (*Message, error) { return d.decode(msg, false) }

// decode is Decode, or DecodeAnswers when extra is false.
//
//spfail:hotpath
func (d *Decoder) decode(msg []byte, extra bool) (*Message, error) {
	if len(d.labels) > maxInternedLabels {
		d.labels = nil
	}
	if len(d.a4) > maxCachedRData {
		d.a4 = nil
	}
	if len(d.a6) > maxCachedRData {
		d.a6 = nil
	}
	if len(d.txt) > maxCachedRData {
		d.txt = nil
	}

	if len(msg) < 12 {
		return nil, ErrTruncatedMessage
	}
	m := &d.msg
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]

	flags := binary.BigEndian.Uint16(msg[2:])
	m.Header = Header{
		ID:                 binary.BigEndian.Uint16(msg[0:]),
		Response:           flags&flagQR != 0,
		OpCode:             OpCode(flags >> 11 & 0xF),
		Authoritative:      flags&flagAA != 0,
		Truncated:          flags&flagTC != 0,
		RecursionDesired:   flags&flagRD != 0,
		RecursionAvailable: flags&flagRA != 0,
		RCode:              RCode(flags & 0xF),
	}
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		m.Questions = growQuestions(m.Questions)
		q := &m.Questions[len(m.Questions)-1]
		if q.Name.labels, off, err = d.readNameInto(msg, off, q.Name.labels); err != nil {
			return nil, err
		}
		if off+4 > len(msg) {
			return nil, ErrTruncatedMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
	}
	if off, err = d.readRecordsInto(&m.Answers, msg, off, an); err != nil {
		return nil, err
	}
	if !extra {
		if _, err = skipRecords(msg, off, ns+ar); err != nil {
			return nil, err
		}
		return m, nil
	}
	if off, err = d.readRecordsInto(&m.Authority, msg, off, ns); err != nil {
		return nil, err
	}
	if _, err = d.readRecordsInto(&m.Additional, msg, off, ar); err != nil {
		return nil, err
	}
	return m, nil
}

// skipRecords frames count records starting at off in msg without decoding
// them: it walks each owner name up to its root byte or first pointer,
// checks that the fixed fields and the RDATA fit in msg, and returns the
// offset just past the last record.
func skipRecords(msg []byte, off, count int) (int, error) {
	for i := 0; i < count; i++ {
		for {
			if off >= len(msg) {
				return 0, ErrTruncatedMessage
			}
			b := msg[off]
			if b == 0 {
				off++
				break
			}
			if b&0xC0 == 0xC0 {
				off += 2 // a pointer ends the name
				break
			}
			if b&0xC0 != 0 {
				return 0, errReservedLabelType
			}
			off += 1 + int(b)
		}
		if off+10 > len(msg) {
			return 0, ErrTruncatedMessage
		}
		if off += 10 + int(binary.BigEndian.Uint16(msg[off+8:])); off > len(msg) {
			return 0, ErrTruncatedMessage
		}
	}
	return off, nil
}

// growQuestions extends s by one reusable slot without clearing the slot's
// existing backing memory (the Name label array is recycled).
func growQuestions(s []Question) []Question {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	return append(s, Question{})
}

func growRecords(s []Record) []Record {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	return append(s, Record{})
}

func (d *Decoder) readRecordsInto(dst *[]Record, msg []byte, off, count int) (int, error) {
	for i := 0; i < count; i++ {
		*dst = growRecords(*dst)
		r := &(*dst)[len(*dst)-1]
		var n int
		var err error
		if r.Name.labels, n, err = d.readNameInto(msg, off, r.Name.labels); err != nil {
			return 0, err
		}
		if n+10 > len(msg) {
			return 0, ErrTruncatedMessage
		}
		typ := Type(binary.BigEndian.Uint16(msg[n:]))
		r.Class = Class(binary.BigEndian.Uint16(msg[n+2:]))
		r.TTL = binary.BigEndian.Uint32(msg[n+4:])
		rdlen := int(binary.BigEndian.Uint16(msg[n+8:]))
		if r.Data, err = d.decodeRDataCached(msg, n+10, rdlen, typ); err != nil {
			return 0, err
		}
		off = n + 10 + rdlen
	}
	return off, nil
}

// readNameInto is readName with the Decoder's label interner and a reusable
// destination slice: labels is truncated and refilled, so a warmed slot
// decodes a name of any previously-seen labels without allocating.
//
//spfail:hotpath
func (d *Decoder) readNameInto(msg []byte, off int, labels []string) ([]string, int, error) {
	labels = labels[:0]
	ptrBudget := len(msg) // any chain longer than the message loops
	jumped := false
	end := off
	total := 1
	for {
		if off >= len(msg) {
			return labels, 0, ErrTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			return labels, end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return labels, 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if ptr >= len(msg) {
				return labels, 0, ErrBadPointer
			}
			if !jumped {
				end = off + 2
				jumped = true
			}
			if ptrBudget--; ptrBudget <= 0 {
				return labels, 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return labels, 0, errReservedLabelType
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return labels, 0, ErrTruncatedMessage
			}
			if total += l + 1; total > MaxNameLen {
				return labels, 0, ErrNameTooLong
			}
			labels = append(labels, d.intern(msg[off+1:off+1+l]))
			off += 1 + l
		}
	}
}

// intern returns a string equal to b, reusing a previously-interned copy
// when available so repeated labels cost no allocation.
//
//spfail:hotpath
func (d *Decoder) intern(b []byte) string {
	if d.retained {
		//spfail:allow hotpathalloc retained path copies by contract (Unpack); pooled decoders never take it
		return string(b)
	}
	if s, ok := d.labels[string(b)]; ok {
		return s
	}
	if d.labels == nil {
		d.labels = make(map[string]string, 64)
	}
	//spfail:allow hotpathalloc first sight of a label must materialize it; amortized to zero by the interner
	s := string(b)
	d.labels[s] = s
	return s
}

// decodeRDataCached decodes RDATA, serving A/AAAA/TXT payloads from the
// per-raw-bytes box cache. Only those types are safe to key by RDATA bytes:
// MX/NS/CNAME/PTR/SOA may contain compression pointers that resolve against
// the surrounding message, so identical bytes can mean different names.
func (d *Decoder) decodeRDataCached(msg []byte, off, length int, typ Type) (RData, error) {
	if off+length > len(msg) {
		return nil, ErrTruncatedMessage
	}
	if d.retained {
		return decodeRData(msg, off, length, typ)
	}
	switch typ {
	case TypeA:
		return d.cachedRData(&d.a4, msg, off, length, typ)
	case TypeAAAA:
		return d.cachedRData(&d.a6, msg, off, length, typ)
	case TypeTXT:
		return d.cachedRData(&d.txt, msg, off, length, typ)
	default:
		return decodeRData(msg, off, length, typ)
	}
}

//spfail:hotpath
func (d *Decoder) cachedRData(m *map[string]RData, msg []byte, off, length int, typ Type) (RData, error) {
	body := msg[off : off+length]
	if rd, ok := (*m)[string(body)]; ok {
		return rd, nil
	}
	rd, err := decodeRData(msg, off, length, typ)
	if err != nil {
		return nil, err
	}
	if *m == nil {
		*m = make(map[string]RData, 16)
	}
	//spfail:allow hotpathalloc first sight of an RDATA payload keys the box cache; amortized to zero
	(*m)[string(body)] = rd
	return rd, nil
}
