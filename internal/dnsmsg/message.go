package dnsmsg

import (
	"encoding/binary"
	"fmt"
)

// Header flag bits (RFC 1035 §4.1.1).
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// Header is the fixed 12-byte DNS message header, unpacked.
type Header struct {
	ID                 uint16
	Response           bool
	OpCode             OpCode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a DNS question section entry.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String implements fmt.Stringer.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// NewQuery builds a recursion-desired query for (name, type).
func NewQuery(id uint16, name Name, typ Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: typ, Class: ClassIN}},
	}
}

// reply is a Message allocated together with room for one question.
type reply struct {
	msg Message
	q   [1]Question
}

// Reply builds a response header echoing the query's ID, opcode, question,
// and RD bit. A reply to the usual one-question query is one allocation.
func (m *Message) Reply() *Message {
	rb := new(reply)
	r := &rb.msg
	r.Header = Header{
		ID:               m.Header.ID,
		Response:         true,
		OpCode:           m.Header.OpCode,
		RecursionDesired: m.Header.RecursionDesired,
	}
	if len(m.Questions) > 0 {
		r.Questions = append(rb.q[:0], m.Questions...)
	}
	return r
}

// Append encodes the message onto buf and returns the extended slice.
// Name compression is applied across the whole message.
//
//spfail:hotpath
func (m *Message) Append(buf []byte) ([]byte, error) {
	base := len(buf)
	var flags uint16
	if m.Header.Response {
		flags |= flagQR
	}
	flags |= uint16(m.Header.OpCode&0xF) << 11
	if m.Header.Authoritative {
		flags |= flagAA
	}
	if m.Header.Truncated {
		flags |= flagTC
	}
	if m.Header.RecursionDesired {
		flags |= flagRD
	}
	if m.Header.RecursionAvailable {
		flags |= flagRA
	}
	flags |= uint16(m.Header.RCode & 0xF)

	buf = binary.BigEndian.AppendUint16(buf, m.Header.ID)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additional)))

	// Compression offsets are relative to the start of the DNS message,
	// which must be the start of buf growth for pointers to be valid.
	// When base != 0 compression is disabled. The compressor comes from a
	// pool so a fully-warmed Append into a caller-supplied buffer is
	// allocation-free.
	var cmp *compressor
	if base == 0 {
		cmp = compressorPool.Get().(*compressor)
		cmp.reset()
		defer compressorPool.Put(cmp)
	}

	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, cmp); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, rr := range m.Answers {
		if buf, err = appendRecord(buf, rr, cmp); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Authority {
		if buf, err = appendRecord(buf, rr, cmp); err != nil {
			return nil, err
		}
	}
	for _, rr := range m.Additional {
		if buf, err = appendRecord(buf, rr, cmp); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Pack encodes the message into a fresh buffer.
func (m *Message) Pack() ([]byte, error) {
	return m.Append(make([]byte, 0, 512))
}

func appendRecord(buf []byte, rr Record, cmp *compressor) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, rr.Name, cmp); err != nil {
		return nil, err
	}
	if rr.Data == nil {
		return nil, fmt.Errorf("dnsmsg: record %s has nil data", rr.Name)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Data.Type()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	if buf, err = rr.Data.appendTo(buf, cmp); err != nil {
		return nil, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnsmsg: RDATA of %d bytes exceeds 65535", rdlen)
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// Unpack decodes a complete DNS message into freshly-allocated structures
// that the caller may retain indefinitely. Hot paths that can bound the
// message's lifetime should decode with a Decoder they own instead.
func Unpack(msg []byte) (*Message, error) {
	d := &Decoder{retained: true}
	return d.Decode(msg)
}
