package dnsserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"spfail/internal/dnsmsg"
)

// maxCNAMEDepth bounds CNAME chasing: an answer follows at most this many
// CNAMEs from the question's name.
const maxCNAMEDepth = 4

// ZoneSet is a Handler serving a static set of records. It answers
// authoritatively: names with no records at all get NXDOMAIN; names with
// records of other types get an empty NOERROR; both negative answers carry
// the last SOA of the closest enclosing owner that has one. CNAMEs are
// chased within the set, to depth maxCNAMEDepth.
//
// Each owner's records are one byte slice, in the uncompressed wire form
// dnsmsg.AppendRecord writes, keyed by the owner's wire name with its
// ASCII letters folded to lower case. A zone is then at most two heap
// objects per owner for the collector to trace, its key and its bytes,
// and the owners one Add stores share one allocation for their bytes.
// ServeWire answers a plain query by copying the stored records into the
// response through dnsmsg's name compressor, with nothing decoded and
// nothing built per query.
type ZoneSet struct {
	mu     sync.RWMutex
	owners map[string][]byte // guarded by mu
	enc    []byte            // Add's encoding buffer; guarded by mu
}

// NewZoneSet returns an empty zone set.
func NewZoneSet() *ZoneSet {
	return &ZoneSet{owners: make(map[string][]byte)}
}

// Grow sizes the zone's owner map for n more owners, so a build that
// knows its size in advance stores them without growing the map step by
// step.
func (z *ZoneSet) Grow(n int) {
	z.mu.Lock()
	defer z.mu.Unlock()
	owners := make(map[string][]byte, len(z.owners)+n)
	maps.Copy(owners, z.owners)
	z.owners = owners
}

// Add stores rrs, each owner's records in call order after those it
// already has. A record that does not encode (an A record without an
// IPv4 address, a TXT string over 255 bytes, or any other record
// dnsmsg.AppendRecord refuses) refuses the whole call with that error,
// and nothing from it is stored: such a record could never be served,
// and a stored one would fail every answer that included it. The
// zone-file parser adds one record per line and returns that error as
// the line's error, and so it enforces the TXT wire bounds.
//
// Add takes the lock once and copies the encoded records into one
// slice, so a batch costs one allocation for its bytes and one map write,
// with a key, for each run of consecutive records whose owners fold to
// the same name. A batch grouped by owner therefore pays per owner, not
// per record.
func (z *ZoneSet) Add(rrs ...dnsmsg.Record) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	enc := z.enc[:0]
	for _, r := range rrs {
		next, err := dnsmsg.AppendRecord(enc, r)
		if err != nil {
			return fmt.Errorf("dnsserver: zone refuses a record at %s: %w", r.Name, err)
		}
		enc = next
	}
	z.enc = enc
	if len(enc) > 0 {
		z.store(append(make([]byte, 0, len(enc)), enc...))
	}
	return nil
}

// store writes each run of consecutive records in b, records as
// dnsmsg.AppendRecord writes them, whose owners fold to the same key to
// the owner map: as a capacity-clipped subslice of b for a new owner, so
// that no later append reaches a neighbour's bytes, and appended to the
// records of an owner the zone has.
//
//spfail:locked z.mu
func (z *ZoneSet) store(b []byte) {
	var kb, nb [dnsmsg.MaxNameLen]byte
	for start := 0; start < len(b); {
		key := dnsmsg.AppendFoldedName(kb[:0], b[start:])
		end := start
		for end < len(b) {
			_, _, _, rest := dnsmsg.SplitRecord(b[end:])
			end = len(b) - len(rest)
			if len(rest) > 0 && !bytes.Equal(dnsmsg.AppendFoldedName(nb[:0], rest), key) {
				break
			}
		}
		run := b[start:end:end]
		if old := z.owners[string(key)]; len(old) > 0 {
			run = slices.Concat(old, run)
		}
		z.owners[string(key)] = run
		start = end
	}
}

// AddA is a convenience for adding an A or AAAA record for name.
func (z *ZoneSet) AddA(name dnsmsg.Name, addr netip.Addr) error {
	return z.Add(AddrRecord(name, addr))
}

// AddMX is a convenience for adding an MX record.
func (z *ZoneSet) AddMX(name dnsmsg.Name, pref uint16, host dnsmsg.Name) error {
	return z.Add(MXRecord(name, pref, host))
}

// AddTXT is a convenience for adding a TXT record, splitting long strings.
func (z *ZoneSet) AddTXT(name dnsmsg.Name, text string) error {
	return z.Add(TXTRecord(name, text))
}

// AddrRecord returns the record AddA adds: an IN-class A record for an
// IPv4 address, else an AAAA record, with a TTL of 300 seconds.
func AddrRecord(name dnsmsg.Name, addr netip.Addr) dnsmsg.Record {
	var data dnsmsg.RData
	if addr.Is4() {
		data = dnsmsg.A{Addr: addr}
	} else {
		data = dnsmsg.AAAA{Addr: addr}
	}
	return dnsmsg.Record{Name: name, Class: dnsmsg.ClassIN, TTL: 300, Data: data}
}

// MXRecord returns the record AddMX adds.
func MXRecord(name dnsmsg.Name, pref uint16, host dnsmsg.Name) dnsmsg.Record {
	return dnsmsg.Record{Name: name, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.MX{Preference: pref, Host: host}}
}

// TXTRecord returns the record AddTXT adds, text split into strings of
// at most 255 bytes.
func TXTRecord(name dnsmsg.Name, text string) dnsmsg.Record {
	return dnsmsg.Record{Name: name, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.SplitTXT(text)}
}

// ServeWire implements WireHandler. It answers every plain IN- or
// ANY-class query from the stored records, with the bytes Message.Append
// writes for ServeDNS's reply, and declines other classes, which ServeDNS
// refuses.
func (z *ZoneSet) ServeWire(dst []byte, wq dnsmsg.WireQuery, _ net.Addr) ([]byte, bool) {
	if wq.Class != dnsmsg.ClassIN && wq.Class != dnsmsg.ClassANY {
		return dst, false
	}
	return z.appendAnswer(dst, wq.ID, wq.RecursionDesired, wq.NameWire, wq.Type, wq.Class), true
}

// appendAnswer appends to dst the zone's response to a query with ID id,
// RD bit rd and the question (qname, qtype, qclass), qname in uncompressed
// wire form and echoed as asked. The response starts at len(dst), and its
// compression pointers count from there.
//
//spfail:hotpath
func (z *ZoneSet) appendAnswer(dst []byte, id uint16, rd bool, qname []byte, qtype dnsmsg.Type, qclass dnsmsg.Class) []byte {
	var kb [dnsmsg.MaxNameLen]byte
	key := dnsmsg.AppendFoldedName(kb[:0], qname)
	var c dnsmsg.Compressor
	msg := append(dst[len(dst):], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // header, filled in below
	msg = c.AppendName(msg, qname)
	msg = binary.BigEndian.AppendUint16(msg, uint16(qtype))
	msg = binary.BigEndian.AppendUint16(msg, uint16(qclass))
	var an, ns int
	z.mu.RLock()
	owned, exists := z.owners[string(key)]
	if exists {
		msg, an = appendMatches(z.owners, &c, msg, owned, qtype, 0)
	}
	if an == 0 {
		msg, ns = appendNegativeSOA(z.owners, &c, msg, key)
	}
	z.mu.RUnlock()
	flags := uint16(0x8400) // QR, AA
	if rd {
		flags |= 0x0100
	}
	if !exists {
		flags |= uint16(dnsmsg.RCodeNXDomain)
	}
	binary.BigEndian.PutUint16(msg[0:], id)
	binary.BigEndian.PutUint16(msg[2:], flags)
	binary.BigEndian.PutUint16(msg[4:], 1)
	binary.BigEndian.PutUint16(msg[6:], uint16(an))
	binary.BigEndian.PutUint16(msg[8:], uint16(ns))
	// When msg was built in dst's spare capacity, this copies it onto itself.
	return append(dst, msg...)
}

// appendMatches appends the records of owned, one owner's stored records,
// that answer qtype: those of that type (every one for ANY) and, for other
// types, each CNAME followed by what its target's records answer, up to
// maxCNAMEDepth. It returns the extended msg and the records appended.
func appendMatches(owners map[string][]byte, c *dnsmsg.Compressor, msg, owned []byte, qtype dnsmsg.Type, depth int) ([]byte, int) {
	n := 0
	for recs := owned; len(recs) > 0; {
		rr, typ, rdata, rest := dnsmsg.SplitRecord(recs)
		recs = rest
		if typ == qtype || qtype == dnsmsg.TypeANY {
			msg = c.AppendRecord(msg, rr)
			n++
		}
		if typ == dnsmsg.TypeCNAME && qtype != dnsmsg.TypeCNAME && qtype != dnsmsg.TypeANY && depth < maxCNAMEDepth {
			msg = c.AppendRecord(msg, rr)
			n++
			var kb [dnsmsg.MaxNameLen]byte
			if target, ok := owners[string(dnsmsg.AppendFoldedName(kb[:0], rdata))]; ok {
				var m int
				msg, m = appendMatches(owners, c, msg, target, qtype, depth+1)
				n += m
			}
		}
	}
	return msg, n
}

// appendNegativeSOA appends the last SOA record of the closest owner at or
// above key, a folded wire name, that has one, for a negative answer. It
// returns the extended msg and the records appended, 0 or 1.
func appendNegativeSOA(owners map[string][]byte, c *dnsmsg.Compressor, msg, key []byte) ([]byte, int) {
	for off := 0; ; off += 1 + int(key[off]) {
		var soa []byte
		for recs := owners[string(key[off:])]; len(recs) > 0; {
			rr, typ, _, rest := dnsmsg.SplitRecord(recs)
			if typ == dnsmsg.TypeSOA {
				soa = rr
			}
			recs = rest
		}
		if soa != nil {
			return c.AppendRecord(msg, soa), 1
		}
		if key[off] == 0 {
			return msg, 0
		}
	}
}

// decodedAnswer answers (name, typ) as ServeWire answers an IN-class
// query for it, and decodes the response.
func (z *ZoneSet) decodedAnswer(name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error) {
	pkt, err := dnsmsg.NewQuery(0, name, typ).Pack()
	if err != nil {
		return nil, err
	}
	qname := pkt[12 : len(pkt)-4] // the question's name: Pack writes the first name whole
	return dnsmsg.Unpack(z.appendAnswer(nil, 0, false, qname, typ, dnsmsg.ClassIN))
}

// Lookup returns the records an answer for name and type carries (those
// of the type owned by name, with CNAMEs chased to depth maxCNAMEDepth),
// and whether name owns any records at all.
func (z *ZoneSet) Lookup(name dnsmsg.Name, typ dnsmsg.Type) (rrs []dnsmsg.Record, exists bool) {
	a, err := z.decodedAnswer(name, typ)
	if err != nil {
		return nil, false
	}
	return a.Answers, a.Header.RCode != dnsmsg.RCodeNXDomain
}

// ServeDNS implements Handler by decoding the answer ServeWire writes; it
// refuses classes other than IN and ANY. It returns nil, which the server
// answers with SERVFAIL, when that answer does not decode: a record Add
// took as an Unknown payload that is malformed for its type, say. The
// server answers plain queries through ServeWire; ServeDNS serves the
// rest (extra sections, several questions, other classes).
func (z *ZoneSet) ServeDNS(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
	resp := q.Reply()
	resp.Header.Authoritative = true
	qq := q.Questions[0]
	if qq.Class != dnsmsg.ClassIN && qq.Class != dnsmsg.ClassANY {
		resp.Header.RCode = dnsmsg.RCodeRefused
		return resp
	}
	a, err := z.decodedAnswer(qq.Name, qq.Type)
	if err != nil {
		return nil
	}
	resp.Header.RCode = a.Header.RCode
	resp.Answers, resp.Authority = a.Answers, a.Authority
	return resp
}

// LoggingHandler wraps a Handler, publishing every query it answers to a
// Sink. Now supplies event timestamps (typically clock.Clock.Now). The
// event carries a qname of its own, so sinks may keep it.
type LoggingHandler struct {
	Inner Handler
	Sink  Sink
	Now   func() time.Time
}

// ServeDNS implements Handler: it publishes the query, then dispatches it.
func (h *LoggingHandler) ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message {
	qq := q.Questions[0]
	h.observe(qq.Name.Clone(), qq.Type, from)
	return h.Inner.ServeDNS(q, from)
}

// ServeWire implements WireHandler: it asks Inner for a wire answer and
// publishes the query only once Inner has given one, so a query Inner
// declines is published once, by ServeDNS on the decode path.
func (h *LoggingHandler) ServeWire(dst []byte, wq dnsmsg.WireQuery, from net.Addr) ([]byte, bool) {
	wh, ok := h.Inner.(WireHandler)
	if !ok {
		return dst, false
	}
	out, ok := wh.ServeWire(dst, wq, from)
	if !ok {
		return dst, false
	}
	name, _, err := dnsmsg.ReadWireName(wq.NameWire)
	if err != nil {
		return dst, false // unreachable for a parsed query; the decode path answers and logs it
	}
	h.observe(name, wq.Type, from)
	return out, true
}

// observe publishes one query event for name, which the sink may keep.
func (h *LoggingHandler) observe(name dnsmsg.Name, typ dnsmsg.Type, from net.Addr) {
	var at time.Time
	if h.Now != nil {
		at = h.Now()
	}
	fromStr := ""
	if from != nil {
		fromStr = from.String()
	}
	h.Sink.Observe(QueryEvent{Time: at, From: fromStr, Name: name, Type: typ})
}

// Mux routes queries by name suffix to registered handlers, falling back to
// a default. The longest matching suffix wins.
type Mux struct {
	mu       sync.RWMutex
	routes   []muxRoute
	fallback Handler
}

type muxRoute struct {
	suffix  dnsmsg.Name
	handler Handler
}

// NewMux returns a Mux with the given fallback handler (may be nil, in
// which case unmatched queries get REFUSED).
func NewMux(fallback Handler) *Mux { return &Mux{fallback: fallback} }

// Handle routes queries for suffix (and all names under it) to h.
func (m *Mux) Handle(suffix dnsmsg.Name, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes = append(m.routes, muxRoute{suffix: suffix, handler: h})
}

// route returns the handler for a query name: the route with the longest
// suffix that hasSuffix accepts, else the fallback.
func (m *Mux) route(hasSuffix func(dnsmsg.Name) bool) Handler {
	m.mu.RLock()
	defer m.mu.RUnlock()
	best := m.fallback
	bestLen := -1
	for _, r := range m.routes {
		if r.suffix.NumLabels() > bestLen && hasSuffix(r.suffix) {
			best, bestLen = r.handler, r.suffix.NumLabels()
		}
	}
	return best
}

// ServeDNS implements Handler.
func (m *Mux) ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message {
	if h := m.route(q.Questions[0].Name.HasSuffix); h != nil {
		return h.ServeDNS(q, from)
	}
	resp := q.Reply()
	resp.Header.RCode = dnsmsg.RCodeRefused
	return resp
}

// ServeWire implements WireHandler by routing exactly as ServeDNS does
// (both compare names with ASCII-only case folding) and delegating when
// the chosen handler is itself wire-capable; otherwise, or with no
// handler at all, it declines and ServeDNS answers.
func (m *Mux) ServeWire(dst []byte, wq dnsmsg.WireQuery, from net.Addr) ([]byte, bool) {
	h := m.route(func(suffix dnsmsg.Name) bool { return dnsmsg.WireNameHasSuffix(wq.NameWire, suffix) })
	if wh, ok := h.(WireHandler); ok {
		return wh.ServeWire(dst, wq, from)
	}
	return dst, false
}
