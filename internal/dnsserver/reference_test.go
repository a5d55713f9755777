package dnsserver

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"spfail/internal/dnsmsg"
	"spfail/internal/netsim"
)

// refZone is the zone store ZoneSet kept before it stored wire bytes:
// decoded records under CanonicalKey, the last SOA of each key for
// negative answers, and replies built as Messages. It shares no code with
// the wire path, so every answer the server sends from a ZoneSet must
// equal, byte for byte, what Message.Append writes for refZone's reply.
type refZone struct {
	records map[string][]dnsmsg.Record
	soa     map[string]dnsmsg.Record
}

func newRefZone(rrs ...dnsmsg.Record) *refZone {
	z := &refZone{records: map[string][]dnsmsg.Record{}, soa: map[string]dnsmsg.Record{}}
	for _, r := range rrs {
		key := r.Name.CanonicalKey()
		z.records[key] = append(z.records[key], r)
		if r.Data.Type() == dnsmsg.TypeSOA {
			z.soa[key] = r
		}
	}
	return z
}

func (z *refZone) lookup(name dnsmsg.Name, typ dnsmsg.Type, depth int) ([]dnsmsg.Record, bool) {
	owned, ok := z.records[name.CanonicalKey()]
	if !ok {
		return nil, false
	}
	var out []dnsmsg.Record
	for _, r := range owned {
		t := r.Data.Type()
		if t == typ || typ == dnsmsg.TypeANY {
			out = append(out, r)
		}
		if t == dnsmsg.TypeCNAME && typ != dnsmsg.TypeCNAME && typ != dnsmsg.TypeANY && depth < 4 {
			out = append(out, r)
			target, _ := z.lookup(r.Data.(dnsmsg.CNAME).Target, typ, depth+1)
			out = append(out, target...)
		}
	}
	return out, true
}

func (z *refZone) negativeAuthority(name dnsmsg.Name) []dnsmsg.Record {
	for n := name; ; n = n.Parent() {
		if soa, ok := z.soa[n.CanonicalKey()]; ok {
			return []dnsmsg.Record{soa}
		}
		if n.IsRoot() {
			return nil
		}
	}
}

func (z *refZone) serve(q *dnsmsg.Message) *dnsmsg.Message {
	resp := q.Reply()
	resp.Header.Authoritative = true
	qq := q.Questions[0]
	if qq.Class != dnsmsg.ClassIN && qq.Class != dnsmsg.ClassANY {
		resp.Header.RCode = dnsmsg.RCodeRefused
		return resp
	}
	rrs, exists := z.lookup(qq.Name, qq.Type, 0)
	if !exists {
		resp.Header.RCode = dnsmsg.RCodeNXDomain
	}
	resp.Answers = rrs
	if len(rrs) == 0 {
		resp.Authority = z.negativeAuthority(qq.Name)
	}
	return resp
}

// responses returns the reference's reply to pkt as a server sends it:
// over UDP, where a reply over 512 bytes is re-encoded as its header and
// question with TC set, and over TCP, where a reply too long for the
// two-byte length prefix is not sent (nil).
func (z *refZone) responses(t testing.TB, pkt []byte) (udp, tcp []byte) {
	q, err := dnsmsg.Unpack(pkt)
	if err != nil {
		t.Fatalf("query %x does not decode: %v", pkt, err)
	}
	resp := z.serve(q)
	out, err := resp.Append(nil)
	if err != nil {
		t.Fatalf("reference reply to %s does not encode: %v", q.Questions[0], err)
	}
	udp, tcp = out, out
	if len(out) > MaxUDPPayload {
		tr := dnsmsg.Message{Header: resp.Header, Questions: resp.Questions}
		tr.Header.Truncated = true
		if udp, err = tr.Append(nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(out) > 0xFFFF {
		tcp = nil
	}
	return udp, tcp
}

// sent returns what s sends in answer to pkt: over UDP, as answer writes
// it to the client's endpoint, or over TCP, unframed; nil when it sends
// nothing (over TCP, a response too long for the length prefix).
func sent(t testing.TB, s *Server, pkt []byte, udp bool) []byte {
	from := netsim.Addr{Net: "udp", Host: "198.51.100.1", Port: 40001}
	d := dnsmsg.GetDecoder()
	defer dnsmsg.PutDecoder(d)
	if udp {
		var pc capturePC
		s.answer(d, &pc, nil, pkt, from)
		return pc.last
	}
	framed, err := s.appendTCPResponse(nil, d, pkt, from)
	if err != nil {
		return nil
	}
	if n := int(binary.BigEndian.Uint16(framed)); n != len(framed)-2 {
		t.Fatalf("TCP length prefix %d for a %d-byte message", n, len(framed)-2)
	}
	return framed[2:]
}

// checkAgainstReference sends pkt to a server over z over both transports
// and fails unless each response equals the reference's. It reports
// whether the wire path answered. The spoof-world test calls it millions
// of times, so the helpers under it do not call t.Helper, which walks the
// stack on every call.
func checkAgainstReference(t testing.TB, z *ZoneSet, ref *refZone, pkt []byte) bool {
	t.Helper()
	s := &Server{Handler: z}
	wantUDP, wantTCP := ref.responses(t, pkt)
	for _, c := range []struct {
		udp  bool
		want []byte
	}{{true, wantUDP}, {false, wantTCP}} {
		if got := sent(t, s, pkt, c.udp); !bytes.Equal(got, c.want) {
			q, _ := dnsmsg.Unpack(pkt)
			t.Fatalf("udp=%v %s: server sent\n%x\nreference sends\n%x", c.udp, q.Questions[0], got, c.want)
		}
	}
	_, wire := s.ServeQuery(nil, pkt, nil)
	return wire
}

// zoneOf builds a ZoneSet and its reference from the same records. The
// ZoneSet takes them in batches: one Add for all of them, or, when cut is
// not nil, a new Add at each record i > 0 for which cut(i) is true.
func zoneOf(t testing.TB, cut func(i int) bool, rrs ...dnsmsg.Record) (*ZoneSet, *refZone) {
	t.Helper()
	z := NewZoneSet()
	start := 0
	for i := 1; i <= len(rrs); i++ {
		if i < len(rrs) && (cut == nil || !cut(i)) {
			continue
		}
		if err := z.Add(rrs[start:i]...); err != nil {
			t.Fatal(err)
		}
		start = i
	}
	return z, newRefZone(rrs...)
}

// records decodes every record z stores, owner by owner in key order.
func (z *ZoneSet) records(t testing.TB) []dnsmsg.Record {
	t.Helper()
	z.mu.RLock()
	defer z.mu.RUnlock()
	keys := make([]string, 0, len(z.owners))
	for k := range z.owners {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []dnsmsg.Record
	for _, k := range keys {
		n := 0
		for recs := z.owners[k]; len(recs) > 0; n++ {
			_, _, _, recs = dnsmsg.SplitRecord(recs)
		}
		// A header whose answer count covers the stored records, which
		// carry no compression pointers, is a message of its own.
		msg := binary.BigEndian.AppendUint16(make([]byte, 6), uint16(n))
		msg = append(append(msg, 0, 0, 0, 0), z.owners[k]...)
		m, err := dnsmsg.Unpack(msg)
		if err != nil || len(m.Answers) != n {
			t.Fatalf("owner %q: stored records do not decode: %v", k, err)
		}
		out = append(out, m.Answers...)
	}
	return out
}

var allQueryTypes = []dnsmsg.Type{
	dnsmsg.TypeA, dnsmsg.TypeNS, dnsmsg.TypeCNAME, dnsmsg.TypeSOA, dnsmsg.TypePTR,
	dnsmsg.TypeMX, dnsmsg.TypeTXT, dnsmsg.TypeAAAA, dnsmsg.TypeANY,
}

// spellings returns n, a child of n that no zone owns, and two mixed-case
// spellings of n.
func spellings(t testing.TB, n dnsmsg.Name) []dnsmsg.Name {
	t.Helper()
	labels := n.Labels()
	mixed := func(upper func(i int) bool) dnsmsg.Name {
		out := make([]string, len(labels))
		for i, l := range labels {
			b := []byte(l)
			for j := range b {
				if upper(i+j) && 'a' <= b[j] && b[j] <= 'z' {
					b[j] -= 'a' - 'A'
				}
			}
			out[i] = string(b)
		}
		m, err := dnsmsg.NewName(out...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	out := []dnsmsg.Name{n, mixed(func(i int) bool { return i%2 == 0 }), mixed(func(int) bool { return true })}
	if child, err := n.Child("zz-nx"); err == nil {
		out = append(out, child)
	}
	return out
}

// checkEveryOwner asks a server over z, on both transports, every query
// type for every owner z stores under each of the owner's spellings, and
// checks each response against a reference built from z's records. It
// returns the number of queries asked.
func checkEveryOwner(t *testing.T, z *ZoneSet) int {
	recs := z.records(t)
	ref := newRefZone(recs...)
	var owners []dnsmsg.Name
	for i, r := range recs {
		if i == 0 || !r.Name.Equal(recs[i-1].Name) {
			owners = append(owners, r.Name)
		}
	}
	queries := 0
	for i, owner := range owners {
		for _, n := range spellings(t, owner) {
			for _, typ := range allQueryTypes {
				pkt, err := dnsmsg.NewQuery(uint16(i), n, typ).Pack()
				if err != nil {
					t.Fatal(err)
				}
				if !checkAgainstReference(t, z, ref, pkt) {
					t.Fatalf("%s %s: the wire path declined a plain query", n, typ)
				}
				queries++
			}
		}
	}
	return queries
}

// masterCNAMEChain is a master file with a CNAME chain longer than the
// chase depth, a CNAME loop, a dangling CNAME, mixed-case owners, two
// SOAs at one owner (negative answers carry the last) and a root SOA.
const masterCNAMEChain = `
$ORIGIN chain.example.
@      IN SOA ns1 hostmaster 1 7200 900 86400 60
@      IN SOA ns2 hostmaster 2 7200 900 86400 60
c0     IN CNAME c1
c1     IN CNAME C2
C2     IN CNAME c3.chain.example.
c3     IN CNAME c4
c4     IN CNAME c5
c5     IN CNAME end
end    IN A 192.0.2.5
end    IN MX 10 Mail.Chain.Example.
loop1  IN CNAME loop2
loop2  IN CNAME loop1
dangle IN CNAME nowhere.else.
Mixed  IN TXT "v=spf1 -all"
mixed  IN A 192.0.2.6
$ORIGIN .
@      IN SOA a.root-servers.net. nstld.verisign-grs.com. 2 1800 900 604800 86400
`

// TestWireAnswersMatchReference checks the server's answers from a
// ZoneSet against the reference on the zone the package's tests share, a
// master file with CNAME chains and a root SOA, and an owner whose answer
// exceeds 512 bytes (TC over UDP, whole over TCP). It asks every query
// type and qtype ANY, in the classes IN, ANY and CH (CH is declined by
// the wire path and refused on the decode path), each also with an EDNS
// OPT record, which the wire path answers as it answers the plain query,
// and with an additional A record, which only the decode path answers.
func TestWireAnswersMatchReference(t *testing.T) {
	chain, err := ParseZoneString(masterCNAMEChain)
	if err != nil {
		t.Fatal(err)
	}
	var big []dnsmsg.Record
	for i := 0; i < 8; i++ {
		big = append(big, dnsmsg.Record{Name: name("big.example.com"), Class: dnsmsg.ClassIN, TTL: 60,
			Data: dnsmsg.SplitTXT(strings.Repeat(string(rune('a'+i)), 100))})
	}
	for _, zone := range []struct {
		name string
		recs []dnsmsg.Record
	}{
		{"test zone", newTestZone().records(t)},
		{"master file", chain.records(t)},
		{"over 512 bytes", append(newTestZone().records(t), big...)},
	} {
		t.Run(zone.name, func(t *testing.T) {
			z, ref := zoneOf(t, nil, zone.recs...)
			var owners []dnsmsg.Name
			for _, r := range zone.recs {
				owners = append(owners, r.Name)
			}
			owners = append(owners, name("absent.example.com"), dnsmsg.Name{})
			for _, owner := range owners {
				for _, n := range spellings(t, owner) {
					for _, typ := range append(allQueryTypes, dnsmsg.Type(99)) {
						for _, class := range []dnsmsg.Class{dnsmsg.ClassIN, dnsmsg.ClassANY, 3} {
							q := dnsmsg.NewQuery(0x5151, n, typ)
							q.Questions[0].Class = class
							pkt, err := q.Pack()
							if err != nil {
								t.Fatal(err)
							}
							if wire := checkAgainstReference(t, z, ref, pkt); wire != (class != 3) {
								t.Fatalf("%s %s class %d: wire path answered = %v", n, typ, class, wire)
							}
							pkt[11] = 1 // an additional record
							opt := append(pkt[:len(pkt):len(pkt)], 0, 0, 41, 2, 0, 0, 0, 0, 0, 0, 0)
							if wire := checkAgainstReference(t, z, ref, opt); wire != (class != 3) {
								t.Fatalf("%s %s class %d with OPT: wire path answered = %v", n, typ, class, wire)
							}
							a := append(pkt[:len(pkt):len(pkt)], 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
							if checkAgainstReference(t, z, ref, a) {
								t.Fatalf("%s %s: the wire path answered a query with an additional A record", n, typ)
							}
						}
					}
				}
			}
		})
	}
	z, _ := zoneOf(t, nil, big...)
	if got := sent(t, &Server{Handler: z}, packQuery(t, 1, "big.example.com", dnsmsg.TypeTXT), true); got[2]&0x02 == 0 {
		t.Error("an answer over 512 bytes went out over UDP without TC")
	}
}

// zoneDraw reads a small zone and a query from fuzz input.
type zoneDraw struct{ b []byte }

func (d *zoneDraw) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// drawNames are the owners and targets a drawn zone uses: they share
// suffixes so that answers compress, and some differ only in case.
var drawNames = []string{".", "example", "a.example", "B.example", "c.a.example", "x.c.a.EXAMPLE", "other", "b.other", "A.B.OTHER"}

func (d *zoneDraw) name() dnsmsg.Name { return name(drawNames[int(d.byte())%len(drawNames)]) }

func (d *zoneDraw) record() dnsmsg.Record {
	r := dnsmsg.Record{Name: d.name(), Class: dnsmsg.ClassIN, TTL: uint32(d.byte())}
	switch d.byte() % 8 {
	case 0:
		r.Data = dnsmsg.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, d.byte()})}
	case 1:
		r.Data = dnsmsg.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: d.byte()})}
	case 2:
		r.Data = dnsmsg.MX{Preference: uint16(d.byte()), Host: d.name()}
	case 3:
		r.Data = dnsmsg.SplitTXT(strings.Repeat("t", 1+int(d.byte())))
	case 4:
		r.Data = dnsmsg.CNAME{Target: d.name()}
	case 5:
		r.Data = dnsmsg.NS{Host: d.name()}
	case 6:
		r.Data = dnsmsg.PTR{Target: d.name()}
	default:
		r.Data = dnsmsg.SOA{MName: d.name(), RName: d.name(), Serial: uint32(d.byte()), Minimum: 60}
	}
	return r
}

// appendOPT draws an additional record for a query from d: none, an EDNS
// OPT record with drawn options, which the wire path answers, or one the
// wire path leaves to the decoder (an OPT below the root or with a byte
// after it, or an A record at the root). It returns the query and
// whether the wire path may answer it.
func (d *zoneDraw) appendOPT(pkt []byte) ([]byte, bool) {
	kind := d.byte() % 5
	if kind == 0 {
		return pkt, true
	}
	pkt[11] = 1
	if kind == 4 {
		return append(pkt, 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, d.byte()), false
	}
	if kind == 2 {
		pkt = append(pkt, 1, 'x')
	}
	pkt = append(pkt, 0, 0, 41, d.byte(), d.byte(), d.byte(), 0, d.byte()&0x80, 0)
	opts := make([]byte, int(d.byte())%12)
	for i := range opts {
		opts[i] = d.byte()
	}
	pkt = append(append(pkt, 0, byte(len(opts))), opts...)
	if kind == 3 {
		return append(pkt, 0), false
	}
	return pkt, kind == 1
}

// FuzzZoneAnswer draws a small zone, the batches the ZoneSet takes it in,
// and a query, optionally with an EDNS OPT record or another additional
// record, from its input, and checks the server's answer against the
// reference on both transports and that the wire path answers what it
// should.
func FuzzZoneAnswer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 7, 1, 1, 2, 1, 0, 4, 3, 1, 4, 3, 0, 0, 0, 1, 0})
	f.Add([]byte{4, 2, 1, 4, 3, 3, 1, 4, 2, 4, 1, 1, 1, 0, 9, 2, 1, 1})
	f.Add(bytes.Repeat([]byte{8, 1, 250, 3, 200}, 6))
	// A CNAME chase in a zone taken in two batches, asked with an OPT
	// record that carries an option.
	f.Add([]byte{3, 1, 3, 7, 2, 0, 3, 4, 1, 4, 3, 1, 1, 1, 6, 4, 0, 5, 0, 0, 0, 2, 1, 16, 0, 0, 128, 4, 0, 10, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		d := &zoneDraw{b: in}
		rrs := make([]dnsmsg.Record, int(d.byte())%9)
		for i := range rrs {
			rrs[i] = d.record()
		}
		qname := d.name()
		if flip := d.byte(); flip%3 == 1 {
			qname = spellings(t, qname)[2]
		} else if flip%3 == 2 {
			qname = spellings(t, qname)[len(spellings(t, qname))-1]
		}
		q := dnsmsg.NewQuery(uint16(d.byte()), qname, allQueryTypes[int(d.byte())%len(allQueryTypes)])
		q.Header.RecursionDesired = d.byte()%2 == 0
		q.Questions[0].Class = []dnsmsg.Class{dnsmsg.ClassIN, dnsmsg.ClassANY, 3}[int(d.byte())%3]
		cuts := d.byte()
		z, ref := zoneOf(t, func(i int) bool { return cuts>>(i-1)&1 == 1 }, rrs...)
		pkt, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		pkt, wire := d.appendOPT(pkt)
		wire = wire && q.Questions[0].Class != 3
		if got := checkAgainstReference(t, z, ref, pkt); got != wire {
			t.Fatalf("the wire path answered %v, want %v, for %x", got, wire, pkt)
		}
	})
}
