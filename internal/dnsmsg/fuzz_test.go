package dnsmsg

import (
	"bytes"
	"testing"
)

// FuzzUnpack hammers the wire decoder with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode and re-decode stably.
// Whatever ParseWireQuery accepts, the decoder must accept as the same
// query, with no records but at most one OPT at the root.
func FuzzUnpack(f *testing.F) {
	// Seed corpus: real packed messages and adversarial fragments.
	q := NewQuery(0x1234, MustParseName("x7k2.s01.spf-test.dns-lab.org"), TypeTXT)
	if b, err := q.Pack(); err == nil {
		f.Add(b)
		f.Add(withAdditional(b, optRR...))
	}
	resp := q.Reply()
	resp.Answers = append(resp.Answers, Record{
		Name: MustParseName("x7k2.s01.spf-test.dns-lab.org"), Class: ClassIN, TTL: 1,
		Data: SplitTXT("v=spf1 a:%{d1r}.x7k2.s01.spf-test.dns-lab.org -all"),
	})
	if b, err := resp.Pack(); err == nil {
		f.Add(b)
	}
	f.Add([]byte{0xC0, 0x00})
	f.Add([]byte{0, 0, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0x3F}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if wq, ok := ParseWireQuery(data); ok {
			checkWireQuery(t, wq, m, err)
		}
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Some decodable messages are not re-encodable (e.g. labels
			// recovered from compressed names exceeding limits); that is
			// acceptable as long as decode did not panic.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message does not decode: %v", err)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				len(m.Questions), len(m.Answers), len(m2.Questions), len(m2.Answers))
		}
	})
}

// checkWireQuery fails unless m, decoded from the packet wq was parsed
// from (with error err), is the query wq describes.
func checkWireQuery(t *testing.T, wq WireQuery, m *Message, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("ParseWireQuery accepts a packet Unpack refuses: %v", err)
	}
	name, _, err := ReadWireName(wq.NameWire)
	if err != nil || len(m.Questions) != 1 || !m.Questions[0].Name.Equal(name) ||
		m.Questions[0].Type != wq.Type || m.Questions[0].Class != wq.Class ||
		m.Header.ID != wq.ID || m.Header.RecursionDesired != wq.RecursionDesired {
		t.Fatalf("ParseWireQuery read %+v, Unpack %+v", wq, m)
	}
	if len(m.Answers)+len(m.Authority) > 0 || len(m.Additional) > 1 {
		t.Fatalf("ParseWireQuery accepts a query with records: %+v", m)
	}
	if len(m.Additional) == 1 && (m.Additional[0].Data.Type() != typeOPT || !m.Additional[0].Name.IsRoot()) {
		t.Fatalf("ParseWireQuery accepts an additional %s record at %s", m.Additional[0].Data.Type(), m.Additional[0].Name)
	}
}

// FuzzDecoderReuse decodes a and then b on one Decoder, the way a server's
// read loop reuses its Decoder for every datagram it receives. Whatever a
// left in the Decoder's slots, interning table and RData caches, b must
// decode exactly as Unpack decodes it: the same error-ness and, when b
// decodes, the same bytes from Pack, or a Pack error on both sides. The
// same holds for DecodeAnswers on every section it decodes (header,
// questions, answers): when Unpack accepts b, so does DecodeAnswers, with
// those sections packing as Unpack's do and the other two left empty.
func FuzzDecoderReuse(f *testing.F) {
	q := NewQuery(0x1234, MustParseName("x7k2.s01.spf-test.dns-lab.org"), TypeTXT)
	qb, _ := q.Pack()
	resp := q.Reply()
	resp.Answers = append(resp.Answers,
		Record{Name: MustParseName("x7k2.s01.spf-test.dns-lab.org"), Class: ClassIN, TTL: 1,
			Data: SplitTXT("v=spf1 a:%{d1r}.x7k2.s01.spf-test.dns-lab.org -all")},
		Record{Name: MustParseName("mail.x7k2.s01.spf-test.dns-lab.org"), Class: ClassIN, TTL: 1,
			Data: MX{Preference: 10, Host: MustParseName("mx.dns-lab.org")}})
	rb, _ := resp.Pack()
	q2 := NewQuery(7, MustParseName("a.b.c.d.e.example.org"), TypeA)
	q2b, _ := q2.Pack()
	f.Add(qb, q2b)
	f.Add(rb, qb)
	f.Add(q2b, rb)
	f.Add(rb[:len(rb)-3], rb)
	f.Add([]byte{0xC0, 0x00}, qb)
	nx := q.Reply()
	nx.Header.RCode = RCodeNXDomain
	nx.Authority = append(nx.Authority, Record{Name: MustParseName("spf-test.dns-lab.org"), Class: ClassIN, TTL: 60,
		Data: SOA{MName: MustParseName("ns1.dns-lab.org"), RName: MustParseName("hostmaster.dns-lab.org"), Serial: 1}})
	nxb, _ := nx.Pack()
	f.Add(rb, nxb)
	f.Add(nxb, nxb[:len(nxb)-4])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		d := NewDecoder()
		_, _ = d.Decode(a)
		got, gotErr := d.Decode(b)
		want, wantErr := Unpack(b)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("reused Decoder error = %v, Unpack error = %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		gotPkt, gotErr := got.Pack()
		wantPkt, wantErr := want.Pack()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("Pack after reused Decoder error = %v, after Unpack error = %v", gotErr, wantErr)
		}
		if !bytes.Equal(gotPkt, wantPkt) {
			t.Fatalf("reused Decoder packs %x, Unpack packs %x", gotPkt, wantPkt)
		}

		ans, err := d.DecodeAnswers(b)
		if err != nil {
			t.Fatalf("DecodeAnswers error = %v where Unpack succeeds", err)
		}
		if len(ans.Authority)+len(ans.Additional) != 0 {
			t.Fatalf("DecodeAnswers decoded %d authority and %d additional records", len(ans.Authority), len(ans.Additional))
		}
		ansPkt, ansErr := (&Message{Header: ans.Header, Questions: ans.Questions, Answers: ans.Answers}).Pack()
		wantPkt, wantErr = (&Message{Header: want.Header, Questions: want.Questions, Answers: want.Answers}).Pack()
		if (ansErr != nil) != (wantErr != nil) || !bytes.Equal(ansPkt, wantPkt) {
			t.Fatalf("DecodeAnswers sections pack %x (%v), Unpack's %x (%v)", ansPkt, ansErr, wantPkt, wantErr)
		}
	})
}

// FuzzParseName checks the name parser and its wire round trip.
func FuzzParseName(f *testing.F) {
	for _, s := range []string{
		"example.com", ".", "", "a.b.c.d.e",
		"%{d1r}.x.s.spf-test.dns-lab.org",
		"org.org.dns-lab.spf-test.s.x.x.s.spf-test.dns-lab.org",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseName(s)
		if err != nil {
			return
		}
		buf, err := appendName(nil, n, nil)
		if err != nil {
			t.Fatalf("parsed name fails to encode: %v", err)
		}
		back, _, err := readName(buf, 0)
		if err != nil {
			t.Fatalf("encoded name fails to decode: %v", err)
		}
		if !back.Equal(n) {
			t.Fatalf("round trip changed name: %q vs %q", n, back)
		}
	})
}
