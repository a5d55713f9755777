package dnsmsg

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return b
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, MustParseName("example.com"), TypeTXT)
	got, err := Unpack(mustPack(t, q))
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	if q := got.Questions[0]; !q.Name.Equal(MustParseName("example.com")) || q.Type != TypeTXT || q.Class != ClassIN {
		t.Errorf("question = %v", q)
	}
}

func TestReplyEchoesQuery(t *testing.T) {
	q := NewQuery(7, MustParseName("example.com"), TypeMX)
	r := q.Reply()
	if !r.Header.Response || r.Header.ID != 7 || !r.Header.RecursionDesired {
		t.Errorf("reply header = %+v", r.Header)
	}
	if len(r.Questions) != 1 || !r.Questions[0].Name.Equal(q.Questions[0].Name) {
		t.Errorf("reply questions = %v", r.Questions)
	}
}

func TestFullResponseRoundTrip(t *testing.T) {
	name := MustParseName("example.com")
	mx1 := MustParseName("mail1.example.com")
	m := &Message{
		Header:    Header{ID: 42, Response: true, Authoritative: true, RCode: RCodeNoError},
		Questions: []Question{{Name: name, Type: TypeANY, Class: ClassIN}},
		Answers: []Record{
			{Name: name, Class: ClassIN, TTL: 300, Data: MX{Preference: 10, Host: mx1}},
			{Name: name, Class: ClassIN, TTL: 300, Data: TXT{Strings: []string{"v=spf1 ip4:192.0.2.1 -all"}}},
			{Name: mx1, Class: ClassIN, TTL: 60, Data: A{Addr: netip.MustParseAddr("192.0.2.1")}},
			{Name: mx1, Class: ClassIN, TTL: 60, Data: AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
			{Name: name, Class: ClassIN, TTL: 60, Data: CNAME{Target: mx1}},
			{Name: name, Class: ClassIN, TTL: 60, Data: NS{Host: mx1}},
			{Name: name, Class: ClassIN, TTL: 60, Data: PTR{Target: mx1}},
		},
		Authority: []Record{
			{Name: name, Class: ClassIN, TTL: 3600, Data: SOA{
				MName: mx1, RName: MustParseName("hostmaster.example.com"),
				Serial: 2021101100, Refresh: 7200, Retry: 900, Expire: 86400, Minimum: 60,
			}},
		},
	}
	got, err := Unpack(mustPack(t, m))
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !got.Header.Authoritative || !got.Header.Response || got.Header.ID != 42 {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Answers) != len(m.Answers) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(m.Answers))
	}
	for i := range m.Answers {
		if got.Answers[i].String() != m.Answers[i].String() {
			t.Errorf("answer %d = %q, want %q", i, got.Answers[i], m.Answers[i])
		}
	}
	if len(got.Authority) != 1 || got.Authority[0].String() != m.Authority[0].String() {
		t.Errorf("authority = %v", got.Authority)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	name := MustParseName("really-long-label-here.example-domain-name.com")
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: name, Type: TypeMX, Class: ClassIN}},
	}
	for i := 0; i < 5; i++ {
		m.Answers = append(m.Answers, Record{
			Name: name, Class: ClassIN, TTL: 60,
			Data: MX{Preference: uint16(i), Host: name},
		})
	}
	packed := mustPack(t, m)
	// The 48-byte name appears 11 times; uncompressed this message is
	// ~600 bytes, compressed each repeat is a 2-byte pointer (144 total).
	if len(packed) > 160 {
		t.Errorf("packed message is %d bytes; compression ineffective", len(packed))
	}
	got, err := Unpack(packed)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	for i, a := range got.Answers {
		if !a.Data.(MX).Host.Equal(name) {
			t.Errorf("answer %d host = %v", i, a.Data)
		}
	}
}

func TestTXTJoinedAndSplit(t *testing.T) {
	long := strings.Repeat("x", 600)
	txt := SplitTXT(long)
	if len(txt.Strings) != 3 {
		t.Fatalf("SplitTXT chunks = %d, want 3", len(txt.Strings))
	}
	if txt.Joined() != long {
		t.Error("Joined != original")
	}
	buf, err := txt.appendTo(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := decodeRData(buf, 0, len(buf), TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if rd.(TXT).Joined() != long {
		t.Error("wire round trip lost TXT data")
	}
}

func TestTXTTooLongString(t *testing.T) {
	txt := TXT{Strings: []string{strings.Repeat("a", 256)}}
	if _, err := txt.appendTo(nil, nil); err == nil {
		t.Fatal("oversized TXT string should error")
	}
}

func TestUnpackTruncated(t *testing.T) {
	q := NewQuery(9, MustParseName("example.com"), TypeA)
	b := mustPack(t, q)
	for cut := 1; cut < len(b); cut += 3 {
		if _, err := Unpack(b[:cut]); err == nil && cut < 12 {
			t.Errorf("Unpack of %d-byte prefix should error", cut)
		}
	}
	if _, err := Unpack(nil); err != ErrTruncatedMessage {
		t.Errorf("Unpack(nil) = %v", err)
	}
}

func TestARecordRejectsV6(t *testing.T) {
	a := A{Addr: netip.MustParseAddr("2001:db8::1")}
	if _, err := a.appendTo(nil, nil); err == nil {
		t.Fatal("A with IPv6 addr should error")
	}
	aaaa := AAAA{Addr: netip.MustParseAddr("192.0.2.1")}
	if _, err := aaaa.appendTo(nil, nil); err == nil {
		t.Fatal("AAAA with IPv4 addr should error")
	}
}

func TestTypeClassRCodeStrings(t *testing.T) {
	if TypeTXT.String() != "TXT" || TypeAAAA.String() != "AAAA" || Type(62000).String() != "TYPE62000" {
		t.Error("Type.String mismatch")
	}
	if ClassIN.String() != "IN" || Class(9).String() != "CLASS9" {
		t.Error("Class.String mismatch")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(9).String() != "RCODE9" {
		t.Error("RCode.String mismatch")
	}
}

// randomMessage builds an arbitrary valid message for property testing.
func randomMessage(r *rand.Rand) *Message {
	m := &Message{Header: Header{
		ID:               uint16(r.Intn(1 << 16)),
		Response:         r.Intn(2) == 0,
		Authoritative:    r.Intn(2) == 0,
		RecursionDesired: r.Intn(2) == 0,
		RCode:            RCode(r.Intn(6)),
	}}
	m.Questions = append(m.Questions, Question{Name: quickName(r), Type: TypeTXT, Class: ClassIN})
	n := r.Intn(6)
	for i := 0; i < n; i++ {
		name := quickName(r)
		var data RData
		switch r.Intn(5) {
		case 0:
			var b [4]byte
			r.Read(b[:])
			data = A{Addr: netip.AddrFrom4(b)}
		case 1:
			var b [16]byte
			r.Read(b[:])
			b[0] = 0x20 // avoid v4-mapped forms
			data = AAAA{Addr: netip.AddrFrom16(b)}
		case 2:
			data = MX{Preference: uint16(r.Intn(100)), Host: quickName(r)}
		case 3:
			data = TXT{Strings: []string{"v=spf1 a:%{d1r}.foo.example -all"}}
		default:
			data = CNAME{Target: quickName(r)}
		}
		m.Answers = append(m.Answers, Record{Name: name, Class: ClassIN, TTL: uint32(r.Intn(3600)), Data: data})
	}
	return m
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		b, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(b)
		if err != nil {
			return false
		}
		if got.Header != m.Header {
			return false
		}
		if len(got.Answers) != len(m.Answers) {
			return false
		}
		for i := range m.Answers {
			if got.Answers[i].String() != m.Answers[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnpackNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		// Decoder must reject or accept garbage without panicking.
		_, _ = Unpack(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressorMatchesAppend builds random responses both ways: with
// Message.Append, and from wire parts as a zone answers, the question
// through Compressor.AppendName and each record stored by AppendRecord
// and written by Compressor.AppendRecord. The bytes must be equal.
func TestCompressorMatchesAppend(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		names := []Name{quickName(r), quickName(r), quickName(r)}
		pick := func() Name {
			n := names[r.Intn(len(names))]
			if r.Intn(2) == 0 {
				if c, err := n.Child("sub"); err == nil {
					return c
				}
			}
			return n
		}
		m := NewQuery(uint16(i), pick(), TypeANY).Reply()
		for j := r.Intn(6); j >= 0; j-- {
			var data RData
			switch r.Intn(7) {
			case 0:
				data = A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(j)})}
			case 1:
				data = MX{Preference: uint16(j), Host: pick()}
			case 2:
				data = NS{Host: pick()}
			case 3:
				data = CNAME{Target: pick()}
			case 4:
				data = PTR{Target: pick()}
			case 5:
				data = SOA{MName: pick(), RName: pick(), Serial: uint32(j), Minimum: 60}
			default:
				data = SplitTXT(strings.Repeat("t", r.Intn(300)))
			}
			m.Answers = append(m.Answers, Record{Name: pick(), Class: ClassIN, TTL: uint32(j), Data: data})
		}
		want, err := m.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		var c Compressor
		got := append([]byte(nil), want[:12]...)
		qname, err := appendName(nil, m.Questions[0].Name, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = c.AppendName(got, qname)
		got = append(got, 0, byte(TypeANY), 0, byte(ClassIN))
		for _, rr := range m.Answers {
			stored, err := AppendRecord(nil, rr)
			if err != nil {
				t.Fatal(err)
			}
			if one, typ, _, rest := SplitRecord(stored); !bytes.Equal(one, stored) || typ != rr.Data.Type() || len(rest) != 0 {
				t.Fatalf("SplitRecord(%s) = %x %s, rest %x", rr, one, typ, rest)
			}
			got = c.AppendRecord(got, stored)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: built from wire parts\n%x\nMessage.Append\n%x", i, got, want)
		}
	}
}

// TestAppendRecordRefusesRawCompressibleRDATA: an Unknown payload of a
// type whose names a zone compresses is refused, since its raw bytes
// would be read as names; other Unknown payloads are stored as they are.
func TestAppendRecordRefusesRawCompressibleRDATA(t *testing.T) {
	owner := MustParseName("example.com")
	for _, typ := range []Type{TypeMX, TypeNS, TypeCNAME, TypePTR, TypeSOA} {
		if _, err := AppendRecord(nil, Record{Name: owner, Class: ClassIN, Data: Unknown{T: typ, Data: []byte{0}}}); err == nil {
			t.Errorf("AppendRecord took raw %s RDATA", typ)
		}
	}
	if _, err := AppendRecord(nil, Record{Name: owner, Class: ClassIN, Data: Unknown{T: 99, Data: []byte{1, 'x'}}}); err != nil {
		t.Errorf("AppendRecord refused raw TYPE99 RDATA: %v", err)
	}
}
