package dnsserver

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

func packQuery(t testing.TB, id uint16, qname string, typ dnsmsg.Type) []byte {
	t.Helper()
	pkt, err := dnsmsg.NewQuery(id, dnsmsg.MustParseName(qname), typ).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestServeQueryMatchesSlowPath checks that the wire path sends, byte for
// byte, what the decode path sends for the same query through
// ZoneSet.ServeDNS, and that it counts its queries as the decode path
// does.
func TestServeQueryMatchesSlowPath(t *testing.T) {
	z := newTestZone()
	srv := &Server{Handler: z, Metrics: telemetry.New()}
	slow := &Server{Handler: HandlerFunc(z.ServeDNS), Metrics: telemetry.New()}
	cases := []struct {
		qname string
		typ   dnsmsg.Type
	}{
		{"example.com", dnsmsg.TypeTXT},
		{"example.com", dnsmsg.TypeMX},
		{"example.com", dnsmsg.TypeSOA},
		{"mail.example.com", dnsmsg.TypeA},
		{"www.example.com", dnsmsg.TypeA},      // CNAME chase
		{"mail.example.com", dnsmsg.TypeTXT},   // empty NOERROR + SOA authority
		{"absent.example.com", dnsmsg.TypeTXT}, // NXDOMAIN + SOA authority
		{"example.com", dnsmsg.TypeANY},
	}
	for _, tc := range cases {
		pkt := packQuery(t, 0xBEEF, tc.qname, tc.typ)
		if _, ok := srv.ServeQuery(nil, pkt, nil); !ok {
			t.Errorf("%s %s: the wire path declined", tc.qname, tc.typ)
			continue
		}
		if got, want := sent(t, srv, pkt, true), sent(t, slow, pkt, true); !bytes.Equal(got, want) {
			t.Errorf("%s %s: wire path sends\n%x\ndecode path sends\n%x", tc.qname, tc.typ, got, want)
		}
	}
	wire, dec := srv.Metrics.Snapshot().Counters, slow.Metrics.Snapshot().Counters
	for _, c := range []string{"dns.server.queries", "dns.server.qtype.TXT", "dns.server.qtype.ANY"} {
		// srv answered each query twice: in the loop, then in sent.
		if wire[c] != 2*dec[c] || dec[c] == 0 {
			t.Errorf("%s: wire path counted %d for two passes, decode path %d for one", c, wire[c], dec[c])
		}
	}
}

// TestServeQueryEchoesCaseAndID checks what a wire answer copies from the
// query: transaction ID, RD bit, and the qname's case as sent by the
// client, which the answer's owner names then follow through compression.
func TestServeQueryEchoesCaseAndID(t *testing.T) {
	srv := &Server{Handler: newTestZone()}
	pkt := packQuery(t, 0x7A7A, "ExAmPlE.CoM", dnsmsg.TypeTXT)
	out, ok := srv.ServeQuery(nil, pkt, nil)
	if !ok {
		t.Fatal("the wire path declined")
	}
	if out[0] != 0x7A || out[1] != 0x7A {
		t.Errorf("ID = %x%x, want 7a7a", out[0], out[1])
	}
	wq, _ := dnsmsg.ParseWireQuery(pkt)
	if !bytes.Equal(out[12:12+len(wq.NameWire)], wq.NameWire) {
		t.Error("response does not echo the client's qname case")
	}
	got, err := dnsmsg.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name.String() != "ExAmPlE.CoM." {
		t.Errorf("question = %q", got.Questions[0].Name)
	}
	if got.Answers[0].Name.String() != "ExAmPlE.CoM." {
		t.Errorf("answer owner = %q, want the question's spelling", got.Answers[0].Name)
	}
	if !got.Header.RecursionDesired || !got.Header.Authoritative || !got.Header.Response {
		t.Errorf("header = %+v", got.Header)
	}
	pkt[2] &^= 1 // clear RD
	if out, _ = srv.ServeQuery(nil, pkt, nil); out[2]&1 != 0 {
		t.Error("RD set in the answer to a query without it")
	}
}

// TestServeQueryFallsBack enumerates the shapes the wire path declines,
// which the decode path answers: packets with extra sections or several
// questions, handlers that are not wire-capable, and classes other than
// IN and ANY. NXDOMAIN names and answers over 512 bytes stay on the wire
// path.
func TestServeQueryFallsBack(t *testing.T) {
	z := newTestZone()
	srv := &Server{Handler: z}

	if _, ok := srv.ServeQuery(nil, packQuery(t, 1, "absent.example.com", dnsmsg.TypeA), nil); !ok {
		t.Error("an NXDOMAIN answer left the wire path")
	}

	pkt := packQuery(t, 1, "example.com", dnsmsg.TypeTXT)
	pkt[11] = 1 // claim one additional record (EDNS-style)
	if _, ok := srv.ServeQuery(nil, pkt, nil); ok {
		t.Error("packet with additional section must fall back")
	}

	two := dnsmsg.NewQuery(1, name("example.com"), dnsmsg.TypeTXT)
	two.Questions = append(two.Questions, dnsmsg.Question{Name: name("example.com"), Type: dnsmsg.TypeMX, Class: dnsmsg.ClassIN})
	if pkt, _ = two.Pack(); pkt == nil {
		t.Fatal("two-question query does not pack")
	}
	if _, ok := srv.ServeQuery(nil, pkt, nil); ok {
		t.Error("packet with two questions must fall back")
	}

	ch := dnsmsg.NewQuery(1, name("example.com"), dnsmsg.TypeTXT)
	ch.Questions[0].Class = 3
	pkt, _ = ch.Pack()
	if _, ok := srv.ServeQuery(nil, pkt, nil); ok {
		t.Error("a CH-class query must fall back")
	}

	// A handler that is not wire-capable must always decline.
	plain := &Server{Handler: HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message { return q.Reply() })}
	if _, ok := plain.ServeQuery(nil, packQuery(t, 1, "example.com", dnsmsg.TypeTXT), nil); ok {
		t.Error("non-wire handler must fall back")
	}

	// A TXT answer too large for UDP stays on the wire path; answer
	// truncates it.
	big := NewZoneSet()
	if err := big.AddTXT(dnsmsg.MustParseName("big.example"), strings.Repeat("x", 600)); err != nil {
		t.Fatal(err)
	}
	bsrv := &Server{Handler: big}
	out, ok := bsrv.ServeQuery(nil, packQuery(t, 1, "big.example", dnsmsg.TypeTXT), nil)
	if !ok || len(out) <= MaxUDPPayload {
		t.Errorf("oversized answer: wire path answered %v with %d bytes", ok, len(out))
	}
}

// TestServeWireInvalidation checks that a record Add stores is in the
// next answer.
func TestServeWireInvalidation(t *testing.T) {
	z := newTestZone()
	srv := &Server{Handler: z}
	pkt := packQuery(t, 5, "example.com", dnsmsg.TypeTXT)
	out, ok := srv.ServeQuery(nil, pkt, nil)
	if !ok {
		t.Fatal("the wire path declined")
	}
	before, _ := dnsmsg.Unpack(out)

	if err := z.AddTXT(dnsmsg.MustParseName("example.com"), "second-string"); err != nil {
		t.Fatal(err)
	}
	out, ok = srv.ServeQuery(nil, pkt, nil)
	if !ok {
		t.Fatal("the wire path declined after Add")
	}
	after, err := dnsmsg.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Answers) != len(before.Answers)+1 {
		t.Errorf("answers after Add = %d, want %d", len(after.Answers), len(before.Answers)+1)
	}
}

// TestMuxServeWire checks wire-level routing: suffix match delegates to a
// wire-capable handler, everything else declines.
func TestMuxServeWire(t *testing.T) {
	z := newTestZone()
	mux := NewMux(nil)
	mux.Handle(dnsmsg.MustParseName("example.com"), z)
	mux.Handle(dnsmsg.MustParseName("dyn.example"), HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
		return q.Reply()
	}))
	srv := &Server{Handler: mux}

	if _, ok := srv.ServeQuery(nil, packQuery(t, 1, "MAIL.example.COM", dnsmsg.TypeA), nil); !ok {
		t.Error("suffix-routed query should take the wire path")
	}
	if _, ok := srv.ServeQuery(nil, packQuery(t, 1, "x.dyn.example", dnsmsg.TypeA), nil); ok {
		t.Error("non-wire handler must decline")
	}
	if _, ok := srv.ServeQuery(nil, packQuery(t, 1, "elsewhere.org", dnsmsg.TypeA), nil); ok {
		t.Error("unrouted query must decline (REFUSED comes from the decode path)")
	}
}

// BenchmarkServeQuery measures the wire path end to end: parse, route,
// and an answer built from the zone's stored records, the per-query cost
// of the authoritative server for a world-zone query.
func BenchmarkServeQuery(b *testing.B) {
	srv := &Server{Handler: newTestZone()}
	pkt := packQuery(b, 77, "example.com", dnsmsg.TypeTXT)
	out, ok := srv.ServeQuery(nil, pkt, nil)
	if !ok {
		b.Fatal("the wire path declined")
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, ok = srv.ServeQuery(out[:0], pkt, nil); !ok {
			b.Fatal("declined")
		}
	}
}

// TestWireAnswerTracesAsDecodePath: a traced wire answer emits the
// dns.server.query event, with the same name, type and rcode, that the
// decode path emits for the same query, on both transports.
func TestWireAnswerTracesAsDecodePath(t *testing.T) {
	z := newTestZone()
	run := func(h Handler) string {
		var out bytes.Buffer
		tr := trace.New(&out, trace.Options{Seed: 1})
		b := tr.NewBuffer(clock.NewSim(time.Unix(0, 0)), "s01", 0)
		root := b.Root("probe")
		release := root.Adopt("198.51.100.1") // the address sent answers
		s := &Server{Handler: h, Trace: tr}
		for _, q := range []struct {
			qname string
			typ   dnsmsg.Type
		}{{"Example.com", dnsmsg.TypeTXT}, {"absent.example.com", dnsmsg.TypeA}, {"mail.example.com", dnsmsg.TypeMX}} {
			pkt := packQuery(t, 9, q.qname, q.typ)
			sent(t, s, pkt, true)
			sent(t, s, pkt, false)
		}
		release()
		root.End()
		tr.FlushBuffer(b)
		return out.String()
	}
	wire, dec := run(z), run(HandlerFunc(z.ServeDNS))
	if wire != dec {
		t.Errorf("wire path traced\n%s\ndecode path traced\n%s", wire, dec)
	}
	if n := strings.Count(wire, `"dns.server.query"`); n != 6 {
		t.Errorf("%d dns.server.query events for 6 answers:\n%s", n, wire)
	}
	if !strings.Contains(wire, `"NXDOMAIN"`) || !strings.Contains(wire, `"Example.com."`) {
		t.Errorf("events lack the rcode or the asked spelling:\n%s", wire)
	}
}

// TestLoggingHandlerWireAnswers: a LoggingHandler over a wire-capable
// handler logs a wire answer once, with the From, Time, Name and Type the
// decode path logs, and answers with the decode path's bytes; over a
// handler with no wire path it logs each query once, on the decode path.
func TestLoggingHandlerWireAnswers(t *testing.T) {
	z := newTestZone()
	now := func() time.Time { return time.Unix(1000, 0) }
	var wireLog, decLog QueryLog
	wireSrv := &Server{Handler: &LoggingHandler{Inner: NewMux(z), Sink: &wireLog, Now: now}}
	decSrv := &Server{Handler: &LoggingHandler{Inner: HandlerFunc(z.ServeDNS), Sink: &decLog, Now: now}}
	pkt := packQuery(t, 3, "MAIL.example.com", dnsmsg.TypeA)
	for _, udp := range []bool{true, false} {
		if got, want := sent(t, wireSrv, pkt, udp), sent(t, decSrv, pkt, udp); !bytes.Equal(got, want) {
			t.Errorf("udp=%v: logged wire answer\n%x\nlogged decode answer\n%x", udp, got, want)
		}
	}
	if _, ok := wireSrv.ServeQuery(nil, pkt, nil); !ok {
		t.Fatal("a LoggingHandler over a Mux over a ZoneSet declined the wire path")
	}
	wireEvs, decEvs := wireLog.Snapshot(), decLog.Snapshot()
	if len(wireEvs) != 3 || len(decEvs) != 2 {
		t.Fatalf("logged %d events for three wire answers and %d for two decoded ones", len(wireEvs), len(decEvs))
	}
	for i, dec := range decEvs {
		w := wireEvs[i]
		if w.From != dec.From || !w.Time.Equal(dec.Time) || w.Name.String() != dec.Name.String() || w.Type != dec.Type {
			t.Errorf("wire answer logged %+v, decode path %+v", w, dec)
		}
	}
	if wireEvs[2].From != "" {
		t.Errorf("a query with no client address logged From %q", wireEvs[2].From)
	}

	var tzLog QueryLog
	tzSrv := &Server{Handler: &LoggingHandler{Inner: &SPFTestZone{Base: name("spf-test.dns-lab.org")}, Sink: &tzLog}}
	tz := packQuery(t, 4, "x7k2.s01.spf-test.dns-lab.org", dnsmsg.TypeTXT)
	sent(t, tzSrv, tz, true)
	sent(t, tzSrv, tz, false)
	if n := tzLog.Len(); n != 2 {
		t.Errorf("two declined queries logged %d events", n)
	}
}

// TestZoneConcurrentAddAndAnswers has writers Add records to one ZoneSet
// while readers ask for them through a server on both transports. Every
// answer must carry a prefix of its owner's records in the order they
// were added. Run it with -race.
func TestZoneConcurrentAddAndAnswers(t *testing.T) {
	z := newTestZone()
	s := &Server{Handler: z}
	const writers, each = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		owner := name(fmt.Sprintf("w%d.example.com", w))
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := z.AddTXT(owner, fmt.Sprintf("n%d", i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			pkt, err := dnsmsg.NewQuery(uint16(w), owner, dnsmsg.TypeTXT).Pack()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < each; i++ {
				for _, udp := range []bool{true, false} {
					m, err := dnsmsg.Unpack(sent(t, s, pkt, udp))
					if err != nil {
						t.Errorf("answer does not decode: %v", err)
						return
					}
					for j, rr := range m.Answers {
						if got := rr.Data.(dnsmsg.TXT).Joined(); got != fmt.Sprintf("n%d", j) {
							t.Errorf("%s answer %d is %q", owner, j, got)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMuxFoldsASCIIOnly: names that differ from a route's suffix only by
// a letter Unicode folds to an ASCII one (U+017F to s, U+212A to k)
// go to the fallback on both the decode and the wire path, while ASCII
// case differences still take the route (RFC 4343 §3).
func TestMuxFoldsASCIIOnly(t *testing.T) {
	for _, tc := range []struct {
		suffix, foreign, ascii string
	}{
		{"sk.example", "\u017Fk.example", "SK.example"},
		{"kit.example", "\u212Ait.example", "KIT.example"},
	} {
		routed, fallback := NewZoneSet(), NewZoneSet()
		for _, n := range []string{tc.suffix, tc.foreign} {
			if err := routed.AddTXT(name(n), "route"); err != nil {
				t.Fatal(err)
			}
			if err := fallback.AddTXT(name(n), "fallback"); err != nil {
				t.Fatal(err)
			}
		}
		mux := NewMux(fallback)
		mux.Handle(name(tc.suffix), routed)
		for _, path := range []struct {
			name string
			srv  *Server
		}{
			{"decode", &Server{Handler: HandlerFunc(mux.ServeDNS)}},
			{"wire", &Server{Handler: mux}},
		} {
			for qname, want := range map[string]string{tc.foreign: "fallback", tc.ascii: "route"} {
				m, err := dnsmsg.Unpack(sent(t, path.srv, packQuery(t, 1, qname, dnsmsg.TypeTXT), true))
				if err != nil || len(m.Answers) != 1 {
					t.Fatalf("%s path, %s: %v, %v", path.name, qname, m, err)
				}
				if got := m.Answers[0].Data.(dnsmsg.TXT).Joined(); got != want {
					t.Errorf("%s path routed %s to %q, want %q", path.name, qname, got, want)
				}
			}
		}
	}
}

// TestZoneKeepsDottedLabelApart: a label that contains a dot is one label
// on the wire, so the zone keeps it apart from the two labels its
// presentation form would join.
func TestZoneKeepsDottedLabelApart(t *testing.T) {
	dotted, err := dnsmsg.NewName("a.b", "example")
	if err != nil {
		t.Fatal(err)
	}
	z := NewZoneSet()
	if err := z.AddTXT(dotted, "one label"); err != nil {
		t.Fatal(err)
	}
	if err := z.AddTXT(name("a.b.example"), "two labels"); err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: z}
	for _, tc := range []struct {
		n    dnsmsg.Name
		want string
	}{{dotted, "one label"}, {name("a.b.example"), "two labels"}} {
		pkt, err := dnsmsg.NewQuery(1, tc.n, dnsmsg.TypeTXT).Pack()
		if err != nil {
			t.Fatal(err)
		}
		out, ok := srv.ServeQuery(nil, pkt, nil)
		m, err := dnsmsg.Unpack(out)
		if !ok || err != nil || len(m.Answers) != 1 || m.Answers[0].Data.(dnsmsg.TXT).Joined() != tc.want {
			t.Errorf("%q: answered %v with %v (%v), want %q", tc.n.Labels(), ok, m, err, tc.want)
		}
		if rrs, _ := z.Lookup(tc.n, dnsmsg.TypeTXT); len(rrs) != 1 || rrs[0].Data.(dnsmsg.TXT).Joined() != tc.want {
			t.Errorf("%q: Lookup = %v, want %q", tc.n.Labels(), rrs, tc.want)
		}
	}
}

// TestZoneAddRefusesUnencodableRecords: a record that does not encode is
// refused with an error and leaves the zone as it was.
func TestZoneAddRefusesUnencodableRecords(t *testing.T) {
	z := newTestZone()
	owner := name("example.com")
	for _, r := range []dnsmsg.Record{
		{Name: owner, Class: dnsmsg.ClassIN, Data: dnsmsg.A{Addr: netip.MustParseAddr("2001:db8::1")}},
		{Name: owner, Class: dnsmsg.ClassIN, Data: dnsmsg.TXT{}},
		{Name: owner, Class: dnsmsg.ClassIN, Data: dnsmsg.TXT{Strings: []string{strings.Repeat("x", 256)}}},
		{Name: owner, Class: dnsmsg.ClassIN},
		{Name: owner, Class: dnsmsg.ClassIN, Data: dnsmsg.Unknown{T: dnsmsg.TypeMX, Data: []byte{0, 10, 0}}},
	} {
		if err := z.Add(r); err == nil {
			t.Errorf("Add(%v) stored an unencodable record", r.Data)
		}
	}
	if err := z.AddA(owner, netip.Addr{}); err == nil {
		t.Error("AddA stored the zero address")
	}
	if got, want := z.records(t), newTestZone().records(t); len(got) != len(want) {
		t.Errorf("zone holds %d records after refusals, want %d", len(got), len(want))
	}
}

// txtAt returns the TXT record AddTXT adds at owner.
func txtAt(owner, s string) dnsmsg.Record { return TXTRecord(name(owner), s) }

// txts returns the texts of the TXT records z answers for owner, in
// answer order.
func txts(t *testing.T, z *ZoneSet, owner string) []string {
	t.Helper()
	rrs, _ := z.Lookup(name(owner), dnsmsg.TypeTXT)
	var out []string
	for _, rr := range rrs {
		out = append(out, rr.Data.(dnsmsg.TXT).Joined())
	}
	return out
}

// TestZoneAddBatches: a batch keeps each owner's records in call order
// after those earlier Adds stored for it, for an owner that recurs after
// another (a, b, a) and for spellings of one owner that differ in case,
// and every answer equals the reference's.
func TestZoneAddBatches(t *testing.T) {
	first := []dnsmsg.Record{txtAt("a.example", "a1"), txtAt("b.example", "b1")}
	second := []dnsmsg.Record{
		txtAt("a.example", "a2"), txtAt("B.EXAMPLE", "b2"), txtAt("b.Example", "b3"),
		txtAt("a.example", "a3"), txtAt("c.example", "c1"), txtAt("A.example", "a4"),
	}
	z := NewZoneSet()
	for _, batch := range [][]dnsmsg.Record{first, second} {
		if err := z.Add(batch...); err != nil {
			t.Fatal(err)
		}
	}
	for owner, want := range map[string][]string{
		"a.example": {"a1", "a2", "a3", "a4"},
		"B.example": {"b1", "b2", "b3"},
		"c.example": {"c1"},
	} {
		if got := txts(t, z, owner); !slices.Equal(got, want) {
			t.Errorf("%s answers %q, want %q", owner, got, want)
		}
	}
	ref := newRefZone(append(first, second...)...)
	for _, owner := range []string{"a.example", "b.example", "C.EXAMPLE", "d.example"} {
		for _, typ := range allQueryTypes {
			checkAgainstReference(t, z, ref, packQuery(t, 1, owner, typ))
		}
	}
}

// TestZoneAddRefusesWholeBatch: one unencodable record refuses its whole
// batch. Add returns the error naming that record's owner, and the zone
// keeps nothing of the batch, not even the valid records before it.
func TestZoneAddRefusesWholeBatch(t *testing.T) {
	z := newTestZone()
	want, _, _ := ZoneDigest(z)
	err := z.Add(
		txtAt("example.com", "before"),
		txtAt("new.example.com", "before"),
		dnsmsg.Record{Name: name("Bad.Example.com"), Class: dnsmsg.ClassIN, Data: dnsmsg.A{Addr: netip.MustParseAddr("2001:db8::1")}},
		txtAt("after.example.com", "after"),
	)
	if err == nil || !strings.Contains(err.Error(), "Bad.Example.com.") {
		t.Errorf("Add of a batch with an A record holding an IPv6 address = %v, want an error naming Bad.Example.com.", err)
	}
	if got, _, _ := ZoneDigest(z); got != want {
		t.Error("a refused batch changed the zone")
	}
	if got := txts(t, z, "example.com"); len(got) != 1 {
		t.Errorf("example.com answers %q after a refused batch", got)
	}
}

// TestZoneConcurrentBatches has writers Add batches to one ZoneSet while
// readers ask for their owners through a server on both transports. Each
// batch gives its owner three records in two runs, the second spelled in
// another case, around a record of another owner; the zone takes a batch
// under one lock, so every answer must carry whole batches of its owner's
// records, in the order they were added. Run it with -race.
func TestZoneConcurrentBatches(t *testing.T) {
	z := newTestZone()
	s := &Server{Handler: z}
	const writers, batches = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		owner := fmt.Sprintf("w%d.example.com", w)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if err := z.Add(
					txtAt(owner, fmt.Sprintf("n%d", 3*i)),
					txtAt("other."+owner, fmt.Sprintf("o%d", i)),
					txtAt(owner, fmt.Sprintf("n%d", 3*i+1)),
					txtAt(strings.ToUpper(owner), fmt.Sprintf("n%d", 3*i+2)),
				); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			pkt := packQuery(t, uint16(w), owner, dnsmsg.TypeTXT)
			for i := 0; i < batches; i++ {
				for _, udp := range []bool{true, false} {
					out := sent(t, s, pkt, udp)
					if udp && out[2]&0x02 != 0 {
						continue // truncated: the TCP answer carries the records
					}
					m, err := dnsmsg.Unpack(out)
					if err != nil {
						t.Errorf("answer does not decode: %v", err)
						return
					}
					if len(m.Answers)%3 != 0 {
						t.Errorf("%s answer carries %d records, not whole batches", owner, len(m.Answers))
						return
					}
					for j, rr := range m.Answers {
						if got := rr.Data.(dnsmsg.TXT).Joined(); got != fmt.Sprintf("n%d", j) {
							t.Errorf("%s answer %d is %q", owner, j, got)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEDNSQueriesAnswerAsTheDecodePath: a query carrying an EDNS OPT
// record, with options or without, takes the wire path and gets, over
// UDP and TCP, the bytes the decode path sends for it, an answer over 512
// bytes cut to its question with TC set over UDP included: the decode
// path's reply carries no OPT either.
func TestEDNSQueriesAnswerAsTheDecodePath(t *testing.T) {
	z := newTestZone()
	for i := 0; i < 8; i++ {
		if err := z.AddTXT(name("big.example.com"), strings.Repeat(string(rune('a'+i)), 100)); err != nil {
			t.Fatal(err)
		}
	}
	wire := &Server{Handler: NewMux(z)}
	dec := &Server{Handler: HandlerFunc(z.ServeDNS)}
	for _, q := range []struct {
		qname string
		typ   dnsmsg.Type
	}{
		{"_dmarc.example.com", dnsmsg.TypeTXT}, // NXDOMAIN with the SOA
		{"Example.com", dnsmsg.TypeTXT},
		{"www.example.com", dnsmsg.TypeA}, // CNAME chase
		{"big.example.com", dnsmsg.TypeTXT},
	} {
		plain := packQuery(t, 0x0D0D, q.qname, q.typ)
		for _, opt := range [][]byte{
			{0, 0, 41, 0x10, 0, 0, 0, 0x80, 0, 0, 0},
			{0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 12, 0, 10, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8},
		} {
			pkt := append(append([]byte(nil), plain...), opt...)
			pkt[11] = 1
			if _, ok := wire.ServeQuery(nil, pkt, nil); !ok {
				t.Errorf("%s %s with OPT: the wire path declined", q.qname, q.typ)
			}
			for _, udp := range []bool{true, false} {
				got, want := sent(t, wire, pkt, udp), sent(t, dec, pkt, udp)
				if !bytes.Equal(got, want) {
					t.Errorf("udp=%v %s %s with OPT: wire path sends\n%x\ndecode path sends\n%x", udp, q.qname, q.typ, got, want)
				}
				if q.qname == "big.example.com" && udp != (got[2]&0x02 != 0) {
					t.Errorf("udp=%v: an answer over 512 bytes has TC = %v", udp, got[2]&0x02 != 0)
				}
			}
		}
	}
}

// wireOnly answers on the wire path only: its decode path fails.
type wireOnly struct{ *ZoneSet }

func (wireOnly) ServeDNS(*dnsmsg.Message, net.Addr) *dnsmsg.Message { return nil }

// TestServerTriesTheWirePathFirst: over UDP and TCP alike the server
// answers a plain query, and one with an EDNS OPT record, on the wire
// path, and decodes only a query the wire path declines (here one with an
// additional A record, which then gets the failing decode path's
// SERVFAIL).
func TestServerTriesTheWirePathFirst(t *testing.T) {
	s := &Server{Handler: wireOnly{newTestZone()}}
	plain := packQuery(t, 1, "example.com", dnsmsg.TypeTXT)
	opt := append(append([]byte(nil), plain...), 0, 0, 41, 2, 0, 0, 0, 0, 0, 0, 0)
	opt[11] = 1
	extra := append(append([]byte(nil), plain...), 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
	extra[11] = 1
	for _, udp := range []bool{true, false} {
		for _, tc := range []struct {
			name  string
			pkt   []byte
			rcode dnsmsg.RCode
		}{{"plain", plain, dnsmsg.RCodeNoError}, {"OPT", opt, dnsmsg.RCodeNoError}, {"additional A", extra, dnsmsg.RCodeServFail}} {
			m, err := dnsmsg.Unpack(sent(t, s, tc.pkt, udp))
			if err != nil || m.Header.RCode != tc.rcode {
				t.Errorf("udp=%v, %s: got %v (%v), want rcode %s", udp, tc.name, m, err, tc.rcode)
			}
		}
	}
}
