package dnsserver

import (
	"bytes"
	"net"
	"testing"

	"spfail/internal/dnsmsg"
	"spfail/internal/telemetry"
)

func packQuery(t testing.TB, id uint16, qname string, typ dnsmsg.Type) []byte {
	t.Helper()
	pkt, err := dnsmsg.NewQuery(id, dnsmsg.MustParseName(qname), typ).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestServeQueryMatchesSlowPath compares the template fast path against the
// full decode/dispatch/encode path for every templatable query shape.
func TestServeQueryMatchesSlowPath(t *testing.T) {
	z := newTestZone()
	srv := &Server{Handler: z, Metrics: telemetry.New()}
	cases := []struct {
		qname string
		typ   dnsmsg.Type
	}{
		{"example.com", dnsmsg.TypeTXT},
		{"example.com", dnsmsg.TypeMX},
		{"example.com", dnsmsg.TypeSOA},
		{"mail.example.com", dnsmsg.TypeA},
		{"www.example.com", dnsmsg.TypeA},    // CNAME chase
		{"mail.example.com", dnsmsg.TypeTXT}, // empty NOERROR + SOA authority
	}
	for _, tc := range cases {
		pkt := packQuery(t, 0xBEEF, tc.qname, tc.typ)
		out, ok := srv.ServeQuery(nil, pkt, nil)
		if !ok {
			t.Errorf("%s %s: fast path missed", tc.qname, tc.typ)
			continue
		}
		// Run twice more: the first call compiled the template, later calls
		// must patch it identically.
		out2, ok := srv.ServeQuery(nil, pkt, nil)
		if !ok || !bytes.Equal(out, out2) {
			t.Errorf("%s %s: template hit differs from build path", tc.qname, tc.typ)
		}

		got, err := dnsmsg.Unpack(out)
		if err != nil {
			t.Fatalf("%s %s: fast response does not decode: %v", tc.qname, tc.typ, err)
		}
		want := srv.respond(dnsmsg.NewDecoder(), pkt, nil)
		if got.Header != want.Header {
			t.Errorf("%s %s: header = %+v, want %+v", tc.qname, tc.typ, got.Header, want.Header)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("%s %s: answers = %d, want %d", tc.qname, tc.typ, len(got.Answers), len(want.Answers))
		}
		for i := range want.Answers {
			if got.Answers[i].String() != want.Answers[i].String() {
				t.Errorf("%s %s: answer %d = %q, want %q", tc.qname, tc.typ, i, got.Answers[i], want.Answers[i])
			}
		}
		if len(got.Authority) != len(want.Authority) {
			t.Errorf("%s %s: authority = %d, want %d", tc.qname, tc.typ, len(got.Authority), len(want.Authority))
		}
	}
	s := srv.Metrics.Snapshot()
	if s.Counters["dns.server.template_hits"] == 0 {
		t.Error("no template hits counted")
	}
	if s.Counters["dns.server.queries"] == 0 {
		t.Error("fast path must keep counting dns.server.queries")
	}
}

// TestServeQueryEchoesCaseAndID checks the only bytes the patch may change:
// transaction ID, RD bit, and the qname's case as sent by the client.
func TestServeQueryEchoesCaseAndID(t *testing.T) {
	srv := &Server{Handler: newTestZone()}
	warm := packQuery(t, 1, "example.com", dnsmsg.TypeTXT)
	if _, ok := srv.ServeQuery(nil, warm, nil); !ok {
		t.Fatal("warm-up miss")
	}
	pkt := packQuery(t, 0x7A7A, "ExAmPlE.CoM", dnsmsg.TypeTXT)
	out, ok := srv.ServeQuery(nil, pkt, nil)
	if !ok {
		t.Fatal("case-variant query missed the shared template")
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
	// Compression pointers in the answers resolve through the patched
	// qname, so answer owner names follow the echoed case too.
	if !got.Answers[0].Name.Equal(dnsmsg.MustParseName("example.com")) {
		t.Errorf("answer owner = %q", got.Answers[0].Name)
	}
	if !got.Header.RecursionDesired {
		t.Error("RD bit not echoed")
	}
}

// TestServeQueryFallsBack enumerates the shapes that must take the slow
// path: unknown names (unbounded NXDOMAIN space), non-IN classes, packets
// with extra sections, non-wire handlers, and responses over 512 bytes.
func TestServeQueryFallsBack(t *testing.T) {
	z := newTestZone()
	srv := &Server{Handler: z}

	if _, ok := srv.ServeQuery(nil, packQuery(t, 1, "absent.example.com", dnsmsg.TypeA), nil); ok {
		t.Error("NXDOMAIN name must not be templated")
	}

	pkt := packQuery(t, 1, "example.com", dnsmsg.TypeTXT)
	pkt[11] = 1 // claim one additional record (EDNS-style)
	if _, ok := srv.ServeQuery(nil, pkt, nil); ok {
		t.Error("packet with additional section must fall back")
	}

	// A handler that is not wire-capable must always decline.
	plain := &Server{Handler: HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message { return q.Reply() })}
	if _, ok := plain.ServeQuery(nil, packQuery(t, 1, "example.com", dnsmsg.TypeTXT), nil); ok {
		t.Error("non-wire handler must fall back")
	}

	// A TXT record too large for UDP must not be served from a template;
	// the slow path handles truncation.
	big := NewZoneSet()
	long := make([]byte, 600)
	for i := range long {
		long[i] = 'x'
	}
	big.AddTXT(dnsmsg.MustParseName("big.example"), string(long))
	bsrv := &Server{Handler: big}
	if _, ok := bsrv.ServeQuery(nil, packQuery(t, 1, "big.example", dnsmsg.TypeTXT), nil); ok {
		t.Error("oversized response must not fast-path")
	}
}

// TestServeWireInvalidation checks that zone mutations drop templates.
func TestServeWireInvalidation(t *testing.T) {
	z := newTestZone()
	srv := &Server{Handler: z}
	pkt := packQuery(t, 5, "example.com", dnsmsg.TypeTXT)
	out, ok := srv.ServeQuery(nil, pkt, nil)
	if !ok {
		t.Fatal("miss")
	}
	before, _ := dnsmsg.Unpack(out)

	z.AddTXT(dnsmsg.MustParseName("example.com"), "second-string")
	out, ok = srv.ServeQuery(nil, pkt, nil)
	if !ok {
		t.Fatal("miss after mutation")
	}
	after, err := dnsmsg.Unpack(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Answers) != len(before.Answers)+1 {
		t.Errorf("answers after Add = %d, want %d (stale template served)",
			len(after.Answers), len(before.Answers)+1)
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
		t.Error("suffix-routed query should fast-path")
	}
	if _, ok := srv.ServeQuery(nil, packQuery(t, 1, "x.dyn.example", dnsmsg.TypeA), nil); ok {
		t.Error("non-wire handler must decline")
	}
	if _, ok := srv.ServeQuery(nil, packQuery(t, 1, "elsewhere.org", dnsmsg.TypeA), nil); ok {
		t.Error("unrouted query must decline (REFUSED comes from the slow path)")
	}
}

// BenchmarkServeQuery measures the template fast path end to end: parse,
// route, patch — the per-query cost of the authoritative server under
// campaign load.
func BenchmarkServeQuery(b *testing.B) {
	srv := &Server{Handler: newTestZone()}
	pkt := packQuery(b, 77, "example.com", dnsmsg.TypeTXT)
	out, ok := srv.ServeQuery(nil, pkt, nil)
	if !ok {
		b.Fatal("fast path missed")
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, ok = srv.ServeQuery(out[:0], pkt, nil); !ok {
			b.Fatal("miss")
		}
	}
}
