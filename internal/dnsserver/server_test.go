package dnsserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spfail/internal/dnsmsg"
	"spfail/internal/netsim"
)

func name(s string) dnsmsg.Name { return dnsmsg.MustParseName(s) }

func newTestZone() *ZoneSet {
	z := NewZoneSet()
	z.Add(dnsmsg.Record{Name: name("example.com"), Class: dnsmsg.ClassIN, TTL: 3600,
		Data: dnsmsg.SOA{MName: name("ns.example.com"), RName: name("host.example.com"), Serial: 1}})
	z.AddMX(name("example.com"), 10, name("mail.example.com"))
	z.AddA(name("mail.example.com"), netip.MustParseAddr("192.0.2.1"))
	z.AddTXT(name("example.com"), "v=spf1 ip4:192.0.2.0/24 -all")
	z.Add(dnsmsg.Record{Name: name("www.example.com"), Class: dnsmsg.ClassIN, TTL: 60,
		Data: dnsmsg.CNAME{Target: name("mail.example.com")}})
	return z
}

func TestZoneSetLookup(t *testing.T) {
	z := newTestZone()
	rrs, exists := z.Lookup(name("example.com"), dnsmsg.TypeMX)
	if !exists || len(rrs) != 1 {
		t.Fatalf("MX lookup = %v, %v", rrs, exists)
	}
	if _, exists := z.Lookup(name("absent.example.com"), dnsmsg.TypeA); exists {
		t.Error("absent name should not exist")
	}
	// Existing name, missing type.
	rrs, exists = z.Lookup(name("mail.example.com"), dnsmsg.TypeTXT)
	if !exists || len(rrs) != 0 {
		t.Errorf("empty-type lookup = %v, %v", rrs, exists)
	}
}

func TestZoneSetCNAMEChase(t *testing.T) {
	z := newTestZone()
	rrs, exists := z.Lookup(name("www.example.com"), dnsmsg.TypeA)
	if !exists {
		t.Fatal("www should exist")
	}
	var gotCNAME, gotA bool
	for _, rr := range rrs {
		switch rr.Data.(type) {
		case dnsmsg.CNAME:
			gotCNAME = true
		case dnsmsg.A:
			gotA = true
		}
	}
	if !gotCNAME || !gotA {
		t.Errorf("CNAME chase returned %v", rrs)
	}
}

func TestZoneSetServeDNSNXDomain(t *testing.T) {
	z := newTestZone()
	q := dnsmsg.NewQuery(1, name("nope.example.com"), dnsmsg.TypeA)
	resp := z.ServeDNS(q, nil)
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 {
		t.Fatalf("authority = %v, want SOA", resp.Authority)
	}
	if _, ok := resp.Authority[0].Data.(dnsmsg.SOA); !ok {
		t.Fatal("authority should be SOA")
	}
}

// readLoopNet is a netsim.Network whose ListenPacket hides the fabric
// endpoint's type, so a Server on it answers from its read loop, as it
// does on an OS socket.
type readLoopNet struct{ netsim.Network }

func (n readLoopNet) ListenPacket(network, address string) (net.PacketConn, error) {
	pc, err := n.Network.ListenPacket(network, address)
	if err != nil {
		return nil, err
	}
	return struct{ net.PacketConn }{pc}, nil
}

// TestServerUDPEndToEnd answers a query on both UDP paths: inline on the
// sender's goroutine, as on a fabric endpoint, and from the read loop.
func TestServerUDPEndToEnd(t *testing.T) {
	for _, path := range []struct {
		name string
		net  func(netsim.Network) netsim.Network
	}{
		{"inline", func(n netsim.Network) netsim.Network { return n }},
		{"read-loop", func(n netsim.Network) netsim.Network { return readLoopNet{n} }},
	} {
		t.Run(path.name, func(t *testing.T) {
			fabric := netsim.NewFabric()
			srv := &Server{Net: path.net(fabric.Host("192.0.2.53")), Addr: ":53", Handler: newTestZone()}
			if err := srv.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer srv.Stop()

			conn, err := fabric.Host("198.51.100.1").DialContext(context.Background(), "udp", "192.0.2.53:53")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			q := dnsmsg.NewQuery(99, name("example.com"), dnsmsg.TypeTXT)
			pkt, _ := q.Pack()
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			conn.Write(pkt)
			buf := make([]byte, 4096)
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				t.Fatal(err)
			}
			if resp.Header.ID != 99 || !resp.Header.Response || !resp.Header.Authoritative {
				t.Errorf("header = %+v", resp.Header)
			}
			if len(resp.Answers) != 1 {
				t.Fatalf("answers = %v", resp.Answers)
			}
			if got := resp.Answers[0].Data.(dnsmsg.TXT).Joined(); !strings.HasPrefix(got, "v=spf1") {
				t.Errorf("TXT = %q", got)
			}
		})
	}
}

// exchange sends q on conn and returns the decoded reply, or the read's
// error once timeout has passed.
func exchange(conn net.Conn, q *dnsmsg.Message, timeout time.Duration) (*dnsmsg.Message, error) {
	pkt, err := q.Pack()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(pkt); err != nil {
		return nil, err
	}
	buf := make([]byte, MaxUDPPayload)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return dnsmsg.Unpack(buf[:n])
}

// TestServerStopWaitsForAnswerInFlight: Stop closes the UDP endpoint
// first, so a later query goes unanswered and times out, and returns only
// once an answer already running on its sender's goroutine has returned.
func TestServerStopWaitsForAnswerInFlight(t *testing.T) {
	fabric := netsim.NewFabric()
	entered, release := make(chan struct{}), make(chan struct{})
	srv := &Server{Net: fabric.Host("192.0.2.53"), Addr: ":53", Handler: HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
		if q.Questions[0].Name.Equal(name("hold.example.com")) {
			close(entered)
			<-release
		}
		return q.Reply()
	})}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		conn, err := fabric.Host("198.51.100.1").DialContext(context.Background(), "udp", "192.0.2.53:53")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	held := dial()
	go exchange(held, dnsmsg.NewQuery(1, name("hold.example.com"), dnsmsg.TypeA), 5*time.Second)
	<-entered

	stopped := make(chan struct{})
	go func() {
		srv.Stop()
		close(stopped)
	}()
	// Once Stop has closed the endpoint, a query goes unanswered.
	late := dial()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := exchange(late, dnsmsg.NewQuery(2, name("example.com"), dnsmsg.TypeA), 20*time.Millisecond)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			break
		}
		if err != nil {
			t.Fatalf("query while stopping: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Stop never closed the UDP endpoint")
		}
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while an answer was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return once the answer returned")
	}
	if _, err := exchange(late, dnsmsg.NewQuery(3, name("example.com"), dnsmsg.TypeA), 50*time.Millisecond); err == nil {
		t.Fatal("a stopped server answered a query")
	}
}

// TestServerConcurrentQueriesGetTheirOwnAnswers has 4×GOMAXPROCS clients
// query one fabric server at once. Each answer runs on its client's
// goroutine with a Decoder and a buffer of its own, so every client must
// get its own ID and question back, with the answer made for it. Run it
// with -race.
func TestServerConcurrentQueriesGetTheirOwnAnswers(t *testing.T) {
	fabric := netsim.NewFabric()
	srv := &Server{Net: fabric.Host("192.0.2.53"), Addr: ":53", Handler: HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
		r := q.Reply()
		r.Answers = append(r.Answers, dnsmsg.Record{Name: q.Questions[0].Name, Class: dnsmsg.ClassIN, TTL: 1,
			Data: dnsmsg.TXT{Strings: []string{q.Questions[0].Name.String()}}})
		return r
	})}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	clients := 4 * runtime.GOMAXPROCS(0)
	const each = 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		conn, err := fabric.Host(fmt.Sprintf("198.51.%d.%d", 100+c/250, 1+c%250)).DialContext(context.Background(), "udp", "192.0.2.53:53")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				qn := fmt.Sprintf("q%d-%d.example.com.", c, i)
				id := uint16(c*each + i)
				resp, err := exchange(conn, dnsmsg.NewQuery(id, name(qn), dnsmsg.TypeTXT), 5*time.Second)
				if err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
				if resp.Header.ID != id || len(resp.Questions) != 1 || resp.Questions[0].Name.String() != qn ||
					len(resp.Answers) != 1 || resp.Answers[0].Data.(dnsmsg.TXT).Joined() != qn {
					t.Errorf("client %d asked %s with ID %d, got ID %d, %v, %v", c, qn, id, resp.Header.ID, resp.Questions, resp.Answers)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerTCPEndToEnd(t *testing.T) {
	fabric := netsim.NewFabric()
	srv := &Server{Net: fabric.Host("192.0.2.53"), Addr: ":53", Handler: newTestZone()}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	conn, err := fabric.Host("198.51.100.1").DialContext(context.Background(), "tcp", "192.0.2.53:53")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two queries on one connection: the second is decoded into the
	// connection's reused Decoder slots and framed in its reused buffer.
	var frame, raw []byte
	for i, tc := range []struct {
		qname string
		typ   dnsmsg.Type
		want  string
	}{
		{"mail.example.com", dnsmsg.TypeA, "192.0.2.1"},
		{"example.com", dnsmsg.TypeMX, "10 mail.example.com."},
	} {
		q := dnsmsg.NewQuery(uint16(7+i), name(tc.qname), tc.typ)
		if frame, err = AppendTCPMessage(frame[:0], q); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if raw, err = ReadTCPMessage(conn, raw); err != nil {
			t.Fatal(err)
		}
		resp, err := dnsmsg.Unpack(raw)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != q.Header.ID || len(resp.Answers) != 1 {
			t.Fatalf("query %d: id %d, answers %v", i, resp.Header.ID, resp.Answers)
		}
		if got := resp.Answers[0].Data.String(); got != tc.want {
			t.Errorf("query %d: %s %s = %s, want %s", i, tc.qname, tc.typ, got, tc.want)
		}
	}
}

// TestAppendTCPMessageFramesThePackedMessage checks that a framed message
// is its length and then exactly Pack's bytes, compression included,
// whether or not the destination has room for it.
func TestAppendTCPMessageFramesThePackedMessage(t *testing.T) {
	z := newTestZone()
	resp := z.ServeDNS(dnsmsg.NewQuery(3, name("example.com"), dnsmsg.TypeMX), nil)
	packed, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range [][]byte{nil, make([]byte, 0, 4), make([]byte, 0, 1024), []byte("xy")} {
		prefix := string(dst)
		frame, err := AppendTCPMessage(dst, resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(frame[:len(prefix)]) != prefix {
			t.Fatalf("cap %d: prefix clobbered: %q", cap(dst), frame[:len(prefix)])
		}
		frame = frame[len(prefix):]
		if n := int(frame[0])<<8 | int(frame[1]); n != len(packed) || !bytes.Equal(frame[2:], packed) {
			t.Fatalf("cap %d: frame = %x, want length %d and %x", cap(dst), frame, len(packed), packed)
		}
	}
}

func TestServerTruncatesOversizedUDP(t *testing.T) {
	z := NewZoneSet()
	// 40 TXT records of 100 bytes each — far beyond 512 bytes.
	for i := 0; i < 40; i++ {
		z.AddTXT(name("big.example.com"), strings.Repeat("x", 100))
	}
	fabric := netsim.NewFabric()
	srv := &Server{Net: fabric.Host("10.0.0.53"), Addr: ":53", Handler: z}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	conn, _ := fabric.Host("10.0.0.2").DialContext(context.Background(), "udp", "10.0.0.53:53")
	defer conn.Close()
	q := dnsmsg.NewQuery(3, name("big.example.com"), dnsmsg.TypeTXT)
	pkt, _ := q.Pack()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	conn.Write(pkt)
	buf := make([]byte, 64<<10)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated {
		t.Error("oversized response should set TC")
	}
	if len(resp.Answers) != 0 {
		t.Error("truncated response should carry no answers")
	}
}

func TestMuxRouting(t *testing.T) {
	var hitA, hitB, hitFallback bool
	mk := func(hit *bool) Handler {
		return HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
			*hit = true
			return q.Reply()
		})
	}
	m := NewMux(mk(&hitFallback))
	m.Handle(name("dns-lab.org"), mk(&hitA))
	m.Handle(name("spf-test.dns-lab.org"), mk(&hitB))

	m.ServeDNS(dnsmsg.NewQuery(1, name("x.spf-test.dns-lab.org"), dnsmsg.TypeA), nil)
	if !hitB || hitA {
		t.Error("longest suffix should win")
	}
	m.ServeDNS(dnsmsg.NewQuery(1, name("other.dns-lab.org"), dnsmsg.TypeA), nil)
	if !hitA {
		t.Error("shorter suffix should catch non-matching subdomain")
	}
	m.ServeDNS(dnsmsg.NewQuery(1, name("example.net"), dnsmsg.TypeA), nil)
	if !hitFallback {
		t.Error("fallback should catch unrouted names")
	}
}

func TestMuxRefusesWithoutFallback(t *testing.T) {
	m := NewMux(nil)
	resp := m.ServeDNS(dnsmsg.NewQuery(1, name("x.org"), dnsmsg.TypeA), nil)
	if resp.Header.RCode != dnsmsg.RCodeRefused {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestQueryLogAndSink(t *testing.T) {
	var log QueryLog
	var forwarded []QueryEvent
	log.AddSink(sinkFunc(func(ev QueryEvent) { forwarded = append(forwarded, ev) }))
	lh := &LoggingHandler{
		Inner: newTestZone(),
		Sink:  &log,
		Now:   func() time.Time { return time.Unix(1000, 0) },
	}
	lh.ServeDNS(dnsmsg.NewQuery(1, name("example.com"), dnsmsg.TypeMX), netsim.Addr{Net: "udp", Host: "10.0.0.9", Port: 555})
	if log.Len() != 1 {
		t.Fatalf("log len = %d", log.Len())
	}
	ev := log.Snapshot()[0]
	if ev.From != "10.0.0.9:555" || !ev.Name.Equal(name("example.com")) || ev.Type != dnsmsg.TypeMX {
		t.Errorf("event = %+v", ev)
	}
	if len(forwarded) != 1 {
		t.Error("sink did not receive event")
	}
	log.Reset()
	if log.Len() != 0 {
		t.Error("Reset did not clear log")
	}
}

type sinkFunc func(QueryEvent)

func (f sinkFunc) Observe(ev QueryEvent) { f(ev) }

// TestLoggedQnameOutlivesTheNextDecode serves two different queries through
// a LoggingHandler whose sink keeps every event, as core.Collector does.
// The server decodes the second query into the Decoder slots that held the
// first, so the first event's qname must be the sink's own copy.
func TestLoggedQnameOutlivesTheNextDecode(t *testing.T) {
	fabric := netsim.NewFabric()
	var log QueryLog
	srv := &Server{Net: fabric.Host("192.0.2.53"), Addr: ":53",
		Handler: &LoggingHandler{Inner: newTestZone(), Sink: &log}}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	conn, err := fabric.Host("198.51.100.1").DialContext(context.Background(), "udp", "192.0.2.53:53")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The second name has more labels than the first, so decoding it
	// writes over every label slot the first one used.
	qnames := []string{"mail.example.com.", "a.b.c.example.org."}
	buf := make([]byte, 512)
	for i, qn := range qnames {
		pkt, err := dnsmsg.NewQuery(uint16(i+1), name(qn), dnsmsg.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	evs := log.Snapshot()
	if len(evs) != len(qnames) {
		t.Fatalf("logged %d events, want %d", len(evs), len(qnames))
	}
	for i, qn := range qnames {
		if got := evs[i].Name.String(); got != qn {
			t.Errorf("event %d qname = %q, want %q", i, got, qn)
		}
	}
}

// TestMailDomainAllocatesOnce: a probe's mail domain is one label slice,
// built once.
func TestMailDomainAllocatesOnce(t *testing.T) {
	z := &SPFTestZone{Base: name("spf-test.dns-lab.org")}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := z.MailDomain("x7k2", "s01"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("MailDomain makes %.1f allocations, want 1", allocs)
	}
}

func TestSPFTestZonePolicy(t *testing.T) {
	z := &SPFTestZone{
		Base:  name("spf-test.dns-lab.org"),
		Addr4: netip.MustParseAddr("192.0.2.25"),
	}
	md, err := z.MailDomain("x7k2", "s01")
	if err != nil {
		t.Fatal(err)
	}
	want := "v=spf1 a:%{d1r}.x7k2.s01.spf-test.dns-lab.org a:b.x7k2.s01.spf-test.dns-lab.org -all"
	if got := z.PolicyFor(md); got != want {
		t.Errorf("PolicyFor = %q, want %q", got, want)
	}

	resp := z.ServeDNS(dnsmsg.NewQuery(1, md, dnsmsg.TypeTXT), nil)
	if len(resp.Answers) != 1 {
		t.Fatalf("TXT answers = %v", resp.Answers)
	}
	if got := resp.Answers[0].Data.(dnsmsg.TXT).Joined(); got != want {
		t.Errorf("served policy = %q", got)
	}
}

func TestSPFTestZoneExtractIDSuite(t *testing.T) {
	z := &SPFTestZone{Base: name("spf-test.dns-lab.org")}
	cases := []struct {
		qname     string
		id, suite string
		ok        bool
	}{
		{"x7k2.s01.spf-test.dns-lab.org", "x7k2", "s01", true},
		{"b.x7k2.s01.spf-test.dns-lab.org", "x7k2", "s01", true},
		{"org.org.dns-lab.spf-test.s01.x7k2.x7k2.s01.spf-test.dns-lab.org", "x7k2", "s01", true},
		{"spf-test.dns-lab.org", "", "", false},
		{"unrelated.example.net", "", "", false},
	}
	for _, c := range cases {
		id, suite, ok := z.ExtractIDSuite(name(c.qname))
		if id != c.id || suite != c.suite || ok != c.ok {
			t.Errorf("ExtractIDSuite(%s) = %q,%q,%v; want %q,%q,%v",
				c.qname, id, suite, ok, c.id, c.suite, c.ok)
		}
	}
}

func TestSPFTestZoneARecords(t *testing.T) {
	z := &SPFTestZone{
		Base:  name("spf-test.dns-lab.org"),
		Addr4: netip.MustParseAddr("192.0.2.25"),
		Addr6: netip.MustParseAddr("2001:db8::25"),
	}
	resp := z.ServeDNS(dnsmsg.NewQuery(1, name("b.x.s.spf-test.dns-lab.org"), dnsmsg.TypeA), nil)
	if len(resp.Answers) != 1 {
		t.Fatalf("A answers = %v", resp.Answers)
	}
	resp = z.ServeDNS(dnsmsg.NewQuery(1, name("b.x.s.spf-test.dns-lab.org"), dnsmsg.TypeAAAA), nil)
	if len(resp.Answers) != 1 {
		t.Fatalf("AAAA answers = %v", resp.Answers)
	}
	// TXT for an expansion target (≥3 extra labels) is empty.
	resp = z.ServeDNS(dnsmsg.NewQuery(1, name("b.x.s.spf-test.dns-lab.org"), dnsmsg.TypeTXT), nil)
	if len(resp.Answers) != 0 {
		t.Errorf("expansion-target TXT = %v", resp.Answers)
	}
	// Out-of-zone queries are refused.
	resp = z.ServeDNS(dnsmsg.NewQuery(1, name("example.net"), dnsmsg.TypeA), nil)
	if resp.Header.RCode != dnsmsg.RCodeRefused {
		t.Errorf("out-of-zone rcode = %v", resp.Header.RCode)
	}
}

func TestSPFTestZoneDMARCReject(t *testing.T) {
	z := &SPFTestZone{Base: name("spf-test.dns-lab.org")}
	resp := z.ServeDNS(dnsmsg.NewQuery(1, name("_dmarc.x.s.spf-test.dns-lab.org"), dnsmsg.TypeTXT), nil)
	if len(resp.Answers) != 1 {
		t.Fatalf("DMARC answers = %v", resp.Answers)
	}
	txt := resp.Answers[0].Data.(dnsmsg.TXT).Joined()
	if !strings.HasPrefix(txt, "v=DMARC1") || !strings.Contains(txt, "p=reject") {
		t.Errorf("DMARC policy = %q", txt)
	}
	// _dmarc of the bare base (extra=1) gets no answer.
	resp = z.ServeDNS(dnsmsg.NewQuery(1, name("_dmarc.spf-test.dns-lab.org"), dnsmsg.TypeTXT), nil)
	if len(resp.Answers) != 0 {
		t.Errorf("base _dmarc answers = %v", resp.Answers)
	}
}

// TestStoppedServersLeaveNoGoroutine starts and stops a few hundred servers
// under one live context: a stopped server must hold no goroutine, its
// watch on ctx included. Cancelling ctx must still stop a running one.
func TestStoppedServersLeaveNoGoroutine(t *testing.T) {
	fabric := netsim.NewFabric()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := runtime.NumGoroutine()
	const servers = 300
	for i := 0; i < servers; i++ {
		srv := &Server{Net: fabric.Host(fmt.Sprintf("10.2.%d.%d", i>>8, i&0xff)), Addr: ":53", Handler: newTestZone()}
		if err := srv.Start(ctx); err != nil {
			t.Fatal(err)
		}
		srv.Stop()
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after stopping %d servers, %d before starting them", n, servers, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	srv := &Server{Net: fabric.Host("192.0.2.53"), Addr: ":53", Handler: newTestZone()}
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	client := fabric.Host("198.51.100.1")
	for {
		c, err := client.DialContext(context.Background(), "tcp", "192.0.2.53:53")
		if errors.Is(err, netsim.ErrRefused) {
			break
		}
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("server still accepting after its context was cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
