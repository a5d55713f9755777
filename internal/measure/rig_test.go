package measure

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
)

// recordingSink keeps every query event it observes.
type recordingSink struct {
	mu  sync.Mutex
	evs []dnsserver.QueryEvent
}

func (s *recordingSink) Observe(ev dnsserver.QueryEvent) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

// TestRigHandlerLogsOnlyTestZoneQueries: the rig's handler answers world
// and test-zone queries alike, but only a test-zone query reaches the
// sink, with its client address and time. A world-zone query is answered
// on the wire path too, still without an event; a test-zone query
// declines it, so the decode path logs it once.
func TestRigHandlerLogsOnlyTestZoneQueries(t *testing.T) {
	zones := dnsserver.NewZoneSet()
	zones.AddTXT(dnsmsg.MustParseName("example.com"), "v=spf1 -all")
	zone := &dnsserver.SPFTestZone{Base: dnsmsg.MustParseName(testZoneBase), Addr4: netip.MustParseAddr("192.0.2.80")}
	var sink recordingSink
	at := time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC)
	h := rigHandler(zones, zone, &sink, func() time.Time { return at })
	from := netsim.Addr{Net: "udp", Host: "198.51.100.9", Port: 40001}

	resp := h.ServeDNS(dnsmsg.NewQuery(1, dnsmsg.MustParseName("example.com"), dnsmsg.TypeTXT), from)
	if len(resp.Answers) != 1 {
		t.Fatalf("world-zone TXT answers = %v", resp.Answers)
	}
	if len(sink.evs) != 0 {
		t.Fatalf("a world-zone query reached the sink: %+v", sink.evs)
	}
	qn := "b.x7k2.s01." + testZoneBase + "."
	resp = h.ServeDNS(dnsmsg.NewQuery(2, dnsmsg.MustParseName(qn), dnsmsg.TypeA), from)
	if len(resp.Answers) != 1 {
		t.Fatalf("test-zone A answers = %v", resp.Answers)
	}
	if len(sink.evs) != 1 {
		t.Fatalf("sink holds %d events after one test-zone query, want 1", len(sink.evs))
	}
	if ev := sink.evs[0]; ev.From != "198.51.100.9:40001" || !ev.Time.Equal(at) || ev.Name.String() != qn || ev.Type != dnsmsg.TypeA {
		t.Errorf("event = %+v", ev)
	}

	wh, ok := h.(dnsserver.WireHandler)
	if !ok {
		t.Fatal("the rig's handler has no wire path")
	}
	for _, tc := range []struct {
		qname  string
		answer bool
	}{{"example.com", true}, {qn, false}} {
		pkt, err := dnsmsg.NewQuery(3, dnsmsg.MustParseName(tc.qname), dnsmsg.TypeTXT).Pack()
		if err != nil {
			t.Fatal(err)
		}
		wq, _ := dnsmsg.ParseWireQuery(pkt)
		if _, ok := wh.ServeWire(nil, wq, from); ok != tc.answer {
			t.Errorf("%s: wire path answered = %v, want %v", tc.qname, ok, tc.answer)
		}
	}
	if len(sink.evs) != 1 {
		t.Errorf("sink holds %d events after the wire path, want 1", len(sink.evs))
	}
}

// TestRigCollectsTestZoneQueries sends a world-zone and a test-zone query
// to a started rig's server. Both are answered, the world-zone one from
// the zone's stored wire records and the test-zone one decoded, and the
// Collector files the test-zone query under its probe ID with the
// client's address and the rig clock's time.
func TestRigCollectsTestZoneQueries(t *testing.T) {
	clk := clock.NewSim(time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC))
	r := newTestRig(t, clk)
	conn, err := r.Fabric.Host("198.51.100.77").DialContext(context.Background(), "udp", r.DNSAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, dnsserver.MaxUDPPayload)
	for _, q := range []*dnsmsg.Message{
		dnsmsg.NewQuery(6, dnsmsg.MustParseName(r.World.Domains[0].Name), dnsmsg.TypeSOA),
		dnsmsg.NewQuery(7, dnsmsg.MustParseName("b.x7k2.s01."+testZoneBase), dnsmsg.TypeA),
	} {
		pkt, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil || resp.Header.ID != q.Header.ID || len(resp.Answers) != 1 {
			t.Fatalf("%s %s: answers %v, %v", q.Questions[0].Name, q.Questions[0].Type, resp, err)
		}
	}
	evs := r.Collector.AppendQueriesFor(nil, "x7k2")
	if len(evs) != 1 {
		t.Fatalf("Collector holds %d events for the probe, want 1", len(evs))
	}
	if ev := evs[0]; ev.From != conn.LocalAddr().String() || !ev.Time.Equal(clk.Now()) || ev.Type != dnsmsg.TypeA {
		t.Errorf("event = %+v, want from %s at %v", ev, conn.LocalAddr(), clk.Now())
	}
}
