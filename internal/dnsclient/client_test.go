package dnsclient

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
)

func name(s string) dnsmsg.Name { return dnsmsg.MustParseName(s) }

// startServer brings up an authoritative server on the fabric at ip:53.
func startServer(t *testing.T, fabric *netsim.Fabric, ip string, h dnsserver.Handler) {
	t.Helper()
	srv := &dnsserver.Server{Net: fabric.Host(ip), Addr: ":53", Handler: h}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
}

func testZone() *dnsserver.ZoneSet {
	z := dnsserver.NewZoneSet()
	z.Add(dnsmsg.Record{Name: name("example.com"), Class: dnsmsg.ClassIN, TTL: 3600,
		Data: dnsmsg.SOA{MName: name("ns.example.com"), RName: name("root.example.com"), Serial: 1}})
	z.AddTXT(name("example.com"), "v=spf1 mx -all")
	z.AddTXT(name("example.com"), "some other verification string")
	z.AddMX(name("example.com"), 20, name("backup.example.com"))
	z.AddMX(name("example.com"), 10, name("mail.example.com"))
	z.AddA(name("mail.example.com"), netip.MustParseAddr("192.0.2.10"))
	z.AddA(name("mail.example.com"), netip.MustParseAddr("2001:db8::10"))
	z.Add(dnsmsg.Record{Name: name("10.2.0.192.in-addr.arpa"), Class: dnsmsg.ClassIN, TTL: 60,
		Data: dnsmsg.PTR{Target: name("mail.example.com")}})
	return z
}

// stubResolver builds a Resolver over a bare wire Client — the layering
// every production caller now uses via NewResolver(Querier).
func stubResolver(n netsim.Network, server string, timeout time.Duration) *Resolver {
	return NewResolver(&Client{Net: n, Server: server, Timeout: timeout})
}

func newResolver(t *testing.T) (*Resolver, *netsim.Fabric) {
	fabric := netsim.NewFabric()
	startServer(t, fabric, "192.0.2.53", testZone())
	return stubResolver(fabric.Host("198.51.100.1"), "192.0.2.53:53", 2*time.Second), fabric
}

func TestLookupTXT(t *testing.T) {
	r, _ := newResolver(t)
	txts, err := r.LookupTXT(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 2 {
		t.Fatalf("TXT = %v", txts)
	}
	var foundSPF bool
	for _, s := range txts {
		if strings.HasPrefix(s, "v=spf1") {
			foundSPF = true
		}
	}
	if !foundSPF {
		t.Errorf("no SPF string in %v", txts)
	}
}

func TestLookupTXTNXDomain(t *testing.T) {
	r, _ := newResolver(t)
	_, err := r.LookupTXT(context.Background(), "missing.example.com")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want NXDOMAIN taxonomy", err)
	}
}

// scriptedQuerier answers each question type from a script and records
// the types it is asked, in order.
type scriptedQuerier struct {
	script map[dnsmsg.Type]scriptedAnswer
	asked  []dnsmsg.Type
}

// scriptedAnswer is either a transport error or a response carrying addrs
// (A or AAAA records, by the question's type) under rcode.
type scriptedAnswer struct {
	err   error
	rcode dnsmsg.RCode
	addrs []string
}

func (q *scriptedQuerier) Query(_ context.Context, n dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error) {
	q.asked = append(q.asked, typ)
	a := q.script[typ]
	if a.err != nil {
		return nil, a.err
	}
	r := dnsmsg.NewQuery(1, n, typ).Reply()
	r.Header.RCode = a.rcode
	for _, s := range a.addrs {
		addr := netip.MustParseAddr(s)
		var d dnsmsg.RData = dnsmsg.A{Addr: addr}
		if typ == dnsmsg.TypeAAAA {
			d = dnsmsg.AAAA{Addr: addr}
		}
		r.Answers = append(r.Answers, dnsmsg.Record{Name: n, Class: dnsmsg.ClassIN, TTL: 60, Data: d})
	}
	return r, nil
}

// LookupIP asks for one family per question, A before AAAA, and merges
// the answers: a family that answers clears the error of the one before
// it, and a lookup left with no address fails with the first error since
// the last usable answer.
func TestLookupIPBothFamilies(t *testing.T) {
	errA := errors.New("A exchange failed")
	errAAAA := errors.New("AAAA exchange failed")
	v4 := scriptedAnswer{addrs: []string{"192.0.2.10"}}
	v6 := scriptedAnswer{addrs: []string{"2001:db8::10"}}
	a, aaaa := dnsmsg.TypeA, dnsmsg.TypeAAAA
	for _, tc := range []struct {
		name    string
		network string
		script  map[dnsmsg.Type]scriptedAnswer
		asked   []dnsmsg.Type
		want    []string
		wantErr error
	}{
		{"ip asks A then AAAA", "ip", map[dnsmsg.Type]scriptedAnswer{a: v4, aaaa: v6},
			[]dnsmsg.Type{a, aaaa}, []string{"192.0.2.10", "2001:db8::10"}, nil},
		{"ip4 asks once", "ip4", map[dnsmsg.Type]scriptedAnswer{a: v4, aaaa: v6},
			[]dnsmsg.Type{a}, []string{"192.0.2.10"}, nil},
		{"ip6 asks once", "ip6", map[dnsmsg.Type]scriptedAnswer{a: v4, aaaa: v6},
			[]dnsmsg.Type{aaaa}, []string{"2001:db8::10"}, nil},
		{"A fails, AAAA answers", "ip", map[dnsmsg.Type]scriptedAnswer{a: {err: errA}, aaaa: v6},
			[]dnsmsg.Type{a, aaaa}, []string{"2001:db8::10"}, nil},
		{"A answers, AAAA fails", "ip", map[dnsmsg.Type]scriptedAnswer{a: v4, aaaa: {err: errAAAA}},
			[]dnsmsg.Type{a, aaaa}, []string{"192.0.2.10"}, nil},
		{"both fail: A's error", "ip", map[dnsmsg.Type]scriptedAnswer{a: {err: errA}, aaaa: {err: errAAAA}},
			[]dnsmsg.Type{a, aaaa}, nil, errA},
		{"empty A, failing AAAA: AAAA's error", "ip", map[dnsmsg.Type]scriptedAnswer{a: {}, aaaa: {err: errAAAA}},
			[]dnsmsg.Type{a, aaaa}, nil, errAAAA},
		{"both NXDOMAIN", "ip", map[dnsmsg.Type]scriptedAnswer{a: {rcode: dnsmsg.RCodeNXDomain}, aaaa: {rcode: dnsmsg.RCodeNXDomain}},
			[]dnsmsg.Type{a, aaaa}, nil, ErrNotFound},
		{"SERVFAIL A, empty AAAA", "ip", map[dnsmsg.Type]scriptedAnswer{a: {rcode: dnsmsg.RCodeServFail}, aaaa: {}},
			[]dnsmsg.Type{a, aaaa}, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &scriptedQuerier{script: tc.script}
			got, err := NewResolver(q).LookupIP(context.Background(), tc.network, "mail.example.com")
			if !slices.Equal(q.asked, tc.asked) {
				t.Errorf("asked %v, want %v", q.asked, tc.asked)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			var addrs []string
			for _, g := range got {
				addrs = append(addrs, g.String())
			}
			if !slices.Equal(addrs, tc.want) {
				t.Errorf("addrs = %v, want %v", addrs, tc.want)
			}
		})
	}
}

func TestLookupMXSorted(t *testing.T) {
	r, _ := newResolver(t)
	mxs, err := r.LookupMX(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(mxs) != 2 || mxs[0].Preference != 10 || mxs[0].Host != "mail.example.com." {
		t.Fatalf("MX = %v", mxs)
	}
}

func TestLookupPTR(t *testing.T) {
	r, _ := newResolver(t)
	ptrs, err := r.LookupPTR(context.Background(), netip.MustParseAddr("192.0.2.10"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 1 || ptrs[0] != "mail.example.com." {
		t.Fatalf("PTR = %v", ptrs)
	}
}

func TestExchangeTimeoutIsTemporary(t *testing.T) {
	fabric := netsim.NewFabric()
	// No server at this address: UDP datagrams vanish.
	r := stubResolver(fabric.Host("198.51.100.1"), "192.0.2.99:53", 30*time.Millisecond)
	_, err := r.LookupTXT(context.Background(), "example.com")
	if err == nil {
		t.Fatal("lookup against absent server should fail")
	}
	if !errors.Is(err, ErrTemporary) {
		t.Fatalf("err = %v, want temporary taxonomy", err)
	}
}

func TestExchangeTruncationFallsBackToTCP(t *testing.T) {
	z := dnsserver.NewZoneSet()
	// ~40 × 110 bytes of TXT ≈ 4.4 KB: must arrive via TCP.
	for i := 0; i < 40; i++ {
		z.AddTXT(name("big.example.com"), strings.Repeat("y", 100))
	}
	fabric := netsim.NewFabric()
	startServer(t, fabric, "10.0.0.53", z)
	r := stubResolver(fabric.Host("10.0.0.2"), "10.0.0.53:53", 2*time.Second)
	txts, err := r.LookupTXT(context.Background(), "big.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 40 {
		t.Fatalf("got %d TXT strings over TCP fallback, want 40", len(txts))
	}
}

// loseFirstQuery is a netsim.FaultInjector that drops the first datagram
// sent to port 53 and passes everything else.
type loseFirstQuery struct{ dropped atomic.Bool }

func (*loseFirstQuery) DialTCP(src, dst netsim.Addr) netsim.DialFault { return netsim.DialFault{} }

func (l *loseFirstQuery) Datagram(from, to netsim.Addr, payload []byte) ([]byte, netsim.DatagramVerdict) {
	if to.Port == 53 && l.dropped.CompareAndSwap(false, true) {
		return nil, netsim.VerdictDrop
	}
	return nil, netsim.VerdictPass
}

func TestExchangeRetriesAfterLoss(t *testing.T) {
	fabric := netsim.NewFabric()
	startServer(t, fabric, "10.0.1.53", testZone())
	loss := &loseFirstQuery{}
	fabric.Faults = loss
	r := NewResolver(&Client{
		Net:     fabric.Host("10.0.1.2"),
		Server:  "10.0.1.53:53",
		Timeout: 100 * time.Millisecond,
	})
	txts, err := r.LookupTXT(context.Background(), "example.com")
	if err != nil {
		t.Fatalf("retry did not recover from loss: %v", err)
	}
	if len(txts) == 0 {
		t.Fatal("no TXT after retry")
	}
	if !loss.dropped.Load() {
		t.Fatal("no query was lost")
	}
}

func TestClientIgnoresSpoofedResponses(t *testing.T) {
	// An off-path attacker (or misdelivery) injecting a response with the
	// wrong transaction ID must not be accepted; the genuine answer that
	// follows must be.
	fabric := netsim.NewFabric()
	// A raw UDP responder (not dnsserver.Server) so the spoofed datagram
	// can be injected ahead of the genuine one.
	pc, err := fabric.Host("10.7.0.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				continue
			}
			// 1. Spoofed response: wrong ID, attacker-controlled answer.
			spoof := q.Reply()
			spoof.Header.ID = q.Header.ID + 1
			spoof.Answers = append(spoof.Answers, dnsmsg.Record{
				Name: q.Questions[0].Name, Class: dnsmsg.ClassIN, TTL: 1,
				Data: dnsmsg.TXT{Strings: []string{"v=spf1 +all"}},
			})
			if pkt, err := spoof.Pack(); err == nil {
				pc.WriteTo(pkt, from)
			}
			// 2. Genuine response.
			real := q.Reply()
			real.Answers = append(real.Answers, dnsmsg.Record{
				Name: q.Questions[0].Name, Class: dnsmsg.ClassIN, TTL: 1,
				Data: dnsmsg.TXT{Strings: []string{"v=spf1 -all"}},
			})
			if pkt, err := real.Pack(); err == nil {
				pc.WriteTo(pkt, from)
			}
		}
	}()
	r := stubResolver(fabric.Host("10.7.0.2"), "10.7.0.53:53", 2*time.Second)
	txts, err := r.LookupTXT(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 1 || txts[0] != "v=spf1 -all" {
		t.Fatalf("client accepted spoofed answer: %v", txts)
	}
}

// TestClientSkipsOversizeUDPAnswers has a raw responder send an answer
// over dnsserver.MaxUDPPayload bytes, with the query's ID and question,
// ahead of the genuine one. The client sends no EDNS, so no answer to its
// query may be that long: it must skip the datagram and take the next.
func TestClientSkipsOversizeUDPAnswers(t *testing.T) {
	fabric := netsim.NewFabric()
	pc, err := fabric.Host("10.7.0.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	answer := func(q *dnsmsg.Message, txt ...string) []byte {
		m := q.Reply()
		m.Answers = append(m.Answers, dnsmsg.Record{
			Name: q.Questions[0].Name, Class: dnsmsg.ClassIN, TTL: 1,
			Data: dnsmsg.TXT{Strings: txt},
		})
		pkt, err := m.Pack()
		if err != nil {
			t.Error(err)
		}
		return pkt
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				continue
			}
			big := answer(q, "v=spf1 +all", strings.Repeat("x", 255), strings.Repeat("y", 255))
			if len(big) <= dnsserver.MaxUDPPayload {
				t.Errorf("oversize answer packs to %d bytes", len(big))
			}
			pc.WriteTo(big, from)
			pc.WriteTo(answer(q, "v=spf1 -all"), from)
		}
	}()
	r := stubResolver(fabric.Host("10.7.0.2"), "10.7.0.53:53", 2*time.Second)
	txts, err := r.LookupTXT(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 1 || txts[0] != "v=spf1 -all" {
		t.Fatalf("client accepted an answer over %d bytes: %.40q", dnsserver.MaxUDPPayload, txts)
	}
}

func TestReverseName(t *testing.T) {
	if got := ReverseName(netip.MustParseAddr("192.0.2.10")); got != "10.2.0.192.in-addr.arpa" {
		t.Errorf("v4 reverse = %q", got)
	}
	got := ReverseName(netip.MustParseAddr("2001:db8::1"))
	if !strings.HasSuffix(got, ".ip6.arpa") || !strings.HasPrefix(got, "1.0.0.0.") {
		t.Errorf("v6 reverse = %q", got)
	}
	if len(strings.Split(got, ".")) != 34 {
		t.Errorf("v6 reverse has wrong label count: %q", got)
	}
}

func TestServFailIsTemporary(t *testing.T) {
	fabric := netsim.NewFabric()
	h := dnsserver.HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
		r := q.Reply()
		r.Header.RCode = dnsmsg.RCodeServFail
		return r
	})
	srv := &dnsserver.Server{Net: fabric.Host("10.0.2.53"), Addr: ":53", Handler: h}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	r := stubResolver(fabric.Host("10.0.2.2"), "10.0.2.53:53", time.Second)
	_, err := r.LookupTXT(context.Background(), "example.com")
	if !errors.Is(err, ErrTemporary) {
		t.Fatalf("SERVFAIL should map to temporary, got %v", err)
	}
}
