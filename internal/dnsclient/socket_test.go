package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
)

// countingNet is a netsim.Network that counts the UDP sockets dialed
// through it and the ones closed since.
type countingNet struct {
	netsim.Network
	dials, closes atomic.Int64
}

func (n *countingNet) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	c, err := n.Network.DialContext(ctx, network, address)
	if err != nil || network != "udp" {
		return c, err
	}
	n.dials.Add(1)
	return &countedConn{Conn: c, n: n}, nil
}

// countedConn counts its first Close on its network.
type countedConn struct {
	net.Conn
	n      *countingNet
	closed atomic.Bool
}

func (c *countedConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.n.closes.Add(1)
	}
	return c.Conn.Close()
}

// txtAnswer is q's reply carrying one TXT record.
func txtAnswer(q *dnsmsg.Message, txt string) *dnsmsg.Message {
	r := q.Reply()
	r.Answers = append(r.Answers, dnsmsg.Record{
		Name: q.Questions[0].Name, Class: dnsmsg.ClassIN, TTL: 1,
		Data: dnsmsg.TXT{Strings: []string{txt}},
	})
	return r
}

// TestClientReusesIdleSockets: sequential lookups share one socket,
// concurrent lookups each take one of their own and leave them idle for
// the next, and Close closes every socket, also one an exchange returns
// after Close.
func TestClientReusesIdleSockets(t *testing.T) {
	fabric := netsim.NewFabric()
	held, release := make(chan struct{}), make(chan struct{})
	startServer(t, fabric, "192.0.2.53", dnsserver.HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
		if q.Questions[0].Name.Equal(name("hold.example.com")) {
			held <- struct{}{}
			<-release
		}
		return txtAnswer(q, "v=spf1 -all")
	}))
	var unhold sync.Once
	t.Cleanup(func() { unhold.Do(func() { close(release) }) }) // before the server stops
	cn := &countingNet{Network: fabric.Host("198.51.100.1")}
	c := &Client{Net: cn, Server: "192.0.2.53:53", Timeout: 2 * time.Second}
	r := NewResolver(c)
	ctx := context.Background()
	lookup := func(host string) error {
		txts, err := r.LookupTXT(ctx, host)
		if err == nil && (len(txts) != 1 || txts[0] != "v=spf1 -all") {
			t.Errorf("LookupTXT(%s) = %q", host, txts)
		}
		return err
	}

	for i := 0; i < 50; i++ {
		if err := lookup("example.com"); err != nil {
			t.Fatal(err)
		}
	}
	if n := cn.dials.Load(); n != 1 {
		t.Fatalf("50 sequential lookups dialed %d sockets, want 1", n)
	}

	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := lookup("example.com"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	dialed := cn.dials.Load()
	if dialed > workers {
		t.Fatalf("%d concurrent lookups dialed %d sockets in all, want at most %d", workers, dialed, workers)
	}
	for i := 0; i < 50; i++ {
		if err := lookup("example.com"); err != nil {
			t.Fatal(err)
		}
	}
	if n := cn.dials.Load(); n != dialed {
		t.Fatalf("sequential lookups after the concurrent ones dialed %d more sockets, want none", n-dialed)
	}
	if n := cn.closes.Load(); n != 0 {
		t.Fatalf("answered lookups closed %d sockets, want none", n)
	}

	// One lookup holds a socket across Close; it closes when it returns.
	done := make(chan error, 1)
	go func() { done <- lookup("hold.example.com") }()
	<-held
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n, want := cn.closes.Load(), cn.dials.Load()-1; n != want {
		t.Fatalf("Close closed %d sockets, want the %d idle ones", n, want)
	}
	unhold.Do(func() { close(release) })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, want := cn.closes.Load(), cn.dials.Load(); n != want {
		t.Fatalf("%d of %d sockets closed after the held lookup returned, want all", n, want)
	}
}

// TestReusedSocketSkipsStaleAnswer: a raw responder answers the first
// lookup only after both its attempts have timed out, and only once the
// second lookup's query arrives, so the stale answers land in the socket
// the second lookup reuses, ahead of its own answer. The second lookup
// must skip them.
func TestReusedSocketSkipsStaleAnswer(t *testing.T) {
	fabric := netsim.NewFabric()
	pc, err := fabric.Host("10.7.0.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		type pending struct {
			q    *dnsmsg.Message
			from net.Addr
		}
		var late []pending
		buf := make([]byte, 512)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				continue
			}
			if q.Questions[0].Name.Equal(name("one.example.com")) {
				late = append(late, pending{q, from})
				continue
			}
			for _, p := range late {
				if pkt, err := txtAnswer(p.q, "v=spf1 stale").Pack(); err == nil {
					pc.WriteTo(pkt, p.from)
				}
			}
			late = nil
			if pkt, err := txtAnswer(q, "v=spf1 fresh").Pack(); err == nil {
				pc.WriteTo(pkt, from)
			}
		}
	}()
	cn := &countingNet{Network: fabric.Host("10.7.0.2")}
	r := NewResolver(&Client{Net: cn, Server: "10.7.0.53:53", Timeout: 50 * time.Millisecond})
	ctx := context.Background()
	if _, err := r.LookupTXT(ctx, "one.example.com"); !errors.Is(err, ErrTemporary) {
		t.Fatalf("unanswered lookup = %v, want a temporary failure", err)
	}
	txts, err := r.LookupTXT(ctx, "two.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) != 1 || txts[0] != "v=spf1 fresh" {
		t.Fatalf("second lookup = %q, want its own answer", txts)
	}
	if n := cn.dials.Load(); n != 1 {
		t.Fatalf("the lookups dialed %d sockets, want 1: the stale answers never met the reused socket", n)
	}
}

// TestLentResponsesStayWithTheirLookup: GOMAXPROCS×4 goroutines look up
// distinct names through one Client's Resolver, and the server answers
// each name with TXT records of its own. Each lookup reads its response
// in place, in the decoder of the socket it holds, so a socket that went
// back to the idle list before the lookup had copied its answer out would
// let another lookup decode over it: a goroutine would get another's
// records, or the race detector would see the decoder shared. CI runs
// this with -race -count=10.
func TestLentResponsesStayWithTheirLookup(t *testing.T) {
	fabric := netsim.NewFabric()
	const records = 10
	answer := func(host string, i int) string { return fmt.Sprintf("%d %s", i, host) }
	startServer(t, fabric, "192.0.2.53", dnsserver.HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
		host := q.Questions[0].Name.String()
		r := q.Reply()
		for i := 0; i < records; i++ {
			r.Answers = append(r.Answers, dnsmsg.Record{
				Name: q.Questions[0].Name, Class: dnsmsg.ClassIN, TTL: 1,
				Data: dnsmsg.TXT{Strings: []string{answer(host, i)}},
			})
		}
		return r
	}))
	r := NewResolver(&Client{Net: fabric.Host("198.51.100.1"), Server: "192.0.2.53:53", Timeout: 2 * time.Second})
	ctx := context.Background()
	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				host := fmt.Sprintf("w%d-%d.example.com.", w, i)
				txts, err := r.LookupTXT(ctx, host)
				if err != nil {
					t.Error(err)
					return
				}
				if len(txts) != records {
					t.Errorf("LookupTXT(%s) = %d records, want %d", host, len(txts), records)
					return
				}
				for j, txt := range txts {
					if want := answer(host, j); txt != want {
						t.Errorf("LookupTXT(%s)[%d] = %q, want %q", host, j, txt, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryResponsesOutliveLaterLookups: Query Unpacks, so the message it
// returns stays intact while in-place lookups and further queries reuse
// the socket, and with it the decoder, that received it. CachingClient
// keeps such messages.
func TestQueryResponsesOutliveLaterLookups(t *testing.T) {
	fabric := netsim.NewFabric()
	startServer(t, fabric, "192.0.2.53", dnsserver.HandlerFunc(func(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
		return txtAnswer(q, "v=spf1 a:"+q.Questions[0].Name.String()+" -all")
	}))
	c := &Client{Net: fabric.Host("198.51.100.1"), Server: "192.0.2.53:53", Timeout: 2 * time.Second}
	r := NewResolver(c)
	ctx := context.Background()
	if _, err := r.LookupTXT(ctx, "warm.example.com"); err != nil {
		t.Fatal(err)
	}
	kept, err := c.Query(ctx, name("kept.example.com"), dnsmsg.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		host := fmt.Sprintf("later%d.example.com", i)
		if _, err := r.LookupTXT(ctx, host); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(ctx, name(host), dnsmsg.TypeTXT); err != nil {
			t.Fatal(err)
		}
	}
	if got := kept.Questions[0].Name.String(); got != "kept.example.com." {
		t.Errorf("kept response's question became %s", got)
	}
	if len(kept.Answers) != 1 {
		t.Fatalf("kept response has %d answers, want 1", len(kept.Answers))
	}
	if got := kept.Answers[0].Data.(dnsmsg.TXT).Joined(); got != "v=spf1 a:kept.example.com. -all" {
		t.Errorf("kept response's answer became %q", got)
	}
	// One socket served every exchange, so each Query ran on the socket
	// whose decoder the lookups use.
	if n := len(c.idle); n != 1 {
		t.Errorf("sequential exchanges left %d idle sockets, want 1", n)
	}
}
