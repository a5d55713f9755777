//go:build !race

package netsim

import (
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestUDPExchangeAllocBytes gates what one DNS-style exchange costs the
// fabric: dial a UDP endpoint, write a query, let the server read it and
// reply, read the reply under a deadline, close. An endpoint that
// preallocates for traffic it never receives, or a read that makes a timer
// of its own, shows here. An exchange measured 560 B in 5 allocations:
// the endpoint, its address boxed once as a net.Addr, its connected
// wrapper and inbox ring, and the copy of the reply. The server's
// endpoint copies each query into the buffer it read the last one from,
// so only the new endpoint's first datagram is a fresh copy. The
// server's ReadFrom returns the dialed endpoint's box, so this test,
// which dials for every exchange, pays for the box at the dial. The gates
// leave about 15% headroom on the bytes and one allocation. Skipped under
// -race, which instruments allocation.
func TestUDPExchangeAllocBytes(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("192.0.2.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := f.Host("198.51.100.1")
	query := make([]byte, 40)
	sbuf := make([]byte, 512)
	cbuf := make([]byte, 512)
	exchange := func() {
		c, err := cli.DialContext(context.Background(), "udp", "192.0.2.53:53")
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Write(query); err != nil {
			t.Fatal(err)
		}
		n, from, err := srv.ReadFrom(sbuf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.WriteTo(sbuf[:n], from); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(cbuf); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	for i := 0; i < 100; i++ {
		exchange() // grow the endpoint map and the server inbox once
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%d B, %.1f allocs per exchange", per, allocs)
	if per >= 640 {
		t.Errorf("one UDP dial+write+read+close allocates %d B, want < 640 B", per)
	}
	if allocs > 6 {
		t.Errorf("one UDP dial+write+read+close makes %.1f allocations, want at most 6", allocs)
	}
}

// TestKeptEndpointsExchangeAllocs: an exchange between two endpoints that
// stay bound, as a DNS client's kept socket and a server's endpoint do,
// allocates nothing. Each endpoint copies a datagram into the buffer it
// read the last one from, the server's ReadFrom returns the sender's box
// and WriteTo takes it back unboxed, so no datagram is copied into fresh
// memory or boxes an address. Skipped under -race, which instruments
// allocation.
func TestKeptEndpointsExchangeAllocs(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("192.0.2.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := f.Host("198.51.100.1").DialContext(context.Background(), "udp", "192.0.2.53:53")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := make([]byte, 40)
	sbuf := make([]byte, 512)
	cbuf := make([]byte, 512)
	exchange := func() {
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Write(query); err != nil {
			t.Fatal(err)
		}
		n, from, err := srv.ReadFrom(sbuf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.WriteTo(sbuf[:n], from); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(cbuf); err != nil {
			t.Fatal(err)
		}
	}
	exchange() // grow both inbox rings and make both spare buffers once
	if allocs := testing.AllocsPerRun(1000, exchange); allocs != 0 {
		t.Errorf("an exchange between kept endpoints makes %.1f allocations, want 0", allocs)
	}
}

// TestRespondedExchangeAllocs: an exchange with an endpoint that has a
// responder, as a kept DNS client socket has with the DNS server,
// allocates nothing. The responder reads the query in the sender's own
// buffer, nothing waits in between, and the client copies the reply into
// the buffer it read the last one from. Skipped under -race, which
// instruments allocation.
func TestRespondedExchangeAllocs(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("192.0.2.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	Respond(srv, func(b []byte, from net.Addr) { srv.WriteTo(b, from) })
	c, err := f.Host("198.51.100.1").DialContext(context.Background(), "udp", "192.0.2.53:53")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := make([]byte, 40)
	cbuf := make([]byte, 512)
	exchange := func() {
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Write(query); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(cbuf); err != nil {
			t.Fatal(err)
		}
	}
	exchange() // grow the client's inbox ring and make its spare buffer once
	if allocs := testing.AllocsPerRun(1000, exchange); allocs != 0 {
		t.Errorf("an exchange with a responder makes %.1f allocations, want 0", allocs)
	}
}

// TestTCPSessionAllocBytes gates what one SMTP-shaped session costs the
// fabric: dial, accept, five exchanges in which each side sets a deadline
// before every read and write, then close both ends. Every probe
// transaction, notification and tracker fetch pays this, so a deadline
// that allocates per call shows here. A session measured 600 B in 4
// allocations: the connection, its one deadline timer and the timer's
// callback, and the dial address. The gates leave about 20% headroom on
// the bytes and one allocation. Skipped under -race, which instruments
// allocation.
func TestTCPSessionAllocBytes(t *testing.T) {
	f := NewFabric()
	l, err := f.Host("192.0.2.25").Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const exchanges = 5
	served := make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			for i := 0; i < exchanges; i++ {
				c.SetReadDeadline(time.Now().Add(time.Minute))
				n, err := c.Read(buf)
				if err != nil {
					t.Error(err)
					break
				}
				c.SetWriteDeadline(time.Now().Add(time.Minute))
				if _, err := c.Write(buf[:n]); err != nil {
					t.Error(err)
					break
				}
			}
			c.Close()
			served <- struct{}{}
		}
	}()
	cli := f.Host("198.51.100.1")
	msg := []byte("MAIL FROM:<probe@example.org>\r\n")
	buf := make([]byte, len(msg))
	session := func() {
		c, err := cli.DialContext(context.Background(), "tcp", "192.0.2.25:25")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < exchanges; i++ {
			c.SetWriteDeadline(time.Now().Add(time.Minute))
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(time.Minute))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		<-served
	}
	for i := 0; i < 100; i++ {
		session()
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		session()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%d B, %.1f allocs per session", per, allocs)
	if per >= 720 {
		t.Errorf("one TCP session of %d exchanges allocates %d B, want < 720 B", exchanges, per)
	}
	if allocs > 5 {
		t.Errorf("one TCP session of %d exchanges makes %.1f allocations, want at most 5", exchanges, allocs)
	}
}

// TestClosedTCPConnsRetainNothing dials, sets hour-long deadlines on and
// closes 5,000 connections, then measures the live heap. A deadline timer
// left armed past Close would keep its connection reachable until it
// fires, and a study closes tens of thousands of connections per round.
// Skipped under -race, which instruments allocation.
func TestClosedTCPConnsRetainNothing(t *testing.T) {
	f := NewFabric()
	l, err := f.Host("192.0.2.25").Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cli := f.Host("198.51.100.1")
	cycle := func() {
		c, s := tcpPair(t, cli, l)
		for _, conn := range []net.Conn{c, s} {
			if err := conn.SetReadDeadline(time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetDeadline(time.Now().Add(2 * time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		s.Close()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	const conns = 5000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		cycle()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / conns
	t.Logf("live heap grew %d B per closed connection", per)
	if per >= 64 {
		t.Fatalf("each closed connection keeps %d B live, want < 64 B", per)
	}
}
