package netsim

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestFabricTCPEcho(t *testing.T) {
	f := NewFabric()
	server := f.Host("192.0.2.10")
	client := f.Host("198.51.100.7")

	l, err := server.Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Addr().String(); got != "192.0.2.10:25" {
		t.Fatalf("listener addr = %q", got)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer c.Close()
		if got := c.RemoteAddr().(Addr).Host; got != "198.51.100.7" {
			t.Errorf("server sees remote %q, want client IP", got)
		}
		io.Copy(c, c)
	}()

	c, err := client.DialContext(context.Background(), "tcp", "192.0.2.10:25")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RemoteAddr().String(); got != "192.0.2.10:25" {
		t.Errorf("client sees remote %q", got)
	}
	msg := []byte("EHLO probe.example\r\n")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Errorf("echo = %q", buf)
	}
	c.Close()
	wg.Wait()
}

func TestFabricDialRefusedWithoutListener(t *testing.T) {
	f := NewFabric()
	_, err := f.Host("10.0.0.1").DialContext(context.Background(), "tcp", "10.9.9.9:25")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("dial = %v, want ErrRefused", err)
	}
}

func TestFabricDialRefusedAfterClose(t *testing.T) {
	f := NewFabric()
	l, err := f.Host("10.0.0.2").Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, err = f.Host("10.0.0.1").DialContext(context.Background(), "tcp", "10.0.0.2:25")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("dial after close = %v, want ErrRefused", err)
	}
}

func TestFabricListenConflict(t *testing.T) {
	f := NewFabric()
	h := f.Host("10.0.0.3")
	if _, err := h.Listen("tcp", ":25"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen("tcp", ":25"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("second listen = %v, want ErrAddrInUse", err)
	}
}

func TestFabricAcceptAfterCloseFails(t *testing.T) {
	f := NewFabric()
	l, _ := f.Host("10.0.0.4").Listen("tcp", ":25")
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after close = %v, want ErrClosed", err)
	}
}

func TestFabricUDPRoundTrip(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("192.0.2.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	go func() {
		buf := make([]byte, 512)
		n, from, err := srv.ReadFrom(buf)
		if err != nil {
			t.Errorf("server ReadFrom: %v", err)
			return
		}
		srv.WriteTo(buf[:n], from) // echo
	}()

	c, err := f.Host("198.51.100.1").DialContext(context.Background(), "udp", "192.0.2.53:53")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte("query")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "query" {
		t.Errorf("echo = %q", buf[:n])
	}
}

func TestFabricUDPReadDeadline(t *testing.T) {
	f := NewFabric()
	pc, err := f.Host("10.1.1.1").ListenPacket("udp", ":9999")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, _, err = pc.ReadFrom(make([]byte, 16))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("ReadFrom = %v, want timeout net.Error", err)
	}
}

// dropDatagrams is a FaultInjector that drops the datagrams it selects
// and leaves everything else alone.
type dropDatagrams func(from, to Addr) bool

func (dropDatagrams) DialTCP(src, dst Addr) DialFault { return DialFault{} }

func (d dropDatagrams) Datagram(from, to Addr, payload []byte) ([]byte, DatagramVerdict) {
	if d(from, to) {
		return nil, VerdictDrop
	}
	return nil, VerdictPass
}

func TestFabricUDPDropHook(t *testing.T) {
	f := NewFabric()
	f.Faults = dropDatagrams(func(from, to Addr) bool { return to.Port == 53 })
	srv, _ := f.Host("10.2.2.2").ListenPacket("udp", ":53")
	defer srv.Close()
	other, _ := f.Host("10.2.2.2").ListenPacket("udp", ":54")
	defer other.Close()
	cli, _ := f.Host("10.2.2.3").ListenPacket("udp", ":0")
	defer cli.Close()
	cli.WriteTo([]byte("x"), Addr{Net: "udp", Host: "10.2.2.2", Port: 53})
	cli.WriteTo([]byte("y"), Addr{Net: "udp", Host: "10.2.2.2", Port: 54})
	srv.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, _, err := srv.ReadFrom(make([]byte, 4)); err == nil {
		t.Fatal("datagram should have been dropped")
	}
	other.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 4)
	if n, _, err := other.ReadFrom(buf); err != nil || string(buf[:n]) != "y" {
		t.Fatalf("passed datagram: %q, %v", buf[:n], err)
	}
}

func TestFabricUDPToNowhereDoesNotBlock(t *testing.T) {
	f := NewFabric()
	pc, _ := f.Host("10.3.3.3").ListenPacket("udp", ":1000")
	defer pc.Close()
	done := make(chan struct{})
	go func() {
		pc.WriteTo([]byte("void"), Addr{Net: "udp", Host: "10.255.0.1", Port: 53})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WriteTo to absent endpoint blocked")
	}
}

func TestFabricDialCancelledContext(t *testing.T) {
	f := NewFabric()
	h := f.Host("10.4.4.4")
	l, _ := h.Listen("tcp", ":25")
	defer l.Close()
	// Fill the accept backlog so dial must block, then cancel.
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 16; i++ {
		if _, err := h.DialContext(ctx, "tcp", "10.4.4.4:25"); err != nil {
			t.Fatalf("backlog dial %d: %v", i, err)
		}
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := h.DialContext(ctx, "tcp", "10.4.4.4:25")
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("dial = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled dial never returned")
	}
}

func TestHostNetworkQualifiesWildcard(t *testing.T) {
	f := NewFabric()
	l, err := f.Host("203.0.113.9").Listen("tcp", "0.0.0.0:25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Addr().String(); got != "203.0.113.9:25" {
		t.Fatalf("wildcard listen bound to %q", got)
	}
}

func TestFabricEphemeralPortsDistinct(t *testing.T) {
	f := NewFabric()
	h := f.Host("10.5.5.5")
	a, err := h.ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := h.ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.LocalAddr().String() == b.LocalAddr().String() {
		t.Fatalf("ephemeral endpoints collide: %s", a.LocalAddr())
	}
}

func TestConnectedPacketConnFiltersOtherSenders(t *testing.T) {
	f := NewFabric()
	srvA, _ := f.Host("10.6.0.1").ListenPacket("udp", ":53")
	defer srvA.Close()
	intruder, _ := f.Host("10.6.0.66").ListenPacket("udp", ":53")
	defer intruder.Close()

	c, err := f.Host("10.6.0.2").DialContext(context.Background(), "udp", "10.6.0.1:53")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Intruder spoofs a datagram directly into the client's endpoint.
	clientAddr := c.LocalAddr().(Addr)
	intruder.WriteTo([]byte("spoof"), clientAddr)
	// Real peer replies afterwards.
	go func() {
		buf := make([]byte, 64)
		n, from, _ := srvA.ReadFrom(buf)
		srvA.WriteTo(buf[:n], from)
	}()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	c.Write([]byte("legit"))
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "legit" {
		t.Fatalf("connected conn surfaced %q from wrong sender", buf[:n])
	}
}

func TestRealNetworkLoopback(t *testing.T) {
	// Smoke test for the OS-backed implementation.
	var n Real
	l, err := n.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Write([]byte("hi"))
			c.Close()
		}
	}()
	c, err := n.DialContext(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("read %q, %v", buf, err)
	}
}
