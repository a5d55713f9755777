package netsim

import (
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's number, read from its stack header
// ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// queued returns how many unread datagrams the fabric endpoint pc holds.
func queued(pc net.PacketConn) int {
	p := pc.(*fabricPacketConn)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// readAll reads every datagram pc receives within a short deadline.
func readAll(t *testing.T, pc net.PacketConn) []string {
	t.Helper()
	var got []string
	buf := make([]byte, 64)
	pc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return got
		}
		got = append(got, string(buf[:n]))
	}
}

// TestUDPResponderRunsOnSendersGoroutine: a responder answers each
// datagram on the goroutine that wrote it, and its reply is queued for the
// sender before the sender's WriteTo returns. Datagrams queued before
// Respond go to the responder too, on Respond's caller. Anything but a
// fabric endpoint is refused.
func TestUDPResponderRunsOnSendersGoroutine(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("10.8.0.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := f.Host("10.8.0.2").ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	to := Addr{Net: "udp", Host: "10.8.0.1", Port: 53}
	if _, err := cli.WriteTo([]byte("early"), to); err != nil {
		t.Fatal(err)
	}

	me := goid()
	var calls []string // goroutine, payload and sender of each call
	respond := func(b []byte, from net.Addr) {
		calls = append(calls, goid()+" "+string(b)+" "+from.String())
		if _, err := srv.WriteTo(append([]byte("re:"), b...), from); err != nil {
			t.Error(err)
		}
	}
	if Respond(struct{ net.PacketConn }{srv}, respond) {
		t.Fatal("Respond accepted a PacketConn that is not a fabric endpoint")
	}
	if !Respond(srv, respond) {
		t.Fatal("Respond refused a fabric endpoint")
	}
	if got := queued(cli); got != 1 {
		t.Fatalf("after Respond the sender holds %d replies, want the early datagram's", got)
	}
	b := []byte("q1")
	if _, err := cli.WriteTo(b, to); err != nil {
		t.Fatal(err)
	}
	if got := queued(cli); got != 2 {
		t.Fatalf("WriteTo returned with %d replies queued, want 2", got)
	}
	b[1] = '!' // the sender's buffer is its own again

	from := cli.LocalAddr().String()
	want := []string{me + " early " + from, me + " q1 " + from}
	if strings.Join(calls, "|") != strings.Join(want, "|") {
		t.Fatalf("responder calls = %q, want %q", calls, want)
	}
	if got := readAll(t, cli); strings.Join(got, "|") != "re:early|re:q1" {
		t.Fatalf("sender read %q, want the two replies in order", got)
	}
}

// scriptedVerdicts is a FaultInjector that treats each query to port 53 as
// its payload says: drop, reflect a forged reply, rewrite, or pass.
type scriptedVerdicts struct{}

func (scriptedVerdicts) DialTCP(src, dst Addr) DialFault { return DialFault{} }

func (scriptedVerdicts) DropsDatagrams() bool { return true }

func (scriptedVerdicts) Datagram(from, to Addr, payload []byte) ([]byte, DatagramVerdict) {
	if to.Port != 53 {
		return nil, VerdictPass
	}
	switch string(payload) {
	case "drop":
		return nil, VerdictDrop
	case "reflect":
		return []byte("forged"), VerdictReflect
	case "rewrite":
		return []byte("rewritten"), VerdictPass
	}
	return nil, VerdictPass
}

// TestUDPResponderAfterFaultVerdict: the fault injector decides about a
// datagram before the responder sees it, so a dropped or reflected query
// never reaches the responder and a rewritten one reaches it rewritten.
func TestUDPResponderAfterFaultVerdict(t *testing.T) {
	f := NewFabric()
	f.Faults = scriptedVerdicts{}
	srv, err := f.Host("10.8.1.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var seen []string
	Respond(srv, func(b []byte, from net.Addr) {
		seen = append(seen, string(b))
		srv.WriteTo(append([]byte("re:"), b...), from)
	})
	cli, err := f.Host("10.8.1.2").ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, q := range []string{"drop", "reflect", "rewrite", "pass"} {
		if _, err := cli.WriteTo([]byte(q), Addr{Net: "udp", Host: "10.8.1.1", Port: 53}); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Join(seen, "|"); got != "rewritten|pass" {
		t.Errorf("responder saw %q, want only the rewritten and the passed query", got)
	}
	if got := strings.Join(readAll(t, cli), "|"); got != "forged|re:rewritten|re:pass" {
		t.Errorf("sender read %q, want the reflected datagram and two replies", got)
	}
}

// TestUDPResponderCloseWaitsForCallsInFlight: Close returns only once a
// responder call that is running has returned, and a datagram that
// arrives after Close reaches no responder.
func TestUDPResponderCloseWaitsForCallsInFlight(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("10.8.2.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	Respond(srv, func(b []byte, from net.Addr) {
		calls.Add(1)
		if string(b) == "hold" {
			close(entered)
			<-release
		}
	})
	cli, err := f.Host("10.8.2.2").ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	to := Addr{Net: "udp", Host: "10.8.2.1", Port: 53}
	sent := make(chan error, 1)
	go func() {
		_, err := cli.WriteTo([]byte("hold"), to)
		sent <- err
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	p := srv.(*fabricPacketConn)
	for shut := false; !shut; {
		p.mu.Lock()
		shut = p.closed
		p.mu.Unlock()
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a responder call was running")
	case <-time.After(50 * time.Millisecond):
	}
	// A deliver that looked the endpoint up before Close lands after it,
	// and a datagram sent after Close finds no endpoint.
	p.receive(datagram{from: Addr{Net: "udp", Host: "10.8.2.2", Port: 40001}, to: p.addr, data: []byte("late")})
	if _, err := cli.WriteTo([]byte("later"), to); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return once the responder call returned")
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("responder ran %d times, want once: datagrams after Close must be dropped", n)
	}
}
