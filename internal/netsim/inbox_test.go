package netsim

import (
	"errors"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestUDPInboxKeepsOrderAndDropsBeyondBound(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("10.7.0.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := f.Host("10.7.0.2").ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	to := Addr{Net: "udp", Host: "10.7.0.1", Port: 53}
	for i := 0; i <= inboxLimit; i++ {
		if _, err := cli.WriteTo([]byte(strconv.Itoa(i)), to); err != nil {
			t.Fatal(err)
		}
	}
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	for i := 0; i < inboxLimit; i++ {
		n, from, err := srv.ReadFrom(buf)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if got := string(buf[:n]); got != strconv.Itoa(i) {
			t.Fatalf("datagram %d = %q, want %d (out of order)", i, got, i)
		}
		if from.String() != cli.LocalAddr().String() {
			t.Fatalf("datagram %d from %s, want %s", i, from, cli.LocalAddr())
		}
	}
	srv.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	n, _, err := srv.ReadFrom(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("datagram %d past the bound = %q, %v; want it dropped", inboxLimit, buf[:n], err)
	}
}

// TestUDPInboxHoldsAStudyBurst writes one datagram from each of 250
// senders, the paper's probe concurrency, to an endpoint nobody reads yet,
// as a burst of probes' MTAs query a DNS server that is still busy
// answering. Every datagram must be queued and read back in arrival order.
func TestUDPInboxHoldsAStudyBurst(t *testing.T) {
	const senders = 250
	f := NewFabric()
	srv, err := f.Host("10.7.5.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	to := Addr{Net: "udp", Host: "10.7.5.1", Port: 53}
	for i := 0; i < senders; i++ {
		pc, err := f.Host("10.7.6."+strconv.Itoa(i)).ListenPacket("udp", ":0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pc.WriteTo([]byte(strconv.Itoa(i)), to); err != nil {
			t.Fatal(err)
		}
		pc.Close()
	}
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	for i := 0; i < senders; i++ {
		n, from, err := srv.ReadFrom(buf)
		if err != nil {
			t.Fatalf("datagram %d of %d: %v", i, senders, err)
		}
		if got := string(buf[:n]); got != strconv.Itoa(i) {
			t.Fatalf("datagram %d = %q, want %d (out of order)", i, got, i)
		}
		if host := from.(Addr).Host; host != "10.7.6."+strconv.Itoa(i) {
			t.Fatalf("datagram %d from %s, want sender 10.7.6.%d", i, host, i)
		}
	}
}

func TestUDPWriteToForeignAddrType(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("10.7.4.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := f.Host("10.7.4.2").ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.WriteTo([]byte("q"), &net.UDPAddr{IP: net.ParseIP("10.7.4.1"), Port: 53}); err != nil {
		t.Fatal(err)
	}
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4)
	n, _, err := srv.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "q" {
		t.Fatalf("ReadFrom = %q, %v; want the datagram addressed by *net.UDPAddr", buf[:n], err)
	}
}

// TestUDPCloseWakesReaderAndDropsLateDatagrams: Close wakes a reader
// blocked with an hour-long deadline, stops the deadline timer that read
// armed, and drops datagrams that land afterwards.
func TestUDPCloseWakesReaderAndDropsLateDatagrams(t *testing.T) {
	f := NewFabric()
	pc, err := f.Host("10.7.1.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	p := pc.(*fabricPacketConn)
	pc.SetReadDeadline(time.Now().Add(time.Hour))
	errCh := make(chan error, 1)
	go func() {
		_, _, err := pc.ReadFrom(make([]byte, 16))
		errCh <- err
	}()
	// Wait until the reader has armed the timer, so Close meets a blocked
	// read.
	for armed := false; !armed; {
		time.Sleep(time.Millisecond)
		p.mu.Lock()
		armed = !p.timer.due.IsZero()
		p.mu.Unlock()
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked ReadFrom after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the blocked reader")
	}
	p.mu.Lock()
	due, stillPending := p.timer.due, p.timer.t.Stop()
	p.mu.Unlock()
	if !due.IsZero() || stillPending {
		t.Fatalf("closed endpoint's timer: due %v, pending %v; want stopped", due, stillPending)
	}

	// A deliver that looked the endpoint up before Close lands after it.
	p.receive(datagram{from: Addr{Net: "udp", Host: "10.7.1.2", Port: 40001}, to: p.addr, data: []byte("late")})
	p.mu.Lock()
	queued := p.queued
	p.mu.Unlock()
	if queued != 0 {
		t.Fatalf("closed endpoint queued %d datagrams, want 0", queued)
	}
	if _, _, err := pc.ReadFrom(make([]byte, 16)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrom on closed endpoint = %v, want ErrClosed", err)
	}
}

// TestUDPConcurrentWritersLoseNothingBelowBound sends exactly inboxLimit
// datagrams from several writers while one reader drains them: however the
// goroutines interleave, the inbox never overflows, so every datagram must
// arrive, in order per writer. Run it with -race.
func TestUDPConcurrentWritersLoseNothingBelowBound(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("10.7.2.1").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const writers = 4
	const each = inboxLimit / writers
	to := Addr{Net: "udp", Host: "10.7.2.1", Port: 53}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		pc, err := f.Host("10.7.3."+strconv.Itoa(w+1)).ListenPacket("udp", ":53")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		wg.Add(1)
		go func(pc net.PacketConn) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := pc.WriteTo([]byte{byte(i)}, to); err != nil {
					t.Error(err)
					return
				}
			}
		}(pc)
	}

	next := make(map[string]int)
	srv.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4)
	for got := 0; got < writers*each; got++ {
		n, from, err := srv.ReadFrom(buf)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", got, writers*each, err)
		}
		if n != 1 || int(buf[0]) != next[from.String()] {
			t.Fatalf("datagram %q from %s, want sequence %d", buf[:n], from, next[from.String()])
		}
		next[from.String()]++
	}
	wg.Wait()
}
