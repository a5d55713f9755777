package smtp

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spfail/internal/netsim"
)

// Poison-then-reuse hygiene for the client's session buffer pools: a
// reader left holding unread bytes and a writer left holding unflushed
// bytes (and a write error) go back to the pools at the end of one
// session. No later session, client or server, may see those bytes or
// touch the connection they came from. A server session ended the same
// way, with pipelined input left unserved and its last reply unwritten,
// must not reach its connection again either.

// tripConn serves a fixed script of inbound bytes, fails every write after
// the first okWrites, and counts any use after release.
type tripConn struct {
	mu       sync.Mutex
	in       []byte
	okWrites int
	writes   int
	released bool
	late     int
}

var errTripWrite = errors.New("trip: write refused")

// use counts one call and reports whether it came after release.
func (c *tripConn) use() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		c.late++
	}
	return c.released
}

func (c *tripConn) release() {
	c.mu.Lock()
	c.released = true
	c.mu.Unlock()
}

func (c *tripConn) lateUses() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.late
}

func (c *tripConn) Read(b []byte) (int, error) {
	if c.use() {
		return 0, io.EOF
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *tripConn) Write(b []byte) (int, error) {
	if c.use() {
		return 0, errTripWrite
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.writes > c.okWrites {
		return 0, errTripWrite
	}
	return len(b), nil
}

func (c *tripConn) Close() error        { c.use(); return nil }
func (c *tripConn) LocalAddr() net.Addr { return netsim.Addr{Net: "tcp", Host: "192.0.2.66", Port: 25} }
func (c *tripConn) RemoteAddr() net.Addr {
	return netsim.Addr{Net: "tcp", Host: "203.0.113.66", Port: 4066}
}
func (c *tripConn) SetDeadline(time.Time) error      { c.use(); return nil }
func (c *tripConn) SetReadDeadline(time.Time) error  { c.use(); return nil }
func (c *tripConn) SetWriteDeadline(time.Time) error { c.use(); return nil }

// tripNet dials its one tripConn whatever the address.
type tripNet struct{ c *tripConn }

func (n tripNet) DialContext(context.Context, string, string) (net.Conn, error) { return n.c, nil }
func (tripNet) Listen(string, string) (net.Listener, error)                     { return nil, errors.ErrUnsupported }
func (tripNet) ListenPacket(string, string) (net.PacketConn, error) {
	return nil, errors.ErrUnsupported
}

// poisonClient ends a client session whose reader holds an unread reply
// and whose writer holds an unflushed MAIL FROM and a write error.
func poisonClient(t *testing.T) *tripConn {
	trip := &tripConn{in: []byte("220 poison.example ESMTP\r\n250 POISON unread reply\r\n")}
	co, err := (&Client{Net: tripNet{trip}, HELO: "poison.example"}).Dial(context.Background(), "192.0.2.66:25")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Mail("poison@evil.example"); err == nil {
		t.Fatal("poisoned MAIL FROM went out")
	}
	if co.br.Buffered() == 0 || co.bw.Buffered() == 0 {
		t.Fatalf("poison not in place: %d unread, %d unflushed bytes", co.br.Buffered(), co.bw.Buffered())
	}
	co.Close()
	return trip
}

// poisonServer ends a server session, driven over a connection by
// serveConn, that read a pipelined MAIL FROM behind QUIT and whose write
// of the 221 reply failed.
func poisonServer(t *testing.T) *tripConn {
	trip := &tripConn{in: []byte("QUIT\r\nMAIL FROM:<poison@evil.example>\r\n"), okWrites: 1}
	h := &recordingHandler{}
	(&Server{Hostname: "poison.example", Handler: h}).serveConn(trip)
	if trip.writes != 2 || len(trip.in) != 0 || len(h.snapshot().mails) != 0 {
		t.Fatalf("poison not in place: %d writes, %d bytes never read, mails %q", trip.writes, len(trip.in), h.snapshot().mails)
	}
	return trip
}

// cleanSession runs one full transaction over a fresh fabric and checks
// both ends saw exactly that transaction. The server session runs on the
// calling goroutine when serverHere is set, the client session otherwise,
// where it draws from the pool slot the poisoned buffers went back to.
func cleanSession(t *testing.T, serverHere bool) {
	fabric := netsim.NewFabric()
	h := &recordingHandler{}
	srv := &Server{Hostname: "mx.example.com", Handler: h, IOTimeout: 5 * time.Second}
	l, err := fabric.Host("192.0.2.25").Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serve := func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		srv.serveConn(c)
	}
	client := func() error {
		cli := &Client{Net: fabric.Host("198.51.100.9"), HELO: "probe.example", IOTimeout: 5 * time.Second}
		co, err := cli.Dial(context.Background(), "192.0.2.25:25")
		if err != nil {
			return err
		}
		defer co.Close()
		if got := co.Greet.String(); got != "220 mx.example.com ESMTP ready" {
			return errors.New("banner " + got)
		}
		for _, step := range []func() error{
			co.Hello,
			func() error { return co.Mail("probe@example.org") },
			func() error { return co.Rcpt("user@example.com") },
			co.Data,
		} {
			if err := step(); err != nil {
				return err
			}
		}
		r, err := co.SendMessage(nil)
		if err != nil {
			return err
		}
		if got := r.String(); got != "250 OK: queued" {
			return errors.New("message reply " + got)
		}
		return co.Quit()
	}
	var cerr error
	if serverHere {
		done := make(chan error, 1)
		go func() { done <- client() }()
		serve()
		cerr = <-done
	} else {
		done := make(chan struct{})
		go func() {
			serve()
			close(done)
		}()
		cerr = client()
		<-done
	}
	if cerr != nil {
		t.Fatalf("client session: %v", cerr)
	}
	got := h.snapshot()
	if strings.Join(got.helos, ",") != "probe.example" ||
		strings.Join(got.mails, ",") != "probe@example.org" ||
		strings.Join(got.rcpts, ",") != "user@example.com" ||
		len(got.datas) != 1 || got.datas[0] != "" || len(got.aborts) != 0 {
		t.Fatalf("server saw helos %q mails %q rcpts %q datas %q aborts %q",
			got.helos, got.mails, got.rcpts, got.datas, got.aborts)
	}
}

// checkPoolsScrubbed draws a reader and a writer from the pools, as the
// next session would, and requires them to hold no bytes.
func checkPoolsScrubbed(t *testing.T) {
	br := brPool.Get().(*bufio.Reader)
	bw := bwPool.Get().(*bufio.Writer)
	unread, unflushed := br.Buffered(), bw.Buffered()
	putBuffers(br, bw)
	if unread != 0 || unflushed != 0 {
		t.Fatalf("pooled buffers hold %d unread and %d unflushed bytes", unread, unflushed)
	}
}

func TestPooledBuffersNeverLeakAcrossSessions(t *testing.T) {
	poisons := []struct {
		name   string
		poison func(*testing.T) *tripConn
	}{
		{"client", poisonClient},
		{"server", poisonServer},
	}
	for _, p := range poisons {
		for _, next := range []string{"client", "server"} {
			t.Run(p.name+" releases, "+next+" reuses", func(t *testing.T) {
				// Repeat so the poisoned buffers are drawn with high
				// probability from this P's private pool slot.
				for i := 0; i < 8; i++ {
					trip := p.poison(t)
					trip.release()
					checkPoolsScrubbed(t)
					cleanSession(t, next == "server")
					if n := trip.lateUses(); n > 0 {
						t.Fatalf("the next session reached the released conn %d times", n)
					}
				}
			})
		}
	}
}
