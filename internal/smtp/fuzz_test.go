package smtp

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"spfail/internal/netsim"
)

// fuzzIOTimeout is the server's per-read and per-write deadline in
// FuzzServerSession. A session that ends only when a deadline fires has
// hung on its input.
const fuzzIOTimeout = 5 * time.Second

// sessionEnd follows the fuzzed input. Whatever state the input leaves the
// session in, it ends the current line, closes an open DATA phase and
// quits, so the server reads and answers every fuzzed command before it
// hangs up.
const sessionEnd = "\r\n.\r\nQUIT\r\n"

// FuzzServerSession feeds arbitrary bytes into a Server on a fabric and
// drains its replies, once with the session served on the writer's
// goroutine and once driven from an accept loop over a stream. In each
// drive the session must not panic, must end on its own rather than at
// its I/O deadline, must hand the hooks only paths that ParsePath
// accepts, and must hand them no line over RFC 5321's bounds; and the
// two drives must send the same replies and make the same hook calls.
func FuzzServerSession(f *testing.F) {
	for _, seed := range []string{
		"EHLO probe.example\r\nMAIL FROM:<a@b.example>\r\nRCPT TO:<c@d.example>\r\nDATA\r\nhi\r\n..dot\r\n.\r\nQUIT\r\n",
		"HELO x\r\nMAIL FROM:<>\r\nRCPT TO:<@relay.example:u@d.example>\r\nDATA\r\n.\r\n",
		"MAIL FROM:<a@b> SIZE=10\r\nMAIL FROM:<a@b>\r\nRSET\r\nNOOP\r\nVRFY x\r\n",
		"ehlo\r\nmail from:a@b\r\nrcpt to:<>\r\nrcpt to:<x\r\ndata\r\n",
		"MAIL FROM:<<a@b>\r\nRCPT TO:<@a:@b:c>\r\n",
		"\r\n\n\r \x00\xff",
		"EHLO a\r\nMAIL FROM:<a@b>\r\nRCPT TO:<c@d>\r\nDATA\r\nno terminator",
		"HELO " + strings.Repeat("h", maxCommandLine) + "\r\nHELO x\r\n",
		"EHLO a\r\nMAIL FROM:<a@b>\r\nRCPT TO:<c@d>\r\nDATA\r\n.." + strings.Repeat("t", maxTextLine) + "\r\n",
		"NOOP " + strings.Repeat("n", lineBuffer) + "\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		served, servedHooks := fuzzSession(t, input, false)
		looped, loopedHooks := fuzzSession(t, input, true)
		if !bytes.Equal(served, looped) {
			t.Fatalf("served session replied %q, accept-loop session %q", served, looped)
		}
		if !reflect.DeepEqual(servedHooks, loopedHooks) {
			t.Fatalf("served session made hook calls %+v, accept-loop session %+v", servedHooks, loopedHooks)
		}
	})
}

// fuzzSession runs one FuzzServerSession input through a fresh server,
// driven from an accept loop when loop is set, checks the session, and
// returns the bytes the server sent and the hook calls it made.
func fuzzSession(t *testing.T, input []byte, loop bool) ([]byte, hookCalls) {
	fabric := netsim.NewFabric()
	h := &recordingHandler{}
	var network netsim.Network = fabric.Host("192.0.2.25")
	if loop {
		network = acceptLoopNet{network}
	}
	srv := &Server{
		Hostname:        "mx.example.com",
		Net:             network,
		Addr:            ":25",
		Handler:         h,
		MaxMessageBytes: 1 << 16,
		IOTimeout:       fuzzIOTimeout,
	}
	if err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	c, err := fabric.Host("198.51.100.9").DialContext(context.Background(), "tcp", "192.0.2.25:25")
	if err != nil {
		srv.Stop()
		t.Fatal(err)
	}
	var replies bytes.Buffer
	drained := make(chan struct{})
	go func() {
		io.Copy(&replies, c)
		close(drained)
	}()
	start := time.Now()
	c.SetWriteDeadline(start.Add(fuzzIOTimeout))
	msg := make([]byte, 0, len(input)+len(sessionEnd))
	msg = append(append(msg, input...), sessionEnd...)
	c.Write(msg) // returns once the server has taken it all or hung up
	<-drained    // the server hung up
	c.Close()
	stopped := make(chan struct{})
	go func() {
		srv.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(fuzzIOTimeout):
		t.Fatalf("session still running %v after the client hung up", fuzzIOTimeout)
	}
	if waited := time.Since(start); waited >= fuzzIOTimeout {
		t.Fatalf("session took %v, ending only at its I/O deadline", waited)
	}
	// OnData is handed the same paths MAIL and RCPT recorded.
	got := h.snapshot()
	for _, p := range append(got.mails, got.rcpts...) {
		if _, err := ParsePath(p); err != nil {
			t.Fatalf("a hook received %q, which ParsePath rejects: %v", p, err)
		}
	}
	for _, arg := range append(append(got.helos, got.mails...), got.rcpts...) {
		if len(arg)+len("\r\n") > maxCommandLine {
			t.Fatalf("a hook received a %d-octet argument from a command line", len(arg))
		}
	}
	for _, msg := range got.datas {
		for _, l := range strings.Split(msg, "\r\n") {
			if len(l)+len("\r\n") > maxTextLine {
				t.Fatalf("OnData received a %d-octet text line", len(l)+len("\r\n"))
			}
		}
	}
	return replies.Bytes(), hookCalls{got.helos, got.mails, got.rcpts, got.datas, got.aborts}
}

// hookCalls is what a recordingHandler recorded, in a comparable form.
type hookCalls struct{ helos, mails, rcpts, datas, aborts []string }

// inputConn is a net.Conn whose reads come from a fixed input and whose
// read deadline is a no-op: all readReply needs. Its other methods are
// the nil embedded Conn's and panic.
type inputConn struct {
	net.Conn
	r io.Reader
}

func (c *inputConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c *inputConn) SetReadDeadline(time.Time) error { return nil }

// readReplyFrom parses one reply from input as a client session would.
func readReplyFrom(input io.Reader) (*Reply, error) {
	nc := &inputConn{r: input}
	co := &Conn{c: &Client{}, conn: nc, br: bufio.NewReader(nc)}
	return co.readReply()
}

// FuzzReadReply feeds arbitrary server output to the client's reply
// parser. It must not panic, must keep an accepted reply within the
// RFC 5321 line bound and maxReplyLines, and must accept exactly the
// reply it parsed when the server re-sends it in its own wire form.
func FuzzReadReply(f *testing.F) {
	for _, seed := range []string{
		"220 mx.example.com ESMTP ready\r\n",
		"250-mx.example.com\r\n250-SIZE 1000\r\n250 OK\r\n",
		"250\r\n",
		"250-\r\n250\n",
		"250-a\r\n251 b\r\n",
		"25\r\n",
		"-12 x\r\n",
		"000 zero\r\n",
		"250-no end",
		"550 " + string(bytes.Repeat([]byte("x"), maxReplyLine)) + "\r\n",
		string(bytes.Repeat([]byte("250-x\r\n"), maxReplyLines+1)),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		r, err := readReplyFrom(bytes.NewReader(input))
		if err != nil {
			return
		}
		if r.Code < 100 || r.Code > 599 {
			t.Fatalf("accepted reply code %d", r.Code)
		}
		if len(r.Lines) == 0 || len(r.Lines) > maxReplyLines {
			t.Fatalf("accepted a reply of %d lines", len(r.Lines))
		}
		for _, l := range r.Lines {
			if len(l)+len("250 \r\n") > maxReplyLine {
				t.Fatalf("accepted a %d-octet reply line", len(l)+len("250 \r\n"))
			}
		}
		wire := appendReply(nil, r)
		again, err := readReplyFrom(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("re-sent reply %q rejected: %v", wire, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("re-sent reply parsed as %+v, want %+v", again, r)
		}
	})
}
