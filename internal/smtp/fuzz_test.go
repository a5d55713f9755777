package smtp

import (
	"context"
	"io"
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

// FuzzServerSession feeds arbitrary bytes over a fabric stream into a
// Server and drains its replies. The session must not panic, must end on
// its own rather than at its I/O deadline, and must hand the hooks only
// paths that ParsePath accepts.
func FuzzServerSession(f *testing.F) {
	for _, seed := range []string{
		"EHLO probe.example\r\nMAIL FROM:<a@b.example>\r\nRCPT TO:<c@d.example>\r\nDATA\r\nhi\r\n..dot\r\n.\r\nQUIT\r\n",
		"HELO x\r\nMAIL FROM:<>\r\nRCPT TO:<@relay.example:u@d.example>\r\nDATA\r\n.\r\n",
		"MAIL FROM:<a@b> SIZE=10\r\nMAIL FROM:<a@b>\r\nRSET\r\nNOOP\r\nVRFY x\r\n",
		"ehlo\r\nmail from:a@b\r\nrcpt to:<>\r\nrcpt to:<x\r\ndata\r\n",
		"MAIL FROM:<<a@b>\r\nRCPT TO:<@a:@b:c>\r\n",
		"\r\n\n\r \x00\xff",
		"EHLO a\r\nMAIL FROM:<a@b>\r\nRCPT TO:<c@d>\r\nDATA\r\nno terminator",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		fabric := netsim.NewFabric()
		h := &recordingHandler{}
		srv := &Server{
			Hostname:        "mx.example.com",
			Net:             fabric.Host("192.0.2.25"),
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
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, c)
			close(drained)
		}()
		start := time.Now()
		c.SetWriteDeadline(start.Add(fuzzIOTimeout))
		msg := make([]byte, 0, len(input)+len(sessionEnd))
		msg = append(append(msg, input...), sessionEnd...)
		c.Write(msg) // returns once the server has read it all or hung up
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
	})
}
