package smtp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"spfail/internal/netsim"
)

func TestVrfyAndNoop(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	if r, err := conn.cmd("NOOP"); err != nil || r.Code != 250 {
		t.Fatalf("NOOP = %v, %v", r, err)
	}
	if r, err := conn.cmd("VRFY postmaster"); err != nil || r.Code != 252 {
		t.Fatalf("VRFY = %v, %v", r, err)
	}
}

func TestUnknownCommandGets500(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	if r, err := conn.cmd("TURN"); err != nil || r.Code != 500 {
		t.Fatalf("TURN = %v, %v", r, err)
	}
	if r, err := conn.cmd(""); err != nil || r.Code != 500 {
		t.Fatalf("empty line = %v, %v", r, err)
	}
}

func TestHeloWithoutArgumentGets501(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	if r, err := conn.cmd("EHLO"); err != nil || r.Code != 501 {
		t.Fatalf("bare EHLO = %v, %v", r, err)
	}
}

func TestMailWithESMTPParams(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	if r, err := conn.cmd("MAIL FROM:<a@b.example> SIZE=1000 BODY=8BITMIME"); err != nil || !r.Positive() {
		t.Fatalf("MAIL with params = %v, %v", r, err)
	}
	got := h.snapshot()
	if len(got.mails) != 1 || got.mails[0] != "a@b.example" {
		t.Errorf("mails = %v", got.mails)
	}
}

func TestNullReversePathAccepted(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	if r, err := conn.cmd("MAIL FROM:<>"); err != nil || !r.Positive() {
		t.Fatalf("null reverse-path = %v, %v", r, err)
	}
	got := h.snapshot()
	if len(got.mails) != 1 || got.mails[0] != "" {
		t.Errorf("mails = %v", got.mails)
	}
}

func TestDoubleMailFromRejected(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	conn.Mail("a@b.example")
	if err := conn.Mail("c@d.example"); ReplyCode(err) != 503 {
		t.Fatalf("second MAIL = %v, want 503", err)
	}
}

func TestMessageTooLargeAborts(t *testing.T) {
	h := &recordingHandler{}
	fabric := netsim.NewFabric()
	srv := &Server{
		Hostname:        "mx.example.com",
		Net:             fabric.Host("192.0.2.26"),
		Addr:            ":25",
		Handler:         h,
		MaxMessageBytes: 64,
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	conn := dial(t, fabric, "192.0.2.26:25")
	defer conn.Close()
	conn.Hello()
	conn.Mail("a@b.example")
	conn.Rcpt("x@example.com")
	if err := conn.Data(); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("spam spam spam\r\n", 64)
	if _, err := conn.SendMessage([]byte(big)); err == nil {
		t.Fatal("oversized message should break the session")
	}
	if len(h.snapshot().datas) != 0 {
		t.Error("oversized message must not reach OnData")
	}
}

func TestMultipleRecipients(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	conn.Mail("a@b.example")
	for _, rcpt := range []string{"one@example.com", "two@example.com", "three@example.com"} {
		if err := conn.Rcpt(rcpt); err != nil {
			t.Fatal(err)
		}
	}
	conn.Data()
	conn.SendMessage([]byte("hi"))
	got := h.snapshot()
	if len(got.rcpts) != 3 {
		t.Errorf("rcpts = %v", got.rcpts)
	}
}

func TestSecondTransactionOnSameConnection(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	for i := 0; i < 2; i++ {
		if err := conn.Mail("a@b.example"); err != nil {
			t.Fatalf("transaction %d MAIL: %v", i, err)
		}
		if err := conn.Rcpt("x@example.com"); err != nil {
			t.Fatalf("transaction %d RCPT: %v", i, err)
		}
		if err := conn.Data(); err != nil {
			t.Fatalf("transaction %d DATA: %v", i, err)
		}
		if _, err := conn.SendMessage([]byte("msg")); err != nil {
			t.Fatalf("transaction %d message: %v", i, err)
		}
	}
	got := h.snapshot()
	if len(got.datas) != 2 {
		t.Errorf("datas = %d, want 2 transactions", len(got.datas))
	}
}

func TestClientReadsMultilineGreetingServer(t *testing.T) {
	// A raw server that sends a multi-line banner and replies.
	fabric := netsim.NewFabric()
	l, err := fabric.Host("192.0.2.30").Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write([]byte("220-mx.example.com welcomes you\r\n220-no really\r\n220 go ahead\r\n"))
		buf := make([]byte, 256)
		c.Read(buf)
		c.Write([]byte("250-mx.example.com\r\n250-SIZE 1000\r\n250 OK\r\n"))
		c.Read(buf)
	}()
	cli := &Client{Net: fabric.Host("198.51.100.9"), HELO: "probe"}
	conn, err := cli.Dial(context.Background(), "192.0.2.30:25")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if len(conn.Greet.Lines) != 3 {
		t.Errorf("greeting lines = %v", conn.Greet.Lines)
	}
	if err := conn.Hello(); err != nil {
		t.Fatalf("multiline EHLO reply: %v", err)
	}
}

func TestReplyErrorMessage(t *testing.T) {
	err := &ReplyError{Reply: *ReplyGreylisted}
	if !strings.Contains(err.Error(), "450") {
		t.Errorf("error text = %q", err.Error())
	}
	if ReplyCode(err) != 450 {
		t.Errorf("ReplyCode = %d", ReplyCode(err))
	}
	if ReplyCode(context.Canceled) != 0 {
		t.Error("ReplyCode of non-reply error should be 0")
	}
}

func TestReadReplyBounds(t *testing.T) {
	text := func(n int) string { return strings.Repeat("x", n) }
	for _, tc := range []struct {
		name, input string
		ok          bool
	}{
		{"512-octet line", "250 " + text(maxReplyLine-6) + "\r\n", true},
		{"513-octet line", "250 " + text(maxReplyLine-5) + "\r\n", false},
		{"511 octets and a bare LF", "250 " + text(maxReplyLine-5) + "\n", false},
		{"line past the read buffer", "250 " + text(8192) + "\r\n", false},
		{"max lines", strings.Repeat("250-x\r\n", maxReplyLines-1) + "250 x\r\n", true},
		{"one line too many", strings.Repeat("250-x\r\n", maxReplyLines) + "250 x\r\n", false},
		{"signed code", "-25 x\r\n", false},
		{"code 000", "000 x\r\n", false},
	} {
		r, err := readReplyFrom(strings.NewReader(tc.input))
		if (err == nil) != tc.ok {
			t.Errorf("%s: reply %v, err %v; want ok=%v", tc.name, r, err, tc.ok)
		}
	}
}

// TestServerLineBounds checks RFC 5321's line bounds at their edges: 512
// octets for a command line and 1000 for a line of message text, CRLF
// included, not counting the dot that dot-stuffing adds. One octet more
// earns "500 Line too long", and the server ends the session.
func TestServerLineBounds(t *testing.T) {
	line := func(prefix string, octets int) string {
		return prefix + strings.Repeat("x", octets-len(prefix)-len("\r\n")) + "\r\n"
	}
	for _, tc := range []struct {
		name string
		text bool // sent as message text after DATA
		line string
		ok   bool
	}{
		{"512-octet command", false, line("NOOP ", maxCommandLine), true},
		{"513-octet command", false, line("NOOP ", maxCommandLine+1), false},
		{"1000-octet text line", true, line("", maxTextLine), true},
		{"1001-octet text line", true, line("", maxTextLine+1), false},
		{"1001 octets with a stuffed dot", true, line("..", maxTextLine+1), true},
		{"1002 octets with a stuffed dot", true, line("..", maxTextLine+2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &recordingHandler{}
			fabric, addr := startServer(t, h)
			conn := dial(t, fabric, addr)
			defer conn.Close()
			send := tc.line
			if tc.text {
				for _, step := range []func() error{
					conn.Hello,
					func() error { return conn.Mail("a@b.example") },
					func() error { return conn.Rcpt("x@example.com") },
					conn.Data,
				} {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
				send += ".\r\n"
			}
			conn.bw.WriteString(send)
			if err := conn.bw.Flush(); err != nil {
				t.Fatal(err)
			}
			r, err := conn.readReply()
			if err != nil {
				t.Fatal(err)
			}
			datas := h.snapshot().datas
			if tc.ok {
				if !r.Positive() {
					t.Fatalf("reply %v, want positive", r)
				}
				if tc.text && (len(datas) != 1 || len(datas[0]) != maxTextLine) {
					t.Fatalf("OnData got %d messages, want one %d-octet line", len(datas), maxTextLine)
				}
				return
			}
			if got := r.String(); got != "500 Line too long" {
				t.Fatalf("reply %q, want 500 Line too long", got)
			}
			if r, err := conn.readReply(); err == nil {
				t.Fatalf("session went on after an over-long line: %v", r)
			}
			if len(datas) != 0 {
				t.Error("an over-long text line reached OnData")
			}
		})
	}
}

// TestClientRejectsEndlessReply: a server that never ends its banner must
// cost the client an error, not unbounded memory.
func TestClientRejectsEndlessReply(t *testing.T) {
	fabric := netsim.NewFabric()
	l, err := fabric.Host("192.0.2.31").Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		line := []byte("250-mx.example.com says more\r\n")
		for {
			if _, err := c.Write(line); err != nil {
				return // the client hung up
			}
		}
	}()
	cli := &Client{Net: fabric.Host("198.51.100.9"), HELO: "probe", IOTimeout: 5 * time.Second}
	conn, err := cli.Dial(context.Background(), "192.0.2.31:25")
	if err == nil {
		conn.Close()
		t.Fatal("Dial accepted an endless banner")
	}
	if !strings.Contains(err.Error(), "lines") {
		t.Errorf("Dial error = %v, want the line bound", err)
	}
	<-done
}

func TestServerStopsWithItsContext(t *testing.T) {
	fabric := netsim.NewFabric()
	ctx, cancel := context.WithCancel(context.Background())
	srv := &Server{Hostname: "mx.example.com", Net: fabric.Host("192.0.2.32"), Addr: ":25", Handler: NopHandler{}}
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	client := fabric.Host("198.51.100.9")
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := client.DialContext(context.Background(), "tcp", "192.0.2.32:25")
		if errors.Is(err, netsim.ErrRefused) {
			return
		}
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("server still accepting after its context was cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerStopRacesContextCancel: Stop and the cancellation of Start's
// ctx may run at once, and both must return.
func TestServerStopRacesContextCancel(t *testing.T) {
	fabric := netsim.NewFabric()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		srv := &Server{Hostname: "mx.example.com", Net: fabric.Host(fmt.Sprintf("192.0.2.%d", 100+i)), Addr: ":25", Handler: NopHandler{}}
		if err := srv.Start(ctx); err != nil {
			t.Fatal(err)
		}
		cancelled := make(chan struct{})
		go func() {
			cancel()
			close(cancelled)
		}()
		srv.Stop()
		<-cancelled
	}
}
