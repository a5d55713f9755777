package smtp

import (
	"context"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"spfail/internal/netsim"
)

// TestServerTestsOverAcceptLoop reruns the server tests with sessions
// driven from an accept loop (serveConn), the drive OS sockets and lossy
// fabrics get, instead of on the dialer's goroutine. Both drives run the
// same session machine and must pass the same tests.
func TestServerTestsOverAcceptLoop(t *testing.T) {
	viaAcceptLoop = true
	defer func() { viaAcceptLoop = false }()
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"FullTransaction", TestFullTransaction},
		{"NoMsgProbeAbortsAfterData", TestNoMsgProbeAbortsAfterData},
		{"BlankMsgProbeDeliversEmptyMessage", TestBlankMsgProbeDeliversEmptyMessage},
		{"ConnectionRefusedByPolicy", TestConnectionRefusedByPolicy},
		{"MailFromRejected", TestMailFromRejected},
		{"RcptGreylisted", TestRcptGreylisted},
		{"BadSequenceEnforced", TestBadSequenceEnforced},
		{"RsetClearsTransaction", TestRsetClearsTransaction},
		{"EHLOFallbackToHELO", TestEHLOFallbackToHELO},
		{"VrfyAndNoop", TestVrfyAndNoop},
		{"UnknownCommandGets500", TestUnknownCommandGets500},
		{"HeloWithoutArgumentGets501", TestHeloWithoutArgumentGets501},
		{"MailWithESMTPParams", TestMailWithESMTPParams},
		{"NullReversePathAccepted", TestNullReversePathAccepted},
		{"DoubleMailFromRejected", TestDoubleMailFromRejected},
		{"MessageTooLargeAborts", TestMessageTooLargeAborts},
		{"MultipleRecipients", TestMultipleRecipients},
		{"SecondTransactionOnSameConnection", TestSecondTransactionOnSameConnection},
		{"ServerLineBounds", TestServerLineBounds},
		{"ServerStopsWithItsContext", TestServerStopsWithItsContext},
		{"ServerStopRacesContextCancel", TestServerStopRacesContextCancel},
	} {
		t.Run(tc.name, tc.test)
	}
}

// connectRecorder records whether OnConnect has run.
type connectRecorder struct {
	NopHandler
	mu  sync.Mutex
	ran bool
}

func (h *connectRecorder) OnConnect(net.Addr) *Reply {
	h.mu.Lock()
	h.ran = true
	h.mu.Unlock()
	return nil
}

// TestFabricSessionsRunOnTheDialer: on a fabric, a session is served on
// the goroutine of the client that dials it. OnConnect has run by the
// time the dial returns, and open sessions hold no goroutine.
func TestFabricSessionsRunOnTheDialer(t *testing.T) {
	h := &connectRecorder{}
	fabric, addr := startServer(t, h)
	client := fabric.Host("198.51.100.9")
	before := runtime.NumGoroutine()
	const sessions = 50
	for i := 0; i < sessions; i++ {
		c, err := client.DialContext(context.Background(), "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if i == 0 {
			h.mu.Lock()
			ran := h.ran
			h.mu.Unlock()
			if !ran {
				t.Fatal("OnConnect had not run when the dial returned")
			}
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= sessions/5 {
		t.Fatalf("%d open sessions added %d goroutines", sessions, grew)
	}
}

// TestServedNoMsgSessionAllocs gates the allocations of one NoMsg-shaped
// session served on a fabric, client writes and reads included: the
// dialed address's key, the conn, the dialer's boxed address and the
// session, one string per command line (EHLO, MAIL, RCPT, DATA) and the
// recipient list.
func TestServedNoMsgSessionAllocs(t *testing.T) {
	const addr = "192.0.2.25:25"
	fabric := netsim.NewFabric()
	srv := &Server{Hostname: "mx.example.com", Net: fabric.Host("192.0.2.25"), Addr: ":25", Handler: NopHandler{}}
	if err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	client := fabric.Host("198.51.100.9")
	buf := make([]byte, 512)
	cmds := [][]byte{
		[]byte("EHLO probe.dns-lab.org\r\n"),
		[]byte("MAIL FROM:<noreply@x7k2.s01.spf-test.dns-lab.org>\r\n"),
		[]byte("RCPT TO:<postmaster@example.com>\r\n"),
		[]byte("DATA\r\n"),
	}
	ctx := context.Background()
	session := func() {
		c, err := client.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
		for _, cmd := range cmds {
			if _, err := c.Write(cmd); err != nil {
				t.Fatal(err)
			}
			if n, err := c.Read(buf); err != nil || buf[0] != '2' && buf[0] != '3' {
				t.Fatalf("reply to %q: %q, %v", cmd, buf[:n], err)
			}
		}
		c.Close()
	}
	session()
	if got := testing.AllocsPerRun(200, session); got != 9 {
		t.Errorf("a served NoMsg session makes %.1f allocations, want 9", got)
	}
}

// TestHangUpWithReplyUnread: a client that hangs up without reading the
// banner or the 354 reply to DATA ends the session without an abort, as
// the failed write of either did; one that leaves any other reply unread
// aborts the session in its state. Both drives agree.
func TestHangUpWithReplyUnread(t *testing.T) {
	for _, loop := range []bool{false, true} {
		for _, tc := range []struct {
			name  string
			cmds  []string // each written after reading the reply before it
			last  string   // written, and its reply left unread
			abort []string
		}{
			{"banner", nil, "", nil},
			{"EHLO reply", nil, "EHLO probe.example\r\n", []string{StateHelo}},
			{"MAIL reply", []string{"EHLO probe.example\r\n"}, "MAIL FROM:<a@b.example>\r\n", []string{StateMail}},
			{"354", []string{"EHLO probe.example\r\n", "MAIL FROM:<a@b.example>\r\n", "RCPT TO:<c@d.example>\r\n"}, "DATA\r\n", nil},
			{"everything read", []string{"EHLO probe.example\r\n", "MAIL FROM:<a@b.example>\r\n", "RCPT TO:<c@d.example>\r\n", "DATA\r\n"}, "", []string{StateData}},
		} {
			name := tc.name
			if loop {
				name += " over an accept loop"
			}
			t.Run(name, func(t *testing.T) {
				viaAcceptLoop = loop
				defer func() { viaAcceptLoop = false }()
				fabric := netsim.NewFabric()
				h := &recordingHandler{}
				srv := &Server{Hostname: "mx.example.com", Net: serverNet(fabric, "192.0.2.25"), Addr: ":25", Handler: h}
				if err := srv.Start(nil); err != nil {
					t.Fatal(err)
				}
				c, err := fabric.Host("198.51.100.9").DialContext(context.Background(), "tcp", "192.0.2.25:25")
				if err != nil {
					t.Fatal(err)
				}
				cli := &Conn{c: &Client{}, conn: c}
				cli.br, cli.bw = getBuffers(c)
				defer cli.release()
				if len(tc.cmds) > 0 || tc.last != "" {
					if _, err := cli.readReply(); err != nil {
						t.Fatal(err)
					}
				}
				for _, cmd := range tc.cmds {
					cli.bw.WriteString(cmd)
					cli.bw.Flush()
					if _, err := cli.readReply(); err != nil {
						t.Fatal(err)
					}
				}
				if tc.last != "" {
					if _, err := c.Write([]byte(tc.last)); err != nil && !loop {
						t.Fatal(err)
					}
				}
				c.Close()
				srv.Stop()
				if got := h.snapshot().aborts; !reflect.DeepEqual(got, tc.abort) {
					t.Fatalf("aborts %q, want %q", got, tc.abort)
				}
			})
		}
	}
}
