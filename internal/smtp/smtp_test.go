package smtp

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"

	"spfail/internal/netsim"
)

// recordingHandler captures hook invocations.
type recordingHandler struct {
	NopHandler
	mu       sync.Mutex
	mails    []string
	rcpts    []string
	datas    []string
	aborts   []string
	helos    []string
	mailResp *Reply
	rcptResp *Reply
	dataResp *Reply
	connResp *Reply
}

func (h *recordingHandler) OnConnect(net.Addr) *Reply { return h.connResp }

func (h *recordingHandler) OnHelo(helo string, ehlo bool) *Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.helos = append(h.helos, helo)
	return nil
}

func (h *recordingHandler) OnMailFrom(from string, _ net.Addr, _ string) *Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mails = append(h.mails, from)
	return h.mailResp
}

func (h *recordingHandler) OnRcptTo(to string) *Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rcpts = append(h.rcpts, to)
	return h.rcptResp
}

func (h *recordingHandler) OnData(from string, rcpts []string, msg []byte, _ net.Addr, _ string) *Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.datas = append(h.datas, string(msg))
	return h.dataResp
}

func (h *recordingHandler) OnAbort(state string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.aborts = append(h.aborts, state)
}

func (h *recordingHandler) snapshot() recordingHandler {
	h.mu.Lock()
	defer h.mu.Unlock()
	return recordingHandler{
		mails:  append([]string(nil), h.mails...),
		rcpts:  append([]string(nil), h.rcpts...),
		datas:  append([]string(nil), h.datas...),
		aborts: append([]string(nil), h.aborts...),
		helos:  append([]string(nil), h.helos...),
	}
}

// viaAcceptLoop makes serverNet hide the fabric's listeners, so servers
// the tests start drive each session from an accept loop (serveConn)
// instead of serving it on the dialer's goroutine (netsim.Serve).
// TestServerTestsOverAcceptLoop sets it while it reruns the server tests.
var viaAcceptLoop bool

// acceptLoopNet is a Network whose listeners are not the fabric's own,
// so netsim.Serve declines them.
type acceptLoopNet struct{ netsim.Network }

func (n acceptLoopNet) Listen(network, address string) (net.Listener, error) {
	l, err := n.Network.Listen(network, address)
	if err != nil {
		return nil, err
	}
	return struct{ net.Listener }{l}, nil
}

// serverNet is the Network a test server at ip listens on: the fabric
// host, hidden behind acceptLoopNet when viaAcceptLoop is set.
func serverNet(fabric *netsim.Fabric, ip string) netsim.Network {
	if viaAcceptLoop {
		return acceptLoopNet{fabric.Host(ip)}
	}
	return fabric.Host(ip)
}

func startServer(t *testing.T, h Handler) (*netsim.Fabric, string) {
	t.Helper()
	fabric := netsim.NewFabric()
	srv := &Server{
		Hostname: "mx.example.com",
		Net:      serverNet(fabric, "192.0.2.25"),
		Addr:     ":25",
		Handler:  h,
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return fabric, "192.0.2.25:25"
}

func dial(t *testing.T, fabric *netsim.Fabric, addr string) *Conn {
	t.Helper()
	cli := &Client{Net: fabric.Host("198.51.100.9"), HELO: "probe.dns-lab.org"}
	conn, err := cli.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestFullTransaction(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()

	if conn.Greet.Code != 220 || !strings.Contains(conn.Greet.Lines[0], "mx.example.com") {
		t.Errorf("banner = %+v", conn.Greet)
	}
	if err := conn.Hello(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Mail("alice@sender.example"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Rcpt("postmaster@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Data(); err != nil {
		t.Fatal(err)
	}
	r, err := conn.SendMessage([]byte("Subject: hi\r\n\r\nbody line\r\n.leading dot\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Positive() {
		t.Fatalf("final reply = %+v", r)
	}
	if err := conn.Quit(); err != nil {
		t.Fatal(err)
	}

	got := h.snapshot()
	if len(got.mails) != 1 || got.mails[0] != "alice@sender.example" {
		t.Errorf("mails = %v", got.mails)
	}
	if len(got.rcpts) != 1 || got.rcpts[0] != "postmaster@example.com" {
		t.Errorf("rcpts = %v", got.rcpts)
	}
	if len(got.datas) != 1 {
		t.Fatalf("datas = %v", got.datas)
	}
	if !strings.Contains(got.datas[0], "body line") {
		t.Errorf("message = %q", got.datas[0])
	}
	if !strings.Contains(got.datas[0], "\r\n.leading dot") {
		t.Errorf("dot-stuffing broken: %q", got.datas[0])
	}
	if len(got.helos) != 1 || got.helos[0] != "probe.dns-lab.org" {
		t.Errorf("helos = %v", got.helos)
	}
	if len(got.aborts) != 0 {
		t.Errorf("aborts = %v", got.aborts)
	}
}

func TestNoMsgProbeAbortsAfterData(t *testing.T) {
	// The NoMsg probe: MAIL, RCPT, DATA, then terminate before any
	// message content. The server must see the abort in the data state.
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	if err := conn.Hello(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Mail("probe@x.s.spf-test.dns-lab.org"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Rcpt("noreply@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Data(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Abort is observed asynchronously; wait for the handler.
	deadline := make(chan struct{})
	go func() {
		for {
			if len(h.snapshot().aborts) > 0 {
				close(deadline)
				return
			}
		}
	}()
	<-deadline
	got := h.snapshot()
	if len(got.datas) != 0 {
		t.Errorf("NoMsg probe delivered data: %v", got.datas)
	}
	if got.aborts[0] != StateData {
		t.Errorf("abort state = %q, want %q", got.aborts[0], StateData)
	}
}

func TestBlankMsgProbeDeliversEmptyMessage(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	if err := conn.Hello(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Mail("probe@x.s.spf-test.dns-lab.org"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Rcpt("noreply@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Data(); err != nil {
		t.Fatal(err)
	}
	r, err := conn.SendMessage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Positive() {
		t.Fatalf("blank message rejected: %+v", r)
	}
	got := h.snapshot()
	if len(got.datas) != 1 || got.datas[0] != "" {
		t.Errorf("blank message content = %q", got.datas)
	}
}

func TestConnectionRefusedByPolicy(t *testing.T) {
	h := &recordingHandler{connResp: ReplyShuttingDown}
	fabric, addr := startServer(t, h)
	cli := &Client{Net: fabric.Host("198.51.100.9"), HELO: "probe"}
	_, err := cli.Dial(context.Background(), addr)
	if ReplyCode(err) != 421 {
		t.Fatalf("dial err = %v, want 421", err)
	}
}

func TestMailFromRejected(t *testing.T) {
	h := &recordingHandler{mailResp: ReplyRejectedPolicy}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	err := conn.Mail("spammer@bad.example")
	if ReplyCode(err) != 554 {
		t.Fatalf("mail err = %v, want 554", err)
	}
}

func TestRcptGreylisted(t *testing.T) {
	h := &recordingHandler{rcptResp: ReplyGreylisted}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	conn.Mail("a@b.example")
	err := conn.Rcpt("user@example.com")
	if ReplyCode(err) != 450 {
		t.Fatalf("rcpt err = %v, want 450", err)
	}
}

func TestBadSequenceEnforced(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	// RCPT before MAIL.
	err := conn.Rcpt("user@example.com")
	if ReplyCode(err) != 503 {
		t.Fatalf("out-of-order rcpt = %v, want 503", err)
	}
	// DATA before RCPT.
	conn.Mail("a@b.example")
	if err := conn.Data(); ReplyCode(err) != 503 {
		t.Fatalf("premature DATA = %v, want 503", err)
	}
}

func TestRsetClearsTransaction(t *testing.T) {
	h := &recordingHandler{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	conn.Hello()
	conn.Mail("a@b.example")
	if _, err := conn.cmd("RSET"); err != nil {
		t.Fatal(err)
	}
	// After RSET, MAIL is accepted again.
	if err := conn.Mail("c@d.example"); err != nil {
		t.Fatal(err)
	}
	got := h.snapshot()
	if len(got.mails) != 2 {
		t.Errorf("mails = %v", got.mails)
	}
}

func TestEHLOFallbackToHELO(t *testing.T) {
	// Handler rejecting EHLO should make the client retry with HELO.
	h := &ehloRejector{}
	fabric, addr := startServer(t, h)
	conn := dial(t, fabric, addr)
	defer conn.Close()
	if err := conn.Hello(); err != nil {
		t.Fatalf("Hello with EHLO-rejecting server: %v", err)
	}
	if h.sawHELO != 1 {
		t.Errorf("HELO fallback count = %d", h.sawHELO)
	}
}

type ehloRejector struct {
	NopHandler
	sawHELO int
}

func (h *ehloRejector) OnHelo(helo string, ehlo bool) *Reply {
	if ehlo {
		return ReplyNotImplemented
	}
	h.sawHELO++
	return nil
}

func TestParsePath(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"<user@example.com>", "user@example.com", false},
		{"user@example.com", "user@example.com", false},
		{"<>", "", false},
		{"<user@example.com> SIZE=1000", "user@example.com", false},
		{"<@relay.example:user@example.com>", "user@example.com", false},
		{"<unbalanced@example.com", "", true},
		{"nodomain", "", true},
		{"<caf\xe9-user@example.com>", "caf\xe9-user@example.com", false},
		// Each used to return a mailbox that ParsePath itself rejects,
		// which FuzzServerSession checks for.
		{"<<user@example.com>", "", true},
		{"<@a:@b:user>", "", true},
		{"<@relay.example>", "", true},
		{"<us\ter@example.com>", "", true},
		// Returned whole, so that parsing it again does not strip the
		// no-break space and then the "@a:" route.
		{"<\u00a0@a:user>", "\u00a0@a:user", false},
	}
	for _, c := range cases {
		got, err := ParsePath(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParsePath(%q) = %q, %v; want %q, err=%v", c.in, got, err, c.want, c.err)
		}
		if err != nil {
			continue
		}
		if again, err := ParsePath(got); err != nil || again != got {
			t.Errorf("ParsePath(%q) = %q, %v; want its own result back", got, again, err)
		}
	}
}

func TestAddressHelpers(t *testing.T) {
	if AddressDomain("User@Example.COM") != "example.com" {
		t.Error("AddressDomain case folding")
	}
	if AddressLocal("user@example.com") != "user" {
		t.Error("AddressLocal")
	}
	if AddressDomain("nodomain") != "" {
		t.Error("AddressDomain without @")
	}
}

func TestReplyStringMultiline(t *testing.T) {
	r := &Reply{Code: 250, Lines: []string{"mx.example.com", "8BITMIME", "OK"}}
	got := r.String()
	want := "250-mx.example.com\r\n250-8BITMIME\r\n250 OK"
	if got != want {
		t.Errorf("multiline = %q, want %q", got, want)
	}
}

// TestWriteReplyMatchesString checks the server's reply writer against
// Reply.String: the wire bytes it appends are the string plus the final
// CRLF, after whatever the buffer already holds.
func TestWriteReplyMatchesString(t *testing.T) {
	replies := []*Reply{
		{Code: 421},
		NewReply(250, "OK"),
		NewReply(550, ""),
		{Code: 250, Lines: []string{"mx.example.com", "8BITMIME", "SIZE 10485760", "PIPELINING"}},
		{Code: 451, Lines: []string{strings.Repeat("x", 40), "", "end"}},
	}
	for _, held := range []string{"", "220 earlier reply\r\n"} {
		for _, r := range replies {
			got := string(appendReply([]byte(held), r))
			if want := held + r.String() + "\r\n"; got != want {
				t.Errorf("appendReply(%q, %+v) = %q, want %q", held, *r, got, want)
			}
		}
	}
}

func TestReplyPredicates(t *testing.T) {
	if !NewReply(250, "x").Positive() || !NewReply(354, "x").Positive() {
		t.Error("positive predicates")
	}
	if !ReplyGreylisted.Transient() || ReplyGreylisted.Positive() {
		t.Error("450 classification")
	}
	if ReplyNoSuchUser.Transient() || ReplyNoSuchUser.Positive() {
		t.Error("550 classification")
	}
}
