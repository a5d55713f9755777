package smtp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/netsim"
	"spfail/internal/telemetry"
)

// Handler receives the policy decision points of an SMTP session. Any hook
// may return a nil reply to accept with the default response. Returning a
// reply with code 421 or 554 on OnConnect refuses the session after the
// banner.
//
// This is where simulated MTAs wire in SPF validation: hosts that validate
// at MAIL FROM issue their DNS lookups inside OnMailFrom (visible to the
// NoMsg probe); hosts that defer validation until a message has been
// received issue them inside OnData (reachable only by the BlankMsg probe).
type Handler interface {
	// OnConnect is called before the banner. Returning a non-positive
	// reply sends it and closes the session.
	OnConnect(remote net.Addr) *Reply
	// OnHelo is called for HELO/EHLO.
	OnHelo(helo string, ehlo bool) *Reply
	// OnMailFrom is called with the parsed reverse-path.
	OnMailFrom(from string, remote net.Addr, helo string) *Reply
	// OnRcptTo is called with each parsed forward-path.
	OnRcptTo(to string) *Reply
	// OnData is called with the complete message (possibly empty).
	OnData(from string, rcpts []string, msg []byte, remote net.Addr, helo string) *Reply
	// OnAbort is called when the client drops the connection mid-
	// transaction (the NoMsg probe does this deliberately).
	OnAbort(state string)
}

// NopHandler accepts everything and may be embedded to override selected
// hooks.
type NopHandler struct{}

// OnConnect implements Handler.
func (NopHandler) OnConnect(net.Addr) *Reply { return nil }

// OnHelo implements Handler.
func (NopHandler) OnHelo(string, bool) *Reply { return nil }

// OnMailFrom implements Handler.
func (NopHandler) OnMailFrom(string, net.Addr, string) *Reply { return nil }

// OnRcptTo implements Handler.
func (NopHandler) OnRcptTo(string) *Reply { return nil }

// OnData implements Handler.
func (NopHandler) OnData(string, []string, []byte, net.Addr, string) *Reply { return nil }

// OnAbort implements Handler.
func (NopHandler) OnAbort(string) {}

// Server is an SMTP server bound to a Network.
type Server struct {
	// Hostname appears in the banner and EHLO response.
	Hostname string
	Net      netsim.Network
	Addr     string // listen address, typically ":25"
	Handler  Handler
	// MaxMessageBytes caps DATA size; 0 means 10 MiB.
	MaxMessageBytes int
	// IOTimeout bounds each read/write; 0 means 30s.
	IOTimeout time.Duration
	// Metrics, when non-nil, receives session/abort/per-command failure
	// counters (see docs/telemetry.md). Set before Start.
	Metrics *telemetry.Registry
	// Clk supplies time for I/O deadlines. Defaults to the real clock.
	Clk clock.Clock

	mu      sync.Mutex
	l       net.Listener
	wg      sync.WaitGroup
	run     bool
	unwatch func() bool // guarded by mu; deregisters Start's context.AfterFunc
}

func (s *Server) maxMsg() int {
	if s.MaxMessageBytes > 0 {
		return s.MaxMessageBytes
	}
	return 10 << 20
}

func (s *Server) ioTimeout() time.Duration {
	if s.IOTimeout > 0 {
		return s.IOTimeout
	}
	return 30 * time.Second
}

func (s *Server) clock() clock.Clock {
	if s.Clk != nil {
		return s.Clk
	}
	return clock.Real{}
}

// Start binds the listener and serves until Stop or ctx cancellation. On
// a fabric, each session runs on the goroutine of the client that dials
// it (netsim.Serve): the client's writes drive the session's state
// machine. Elsewhere, on OS sockets and on a fabric that can drop
// datagrams, an accept loop drives each session from a goroutine of its
// own (serveConn).
func (s *Server) Start(ctx context.Context) error {
	l, err := s.Net.Listen("tcp", s.Addr)
	if err != nil {
		return err
	}
	loop := !netsim.Serve(l, s.open)
	// Add before the lock: a Stop fired by an already-cancelled ctx waits
	// only after Start releases mu.
	if loop {
		s.wg.Add(1)
	}
	s.mu.Lock()
	s.l = l
	s.run = true
	// A context that can never end needs no watcher.
	if ctx != nil && ctx.Done() != nil {
		s.unwatch = context.AfterFunc(ctx, s.Stop)
	}
	s.mu.Unlock()
	if loop {
		go s.acceptLoop(l)
	}
	return nil
}

// Stop closes the listener and waits for the sessions: for the session
// goroutines of an accept loop to end, and on a fabric for the calls
// that clients' writes and closes make into their sessions to return. It
// also deregisters Start's ctx watcher, so a stopped server holds no
// goroutine and ctx keeps no reference to it.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.run {
		s.mu.Unlock()
		return
	}
	s.run = false
	l, unwatch := s.l, s.unwatch
	s.unwatch = nil
	s.mu.Unlock()
	if unwatch != nil {
		unwatch()
	}
	_ = l.Close()
	s.wg.Wait()
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
		}()
	}
}

// session state names passed to OnAbort.
const (
	StateGreeting = "greeting"
	StateHelo     = "helo"
	StateMail     = "mail"
	StateRcpt     = "rcpt"
	StateData     = "data"
)

// open starts a session for a client at remote: the session factory
// Start hands netsim.Serve.
func (s *Server) open(remote net.Addr) netsim.Session { return s.newSession(remote) }

func (s *Server) newSession(remote net.Addr) *serverSession {
	s.Metrics.Counter("smtp.server.sessions").Inc()
	return &serverSession{srv: s, remote: remote}
}

// serveConn drives a session over c from the calling goroutine: it writes
// what each Input returns and reads the client's next bytes, each under
// IOTimeout, until the session or the client ends it.
func (s *Server) serveConn(c net.Conn) {
	defer c.Close()
	ss := s.newSession(c.RemoteAddr())
	in := make([]byte, lineBuffer)
	out, done := ss.Input(nil, nil)
	var rerr error
	for {
		if len(out) > 0 {
			err := c.SetWriteDeadline(s.clock().Now().Add(s.ioTimeout()))
			if err == nil {
				_, err = c.Write(out)
			}
			if err != nil && ss.quiet {
				return // the banner or the 354 reply never reached the client
			}
		}
		if done {
			return
		}
		if rerr == nil {
			rerr = c.SetReadDeadline(s.clock().Now().Add(s.ioTimeout()))
		}
		if rerr != nil {
			ss.readFailed(rerr)
			return
		}
		var n int
		n, rerr = c.Read(in)
		out, done = ss.Input(in[:n], out[:0])
	}
}

// serverSession is one SMTP session, a state machine that Input feeds the
// client's bytes: on a fabric from the client's own writes (netsim.Serve),
// elsewhere from serveConn's reads. Either way it gives the same replies
// in the same order.
type serverSession struct {
	srv    *Server
	remote net.Addr

	// state is "" until Input has sent the banner.
	state string
	verb  string // command being served, for failure attribution
	helo  string
	from  string
	haveF bool // MAIL FROM accepted (distinguishes empty reverse-path)
	rcpts []string
	msg   []byte // message text received so far in the data state

	// partial is the start of a line whose LF has not arrived yet.
	partial []byte
	// out collects the replies of the Input call in progress.
	out []byte
	// quiet is set while the last reply sent is the banner or the 354
	// reply to DATA. A client that hangs up without reading either ends
	// the session without an abort, as a failed write of either ends it
	// in serveConn.
	quiet bool
}

// Line bounds, CRLF included: RFC 5321 §4.5.3.1.4 caps a command line at
// 512 octets and §4.5.3.1.6 a line of message text at 1000. lineBuffer
// is the size of the read buffer every bound fits in: a line that
// reaches it without an LF is over every bound.
const (
	maxCommandLine = 512
	maxTextLine    = 1000
	lineBuffer     = 4096
)

// Replies the session sends without building them per session.
var (
	replyLineTooLong = NewReply(500, "Line too long")
	replyQueued      = NewReply(250, "OK: queued")
	replyCannotVRFY  = NewReply(252, "Cannot VRFY user, but will accept message")
)

// Input implements netsim.Session. The first call sends the banner; each
// later one serves, in order, every line that in completes, and keeps the
// start of an unfinished line for the next call. done reports that the
// session has ended: after QUIT, a refused connection, an over-long line
// or an oversized message.
func (ss *serverSession) Input(in, out []byte) (reply []byte, done bool) {
	ss.out = out
	if ss.state == "" {
		done = ss.greet()
	} else {
		done = ss.input(in)
	}
	reply, ss.out = ss.out, nil
	return reply, done
}

// input serves the lines in completes, appending the replies to ss.out.
func (ss *serverSession) input(in []byte) bool {
	for len(in) > 0 {
		i := bytes.IndexByte(in, '\n')
		if i < 0 {
			if len(ss.partial)+len(in) >= lineBuffer {
				return ss.lineTooLong()
			}
			ss.partial = append(ss.partial, in...)
			return false
		}
		if len(ss.partial)+i >= lineBuffer {
			return ss.lineTooLong()
		}
		line := in[:i+1]
		in = in[i+1:]
		if len(ss.partial) > 0 {
			line = append(ss.partial, line...)
			ss.partial = line[:0]
		}
		if ss.serveLine(bytes.TrimRight(line, "\r\n")) {
			return true
		}
	}
	return false
}

// Abort implements netsim.Session.
func (ss *serverSession) Abort(unread bool) {
	if unread && ss.quiet {
		return
	}
	ss.abort()
}

// abort reports a client that hung up mid-session, with the state the
// session was in, so MTA simulations can distinguish NoMsg-style
// terminations.
func (ss *serverSession) abort() {
	if m := ss.srv.Metrics; m != nil {
		m.Counter("smtp.server.aborts." + ss.state).Inc()
	}
	ss.srv.Handler.OnAbort(ss.state)
}

// readFailed ends a session whose read failed: EOF or a closed connection
// aborts it; a passed deadline or another error just ends it.
func (ss *serverSession) readFailed(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		ss.abort()
	}
}

func (ss *serverSession) send(r *Reply) {
	if m := ss.srv.Metrics; m != nil && !r.Positive() && ss.verb != "" {
		m.Counter("smtp.server.cmd_failures." + strings.ToLower(ss.verb)).Inc()
	}
	ss.out = appendReply(ss.out, r)
	ss.quiet = false
}

// sendText sends a positive reply given as the parts of its wire form,
// without building a Reply.
func (ss *serverSession) sendText(code string, parts ...string) {
	ss.out = append(ss.out, code...)
	for _, p := range parts {
		ss.out = append(ss.out, p...)
	}
	ss.quiet = false
}

// appendReply appends r's wire form, r.String() plus the final CRLF, to b.
func appendReply(b []byte, r *Reply) []byte {
	if len(r.Lines) == 0 {
		b = strconv.AppendInt(b, int64(r.Code), 10)
		return append(b, "\r\n"...)
	}
	for i, line := range r.Lines {
		b = strconv.AppendInt(b, int64(r.Code), 10)
		if i < len(r.Lines)-1 {
			b = append(b, '-')
		} else {
			b = append(b, ' ')
		}
		b = append(b, line...)
		b = append(b, "\r\n"...)
	}
	return b
}

// greet sends the banner, or the negative reply OnConnect returned, which
// ends the session.
func (ss *serverSession) greet() bool {
	ss.state = StateGreeting
	if r := ss.srv.Handler.OnConnect(ss.remote); r != nil && !r.Positive() {
		ss.send(r)
		return true
	}
	ss.sendText("220 ", ss.srv.Hostname, " ESMTP ready\r\n")
	ss.quiet = true
	return false
}

// lineTooLong ends the session with "500 Line too long" (RFC 5321
// §4.5.3.1.9). The reply is charged to DATA when it ends the message
// text; a command line that was never read has no verb to charge.
func (ss *serverSession) lineTooLong() bool {
	if ss.state != StateData {
		ss.verb = ""
	}
	ss.send(replyLineTooLong)
	return true
}

// serveLine serves one line, without its line ending, and reports whether
// the session has ended.
func (ss *serverSession) serveLine(line []byte) bool {
	if ss.state == StateData {
		return ss.dataLine(line)
	}
	if len(line)+len("\r\n") > maxCommandLine {
		return ss.lineTooLong()
	}
	verb, arg := splitCommand(string(line))
	ss.verb = verb
	switch verb {
	case "HELO", "EHLO":
		ss.cmdHelo(verb == "EHLO", arg)
	case "MAIL":
		ss.cmdMail(arg)
	case "RCPT":
		ss.cmdRcpt(arg)
	case "DATA":
		ss.cmdData()
	case "RSET":
		ss.reset()
		ss.send(ReplyOK)
	case "NOOP":
		ss.send(ReplyOK)
	case "VRFY":
		ss.send(replyCannotVRFY)
	case "QUIT":
		ss.send(ReplyBye)
		return true
	default:
		ss.send(ReplySyntaxError)
	}
	return false
}

func splitCommand(line string) (verb, arg string) {
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return strings.ToUpper(line[:i]), strings.TrimSpace(line[i+1:])
	}
	return strings.ToUpper(line), ""
}

// hasPrefixFold reports whether s starts with prefix, an upper-case ASCII
// keyword, in any case: as strings.HasPrefix(strings.ToUpper(s), prefix)
// does, since no rune but its own two cases upper-cases to a letter of
// FROM or TO, but without building the upper-cased copy.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

func (ss *serverSession) reset() {
	ss.from = ""
	ss.haveF = false
	ss.rcpts = nil
	ss.msg = nil
	if ss.helo != "" {
		ss.state = StateHelo
	} else {
		ss.state = StateGreeting
	}
}

func (ss *serverSession) cmdHelo(ehlo bool, arg string) {
	if arg == "" {
		ss.send(ReplyParamError)
		return
	}
	if r := ss.srv.Handler.OnHelo(arg, ehlo); r != nil && !r.Positive() {
		ss.send(r)
		return
	}
	ss.helo = arg
	ss.reset()
	ss.state = StateHelo
	if ehlo {
		ss.sendText("250-", ss.srv.Hostname, "\r\n250-8BITMIME\r\n250-SIZE 10485760\r\n250 PIPELINING\r\n")
	} else {
		ss.sendText("250 ", ss.srv.Hostname, "\r\n")
	}
}

func (ss *serverSession) cmdMail(arg string) {
	if !hasPrefixFold(arg, "FROM:") {
		ss.send(ReplyParamError)
		return
	}
	if ss.haveF {
		ss.send(ReplyBadSequence)
		return
	}
	path, err := ParsePath(arg[len("FROM:"):])
	if err != nil {
		ss.send(ReplyParamError)
		return
	}
	if r := ss.srv.Handler.OnMailFrom(path, ss.remote, ss.helo); r != nil && !r.Positive() {
		ss.send(r)
		return
	}
	ss.from = path
	ss.haveF = true
	ss.state = StateMail
	ss.send(ReplyOK)
}

func (ss *serverSession) cmdRcpt(arg string) {
	if !hasPrefixFold(arg, "TO:") {
		ss.send(ReplyParamError)
		return
	}
	if !ss.haveF {
		ss.send(ReplyBadSequence)
		return
	}
	path, err := ParsePath(arg[len("TO:"):])
	if err != nil || path == "" {
		ss.send(ReplyParamError)
		return
	}
	if r := ss.srv.Handler.OnRcptTo(path); r != nil && !r.Positive() {
		ss.send(r)
		return
	}
	ss.rcpts = append(ss.rcpts, path)
	ss.state = StateRcpt
	ss.send(ReplyOK)
}

// cmdData starts the DATA phase: later lines are message text, up to the
// lone-dot terminator.
func (ss *serverSession) cmdData() {
	if !ss.haveF || len(ss.rcpts) == 0 {
		ss.send(ReplyBadSequence)
		return
	}
	ss.send(ReplyStartMail)
	ss.quiet = true
	ss.state = StateData
}

// dataLine takes one line of dot-stuffed message text and reports whether
// the session has ended: an over-long line ends it with a reply, a
// message over MaxMessageBytes without one. The lone-dot terminator hands
// the message to OnData.
func (ss *serverSession) dataLine(line []byte) bool {
	if len(line)+len("\r\n") > maxTextLine+len(".") {
		return ss.lineTooLong()
	}
	if string(line) == "." {
		r := ss.srv.Handler.OnData(ss.from, ss.rcpts, ss.msg, ss.remote, ss.helo)
		if r == nil {
			r = replyQueued
		}
		ss.send(r)
		ss.reset()
		return false
	}
	if bytes.HasPrefix(line, []byte("..")) {
		line = line[1:] // un-stuff
	}
	if len(line)+len("\r\n") > maxTextLine {
		return ss.lineTooLong()
	}
	ss.msg = append(ss.msg, line...)
	ss.msg = append(ss.msg, '\r', '\n')
	return len(ss.msg) > ss.srv.maxMsg()
}
