package smtp

import (
	"bufio"
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

// Start binds the listener and serves until Stop or ctx cancellation.
func (s *Server) Start(ctx context.Context) error {
	l, err := s.Net.Listen("tcp", s.Addr)
	if err != nil {
		return err
	}
	// Add before the lock: a Stop fired by an already-cancelled ctx waits
	// only after Start releases mu.
	s.wg.Add(1)
	s.mu.Lock()
	s.l = l
	s.run = true
	if ctx != nil {
		s.unwatch = context.AfterFunc(ctx, s.Stop)
	}
	s.mu.Unlock()
	go s.acceptLoop(l)
	return nil
}

// Stop closes the listener and waits for sessions to finish. It also
// deregisters Start's ctx watcher, so a stopped server holds no goroutine
// and ctx keeps no reference to it.
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

func (s *Server) serveConn(c net.Conn) {
	defer c.Close()
	s.Metrics.Counter("smtp.server.sessions").Inc()
	br, bw := getBuffers(c)
	sess := &serverSession{
		srv:    s,
		conn:   c,
		br:     br,
		bw:     bw,
		remote: c.RemoteAddr(),
		state:  StateGreeting,
	}
	sess.run()
	putBuffers(br, bw)
}

type serverSession struct {
	srv    *Server
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	remote net.Addr

	state string
	verb  string // command being served, for failure attribution
	helo  string
	from  string
	haveF bool // MAIL FROM accepted (distinguishes empty reverse-path)
	rcpts []string
}

func (ss *serverSession) send(r *Reply) error {
	if !r.Positive() && ss.verb != "" {
		ss.srv.Metrics.Counter("smtp.server.cmd_failures." + strings.ToLower(ss.verb)).Inc()
	}
	if err := ss.conn.SetWriteDeadline(ss.srv.clock().Now().Add(ss.srv.ioTimeout())); err != nil {
		return err
	}
	if err := writeReply(ss.bw, r); err != nil {
		return err
	}
	return ss.bw.Flush()
}

// writeReply writes r's wire form, r.String() plus the final CRLF, into w.
// The reply is assembled in w's free space, so it costs no allocation
// unless it is longer than that space.
func writeReply(w *bufio.Writer, r *Reply) error {
	b := w.AvailableBuffer()
	if len(r.Lines) == 0 {
		b = strconv.AppendInt(b, int64(r.Code), 10)
		b = append(b, "\r\n"...)
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
	_, err := w.Write(b)
	return err
}

func (ss *serverSession) readLine() (string, error) {
	if err := ss.conn.SetReadDeadline(ss.srv.clock().Now().Add(ss.srv.ioTimeout())); err != nil {
		return "", err
	}
	line, err := ss.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func (ss *serverSession) abortIfMidTransaction(err error) {
	if err == nil {
		return
	}
	// EOF or reset mid-session: report the state we were in so MTA
	// simulations can distinguish NoMsg-style terminations.
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		ss.srv.Metrics.Counter("smtp.server.aborts." + ss.state).Inc()
		ss.srv.Handler.OnAbort(ss.state)
	}
}

func (ss *serverSession) run() {
	h := ss.srv.Handler
	if r := h.OnConnect(ss.remote); r != nil && !r.Positive() {
		ss.send(r)
		return
	}
	if err := ss.send(Replyf(220, "%s ESMTP ready", ss.srv.Hostname)); err != nil {
		return
	}
	for {
		line, err := ss.readLine()
		if err != nil {
			ss.abortIfMidTransaction(err)
			return
		}
		verb, arg := splitCommand(line)
		ss.verb = verb
		switch verb {
		case "HELO", "EHLO":
			ss.cmdHelo(verb == "EHLO", arg)
		case "MAIL":
			ss.cmdMail(arg)
		case "RCPT":
			ss.cmdRcpt(arg)
		case "DATA":
			if done := ss.cmdData(); done {
				return
			}
		case "RSET":
			ss.reset()
			ss.send(ReplyOK)
		case "NOOP":
			ss.send(ReplyOK)
		case "VRFY":
			ss.send(NewReply(252, "Cannot VRFY user, but will accept message"))
		case "QUIT":
			ss.send(ReplyBye)
			return
		case "":
			ss.send(ReplySyntaxError)
		default:
			ss.send(ReplySyntaxError)
		}
	}
}

func splitCommand(line string) (verb, arg string) {
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return strings.ToUpper(line[:i]), strings.TrimSpace(line[i+1:])
	}
	return strings.ToUpper(line), ""
}

func (ss *serverSession) reset() {
	ss.from = ""
	ss.haveF = false
	ss.rcpts = nil
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
		ss.send(&Reply{Code: 250, Lines: []string{ss.srv.Hostname, "8BITMIME", "SIZE 10485760", "PIPELINING"}})
	} else {
		ss.send(Replyf(250, "%s", ss.srv.Hostname))
	}
}

func (ss *serverSession) cmdMail(arg string) {
	upper := strings.ToUpper(arg)
	if !strings.HasPrefix(upper, "FROM:") {
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
	upper := strings.ToUpper(arg)
	if !strings.HasPrefix(upper, "TO:") {
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

// cmdData runs the DATA phase. It returns true when the session must end
// (client vanished mid-data).
func (ss *serverSession) cmdData() bool {
	if !ss.haveF || len(ss.rcpts) == 0 {
		ss.send(ReplyBadSequence)
		return false
	}
	if err := ss.send(ReplyStartMail); err != nil {
		return true
	}
	ss.state = StateData
	msg, err := ss.readData()
	if err != nil {
		ss.abortIfMidTransaction(err)
		return true
	}
	r := ss.srv.Handler.OnData(ss.from, ss.rcpts, msg, ss.remote, ss.helo)
	if r == nil {
		r = NewReply(250, "OK: queued")
	}
	ss.send(r)
	ss.reset()
	return false
}

// readData consumes dot-stuffed message content up to the lone-dot
// terminator.
func (ss *serverSession) readData() ([]byte, error) {
	var buf []byte
	for {
		line, err := ss.readLine()
		if err != nil {
			return nil, err
		}
		if line == "." {
			return buf, nil
		}
		if strings.HasPrefix(line, "..") {
			line = line[1:] // un-stuff
		}
		buf = append(buf, line...)
		buf = append(buf, '\r', '\n')
		if len(buf) > ss.srv.maxMsg() {
			return nil, errors.New("smtp: message too large")
		}
	}
}
