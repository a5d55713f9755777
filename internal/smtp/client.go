package smtp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spfail/internal/clock"
	"spfail/internal/netsim"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// Client dials SMTP servers and drives probe transactions.
type Client struct {
	Net netsim.Network
	// HELO is the identity announced in EHLO/HELO.
	HELO string
	// IOTimeout bounds each read/write; 0 means 30s.
	IOTimeout time.Duration
	// Metrics, when non-nil, receives session and per-command failure
	// counters (see docs/telemetry.md).
	Metrics *telemetry.Registry
	// Clk supplies time for I/O deadlines. Defaults to the real clock.
	Clk clock.Clock

	// failures holds each step's cmd_failures counter, looked up in
	// Metrics on the step's first failure and kept.
	failures [numSteps]atomic.Pointer[telemetry.Counter]
}

// step is a client step whose failures smtp.client.cmd_failures.<verb>
// counts, the verb being its stepVerbs entry.
type step uint8

const (
	stepBanner step = iota
	stepHelo
	stepMail
	stepRcpt
	stepData
	stepMessage
	numSteps
)

var stepVerbs = [numSteps]string{"banner", "helo", "mail", "rcpt", "data", "message"}

func (c *Client) clock() clock.Clock {
	if c.Clk != nil {
		return c.Clk
	}
	return clock.Real{}
}

// fail counts one failed client command. Only a step's first failure
// looks its counter up, so the others take no registry lock and build no
// name.
func (c *Client) fail(s step) {
	if c.Metrics == nil {
		return
	}
	ctr := c.failures[s].Load()
	if ctr == nil {
		ctr = c.Metrics.Counter("smtp.client.cmd_failures." + stepVerbs[s])
		c.failures[s].Store(ctr)
	}
	ctr.Inc()
}

func (c *Client) ioTimeout() time.Duration {
	if c.IOTimeout > 0 {
		return c.IOTimeout
	}
	return 30 * time.Second
}

// Session buffer pools: probe campaigns open and tear down one short SMTP
// session per transaction, so the client's 4 KiB bufio buffers are
// recycled instead of reallocated per session. A session takes its
// buffers through getBuffers and returns them through putBuffers when it
// ends (Close/Quit or a failed Dial). putBuffers resets them against nil
// first so a pooled buffer can never reach a connection it no longer
// owns. Server sessions buffer nothing of their own: the client's writes
// hand them whole chunks of input (Input).
var (
	brPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	bwPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

// getBuffers takes a reader and a writer for nc from the session pools.
func getBuffers(nc net.Conn) (*bufio.Reader, *bufio.Writer) {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(nc)
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(nc)
	return br, bw
}

// putBuffers returns a session's reader and writer to their pools,
// dropping any unread or unflushed bytes. Either may be nil.
func putBuffers(br *bufio.Reader, bw *bufio.Writer) {
	if br != nil {
		br.Reset(nil)
		brPool.Put(br)
	}
	if bw != nil {
		bw.Reset(nil)
		bwPool.Put(bw)
	}
}

// Conn is an established SMTP session.
type Conn struct {
	c       *Client
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	Greet   Reply // the 220/421 banner
	didEHLO bool
	sp      *trace.Span // the dialing context's span; nil when untraced
}

// event records one command/reply exchange on the session's span.
func (co *Conn) event(verb string, r *Reply, err error) {
	if co.sp == nil {
		return
	}
	attrs := make([]trace.Attr, 0, 3)
	attrs = append(attrs, trace.String("verb", verb))
	if r != nil {
		attrs = append(attrs, trace.Int("code", r.Code))
	}
	if err != nil {
		attrs = append(attrs, trace.String("error", err.Error()))
	}
	co.sp.Event("smtp.cmd", attrs...)
}

// Dial connects and consumes the banner. A non-positive banner is returned
// as *ReplyError alongside the connection (which is closed).
func (c *Client) Dial(ctx context.Context, addr string) (*Conn, error) {
	c.Metrics.Counter("smtp.client.sessions").Inc()
	sp := trace.SpanFromContext(ctx)
	nc, err := c.Net.DialContext(ctx, "tcp", addr)
	if err != nil {
		c.Metrics.Counter("smtp.client.dial_failures").Inc()
		if sp != nil {
			sp.Event("smtp.dial", trace.String("addr", addr), trace.String("error", err.Error()))
		}
		return nil, err
	}
	if sp != nil {
		sp.Event("smtp.dial", trace.String("addr", addr))
	}
	br, bw := getBuffers(nc)
	conn := &Conn{c: c, conn: nc, br: br, bw: bw, sp: sp}
	r, err := conn.readReply()
	conn.event("banner", r, err)
	if err != nil {
		_ = nc.Close()
		conn.release()
		c.fail(stepBanner)
		return nil, err
	}
	conn.Greet = *r
	if !r.Positive() {
		_ = nc.Close()
		conn.release()
		c.fail(stepBanner)
		return nil, &ReplyError{Reply: *r}
	}
	return conn, nil
}

// release returns the session's buffers to their pools. Idempotent, so the
// prober's defer Close after an explicit Close/Quit stays harmless. The
// session is unusable afterwards.
func (co *Conn) release() {
	putBuffers(co.br, co.bw)
	co.br, co.bw = nil, nil
}

// Close terminates the underlying connection without QUIT — the NoMsg
// probe's deliberate mid-transaction termination.
func (co *Conn) Close() error {
	err := co.conn.Close()
	co.release()
	return err
}

// Quit sends QUIT and closes. A close failure is reported only when the
// QUIT exchange itself succeeded.
func (co *Conn) Quit() error {
	_, err := co.cmd("QUIT")
	if cerr := co.conn.Close(); err == nil {
		err = cerr
	}
	co.release()
	return err
}

// Hello negotiates EHLO, falling back to HELO on rejection.
func (co *Conn) Hello() error {
	r, err := co.cmd("EHLO %s", co.c.HELO)
	if err == nil && r.Positive() {
		co.didEHLO = true
		return nil
	}
	if err != nil {
		if _, ok := err.(*ReplyError); !ok {
			co.c.fail(stepHelo)
			return err
		}
	}
	r, err = co.cmd("HELO %s", co.c.HELO)
	if err != nil {
		co.c.fail(stepHelo)
		return err
	}
	if !r.Positive() {
		co.c.fail(stepHelo)
		return &ReplyError{Reply: *r}
	}
	return nil
}

// Mail sends MAIL FROM.
func (co *Conn) Mail(from string) error {
	return co.countFail(stepMail, co.expectPositive("MAIL FROM:<%s>", from))
}

// Rcpt sends RCPT TO.
func (co *Conn) Rcpt(to string) error {
	return co.countFail(stepRcpt, co.expectPositive("RCPT TO:<%s>", to))
}

// Data sends the DATA command, expecting 354.
func (co *Conn) Data() error {
	r, err := co.cmd("DATA")
	if err != nil {
		co.c.fail(stepData)
		return err
	}
	if r.Code != 354 {
		co.c.fail(stepData)
		return &ReplyError{Reply: *r}
	}
	return nil
}

// countFail records a command failure and passes the error through.
func (co *Conn) countFail(s step, err error) error {
	if err != nil {
		co.c.fail(s)
	}
	return err
}

// SendMessage transmits message content (dot-stuffed) and the terminator,
// returning the server's final reply. An empty msg produces the BlankMsg
// probe's entirely empty email.
func (co *Conn) SendMessage(msg []byte) (*Reply, error) {
	if err := co.conn.SetWriteDeadline(co.c.clock().Now().Add(co.c.ioTimeout())); err != nil {
		return nil, err
	}
	lines := strings.Split(string(msg), "\n")
	for _, line := range lines {
		line = strings.TrimSuffix(line, "\r")
		if line == "" && len(msg) == 0 {
			break // no body at all
		}
		if strings.HasPrefix(line, ".") {
			line = "." + line
		}
		if _, err := co.bw.WriteString(line + "\r\n"); err != nil {
			return nil, err
		}
	}
	if _, err := co.bw.WriteString(".\r\n"); err != nil {
		co.c.fail(stepMessage)
		return nil, err
	}
	if err := co.bw.Flush(); err != nil {
		co.c.fail(stepMessage)
		return nil, err
	}
	r, err := co.readReply()
	co.event("message", r, err)
	if err != nil || !r.Positive() {
		co.c.fail(stepMessage)
	}
	return r, err
}

// expectPositive sends a command and converts negative replies to errors.
func (co *Conn) expectPositive(format string, args ...interface{}) error {
	r, err := co.cmd(format, args...)
	if err != nil {
		return err
	}
	if !r.Positive() {
		return &ReplyError{Reply: *r}
	}
	return nil
}

// cmd writes one command line and reads the reply.
func (co *Conn) cmd(format string, args ...interface{}) (*Reply, error) {
	if err := co.conn.SetWriteDeadline(co.c.clock().Now().Add(co.c.ioTimeout())); err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(co.bw, format+"\r\n", args...); err != nil {
		return nil, err
	}
	if err := co.bw.Flush(); err != nil {
		return nil, err
	}
	r, err := co.readReply()
	if co.sp != nil {
		verb := format
		if i := strings.IndexAny(verb, " %"); i >= 0 {
			verb = strings.TrimRight(verb[:i], " ")
		}
		co.event(verb, r, err)
	}
	return r, err
}

// Reply bounds. RFC 5321 §4.5.3.1.5 caps a reply line at 512 octets,
// CRLF included. The RFC sets no bound on the lines of one reply, so
// maxReplyLines is ours, far above the dozen an EHLO reply carries. Every
// line re-arms the read deadline, so together they also cap how long a
// hostile server can keep one reply open: maxReplyLines × IOTimeout.
const (
	maxReplyLine  = 512
	maxReplyLines = 100
)

// readReply parses a (possibly multi-line) SMTP reply.
func (co *Conn) readReply() (*Reply, error) {
	var reply Reply
	for {
		if err := co.conn.SetReadDeadline(co.c.clock().Now().Add(co.c.ioTimeout())); err != nil {
			return nil, err
		}
		line, err := co.br.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if err != nil || len(line)+len("\r\n") > maxReplyLine {
			return nil, fmt.Errorf("smtp: reply line longer than %d octets", maxReplyLine)
		}
		if len(line) < 3 {
			return nil, fmt.Errorf("smtp: short reply line %q", line)
		}
		code, ok := parseReplyCode(line)
		if !ok {
			return nil, fmt.Errorf("smtp: bad reply code in %q", line)
		}
		if reply.Code == 0 {
			reply.Code = code
		} else if reply.Code != code {
			return nil, fmt.Errorf("smtp: inconsistent codes %d vs %d", reply.Code, code)
		}
		cont := len(line) > 3 && line[3] == '-'
		text := ""
		if len(line) > 4 {
			text = string(line[4:])
		}
		reply.Lines = append(reply.Lines, text)
		if !cont {
			return &reply, nil
		}
		if len(reply.Lines) == maxReplyLines {
			return nil, fmt.Errorf("smtp: reply longer than %d lines", maxReplyLines)
		}
	}
}

// parseReplyCode reads the three-digit reply code that starts line. The
// first digit is 1 to 5, the only ones RFC 5321 §4.2.1 defines.
func parseReplyCode(line []byte) (int, bool) {
	if line[0] < '1' || line[0] > '5' || line[1] < '0' || line[1] > '9' || line[2] < '0' || line[2] > '9' {
		return 0, false
	}
	return int(line[0]-'0')*100 + int(line[1]-'0')*10 + int(line[2]-'0'), true
}

// ReplyCode extracts the SMTP code from a *ReplyError, or 0.
func ReplyCode(err error) int {
	if re, ok := err.(*ReplyError); ok {
		return re.Reply.Code
	}
	return 0
}
