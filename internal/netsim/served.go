package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"spfail/internal/clock"
)

// Session is the server side of one connection to a listener that Serve
// attached a session factory to. The connection calls it on the goroutine
// of the client's Write or Close, one call at a time: Input and Abort
// never run concurrently for one session.
type Session interface {
	// Input consumes in, the bytes of one client Write, appends the
	// replies to out and returns it. The first call, made when the client
	// dials, has no input and returns the greeting. done reports that the
	// server has closed the session: Input is not called again, and the
	// client reads the replies, then io.EOF. Input must not keep in.
	Input(in, out []byte) (reply []byte, done bool)
	// Abort tells an open session that the client closed the connection.
	// unread reports whether replies were left unread: a server that
	// wrote its replies synchronously, as on a stream, would have seen its
	// last write fail.
	Abort(unread bool)
}

// Serve makes open the session factory of l and reports whether l is a
// fabric listener that can serve; an OS listener is left alone and needs
// an accept loop. Every later dial to l calls open with the dialer's
// address and the first Input on the dialer's goroutine, and returns a
// net.Conn whose Write hands its bytes to the session's Input on the
// writer's goroutine and whose Read returns the replies that call
// buffered: no accept queue, no goroutine and no stream per connection.
//
// Serve declines a listener that has already queued or accepted a
// connection, and a listener on a fabric whose fault injector drops
// datagrams: there a session's DNS exchange can wait out a timeout in
// wall time, and only a session on a goroutine of its own lets its
// client give up on it meanwhile, as over a stream. Close waits for the
// Input and Abort calls in flight, and refuses later dials and Writes, so
// a session must not close l itself.
func Serve(l net.Listener, open func(remote net.Addr) Session) bool {
	fl, ok := l.(*fabricListener)
	if !ok || (fl.f.Faults != nil && fl.f.Faults.DropsDatagrams()) {
		return false
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.ch != nil {
		return false
	}
	fl.open = open
	return true
}

// replyInline is the size of the reply buffer a served connection carries
// in its own allocation: room for an SMTP EHLO reply naming a host of up
// to 70 octets.
const replyInline = 128

// servedConn is the dialer's end of a connection that a Session serves.
// Its errors match streamConn's, because error text reaches trace events:
// io.ErrClosedPipe and io.EOF bare, a passed deadline as a *net.OpError
// on the "pipe" network.
type servedConn struct {
	l    *fabricListener
	sess Session
	clk  clock.Clock
	// local is the dialer's address, boxed once: LocalAddr returns it and
	// the session gets it as its remote.
	local net.Addr

	mu sync.Mutex
	// cond, on mu, is broadcast whenever an operation waiting on the
	// connection may be able to go on: replies buffered, an Input ended,
	// the connection closed, a deadline set or passed.
	cond sync.Cond
	// busy is set while a Write's Input runs, so a second Write waits for
	// it. abort records a Close that came meanwhile: that Write calls
	// Abort once its Input has returned.
	busy  bool // guarded by mu
	abort bool // guarded by mu
	// closed is set by Close, done once the session has closed.
	closed bool // guarded by mu
	done   bool // guarded by mu
	// out[off:] are the replies not yet read. A Write appends the replies
	// its Input returns; out starts in inline and is reset to its start
	// by a Write that finds every reply read.
	out []byte // guarded by mu
	off int    // guarded by mu

	rdAt, wrAt time.Time     // wall-clock deadlines, zero for none; guarded by mu
	timer      deadlineTimer // guarded by mu

	inline [replyInline]byte
}

// serve opens a session of l for a dial from laddr and runs its first
// Input, which returns its greeting. The caller has counted the call in
// l.calls.
func (l *fabricListener) serve(open func(net.Addr) Session, laddr Addr) net.Conn {
	c := &servedConn{l: l, clk: l.f.clock(), local: laddr}
	c.cond.L = &c.mu
	c.sess = open(c.local)
	out, done := c.sess.Input(nil, c.inline[:0])
	c.mu.Lock()
	c.out, c.done = out, done
	c.mu.Unlock()
	return c
}

// Read implements net.Conn. It returns buffered replies first, then
// io.EOF once the session has closed; with nothing buffered and the
// session open, it waits for a Write, a Close or its deadline.
func (c *servedConn) Read(b []byte) (int, error) {
	n, err := c.read(b)
	if err != nil && err != io.EOF && err != io.ErrClosedPipe {
		err = &net.OpError{Op: "read", Net: "pipe", Err: err}
	}
	return n, err
}

func (c *servedConn) read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		switch {
		case c.closed:
			return 0, io.ErrClosedPipe
		case passed(c.rdAt):
			return 0, os.ErrDeadlineExceeded
		case c.off < len(c.out):
			n := copy(b, c.out[c.off:])
			c.off += n
			return n, nil
		case c.done:
			return 0, io.EOF
		}
		c.wait(c.rdAt)
	}
}

// Write implements net.Conn. It runs the session's Input on the calling
// goroutine, holding no lock, buffers the replies and returns len(b).
func (c *servedConn) Write(b []byte) (int, error) {
	n, err := c.write(b)
	if err != nil && err != io.ErrClosedPipe {
		err = &net.OpError{Op: "write", Net: "pipe", Err: err}
	}
	return n, err
}

func (c *servedConn) write(b []byte) (int, error) {
	spare, err := c.begin()
	if err != nil {
		return 0, err
	}
	reply, done := c.sess.Input(b, spare)
	c.end(reply, done)
	return len(b), nil
}

// begin waits until no other Write's Input runs, then claims the session
// for one Input and returns the buffer that Input appends to: the spare
// room after the unread replies, which a concurrent Read may take
// meanwhile, as it touches only out[off:len(out)].
func (c *servedConn) begin() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		switch {
		case c.closed || c.done:
			return nil, io.ErrClosedPipe
		case passed(c.wrAt):
			return nil, os.ErrDeadlineExceeded
		case !c.busy:
			if !c.l.enter() {
				return nil, io.ErrClosedPipe // the listener has closed
			}
			c.busy = true
			if c.off == len(c.out) {
				c.out, c.off = c.out[:0], 0
			}
			return c.out[len(c.out):], nil
		}
		c.wait(c.wrAt)
	}
}

// end buffers the replies of the Input that begin claimed the session for
// and releases the session. It runs the Abort of a Close that came during
// that Input.
func (c *servedConn) end(reply []byte, done bool) {
	c.mu.Lock()
	c.out = append(c.out, reply...) // in place, unless Input grew the buffer
	c.busy, c.done = false, done
	abort := c.abort && !done
	unread := c.off < len(c.out)
	c.mu.Unlock()
	c.cond.Broadcast()
	if abort {
		c.sess.Abort(unread)
	}
	c.l.calls.Done()
}

// wait blocks on c.cond until an operation on c may be able to go on,
// arming the deadline timer for at first when at is set.
//
//spfail:locked c.mu
func (c *servedConn) wait(at time.Time) {
	c.timer.arm(at, c)
	c.cond.Wait()
}

// fire runs when the deadline timer goes off and wakes every waiting
// operation, each of which checks its own deadline.
func (c *servedConn) fire() {
	c.mu.Lock()
	c.timer.fired()
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Close implements net.Conn. Closing an open session aborts it once: at
// once, or, when a Write's Input is running, once that Input returns.
func (c *servedConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.timer.stop()
	abort := !c.done && !c.busy
	c.abort = !c.done && c.busy
	unread := c.off < len(c.out)
	c.mu.Unlock()
	c.cond.Broadcast()
	if abort && c.l.enter() {
		c.sess.Abort(unread)
		c.l.calls.Done()
	}
	return nil
}

// LocalAddr implements net.Conn.
func (c *servedConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *servedConn) RemoteAddr() net.Addr { return c.l.addr }

// SetDeadline implements net.Conn on the fabric clock's timeline.
func (c *servedConn) SetDeadline(t time.Time) error { return c.setDeadlines(t, true, true) }

// SetReadDeadline implements net.Conn on the fabric clock's timeline.
func (c *servedConn) SetReadDeadline(t time.Time) error { return c.setDeadlines(t, true, false) }

// SetWriteDeadline implements net.Conn on the fabric clock's timeline.
func (c *servedConn) SetWriteDeadline(t time.Time) error { return c.setDeadlines(t, false, true) }

// setDeadlines stores the deadline and wakes the waiting operations, as
// streamConn's does. It fails once the connection is closed, or once the
// session has closed and every reply has been read, which is when a
// stream's server end would have closed.
func (c *servedConn) setDeadlines(t time.Time, read, write bool) error {
	at := toWall(c.clk, t)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || (c.done && c.off == len(c.out)) {
		return io.ErrClosedPipe
	}
	if read {
		c.rdAt = at
	}
	if write {
		c.wrAt = at
	}
	c.cond.Broadcast()
	return nil
}

var _ net.Conn = (*servedConn)(nil)
