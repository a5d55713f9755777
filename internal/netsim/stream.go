package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"spfail/internal/clock"
)

// stream is one fabric TCP connection: its two ends, the one lock that
// guards the state of both, and the one deadline timer that serves both.
// The timer is armed for the earliest deadline an operation on either end
// waits for, and the first Close stops it: from then on every operation
// on either end returns at once, so none waits again.
type stream struct {
	mu    sync.Mutex
	clk   clock.Clock
	addrs [2]Addr // the dialer's and the listener's, indexed by side
	ends  [2]streamConn
	timer deadlineTimer // guarded by mu
}

// streamConn is one end of a fabric TCP connection. It behaves like an end
// of net.Pipe: the stream is synchronous and unbuffered, so a Write lends
// its slice to the peer and returns once the peer's reads have taken all
// of it, and every error value matches net.Pipe's, because error text
// reaches trace events. Only deadlines differ. net.Pipe arms a fresh timer
// on every Set*Deadline call and Close never stops it, so each closed
// connection stays reachable until its last deadline has passed. The
// stream keeps one timer for both ends and both directions (see
// deadlineTimer), armed only when a read or write is about to wait with a
// deadline set.
type streamConn struct {
	s    *stream
	peer *streamConn

	// cond, on s.mu, is broadcast whenever an operation waiting on this
	// end may be able to go on: data offered by the peer, this end's
	// offer taken or freed, either end closed, a deadline set or passed.
	cond sync.Cond

	side   uint8 // 0 for the dialer's end, 1 for the listener's
	closed bool  // guarded by s.mu

	// A Write holds the offer (writing) from the moment it lends its
	// slice until it returns, so the bytes of two Writes never
	// interleave. offer is the part the peer has not yet read; offered
	// stays true until the peer has taken all of it, which for a
	// zero-length Write means one Read.
	writing bool   // guarded by s.mu
	offered bool   // guarded by s.mu
	offer   []byte // guarded by s.mu

	rdAt, wrAt time.Time // wall-clock deadlines, zero for none; guarded by s.mu
}

// newStream connects two stream ends: the dialer's, addressed laddr →
// raddr, and the listener's, addressed the other way.
func newStream(clk clock.Clock, laddr, raddr Addr) (cli, srv *streamConn) {
	s := &stream{clk: clk, addrs: [2]Addr{laddr, raddr}} // one allocation for the connection
	cli, srv = &s.ends[0], &s.ends[1]
	cli.s, cli.peer = s, srv
	srv.s, srv.peer, srv.side = s, cli, 1
	cli.cond.L, srv.cond.L = &s.mu, &s.mu
	return cli, srv
}

// Read implements net.Conn.
func (c *streamConn) Read(b []byte) (int, error) {
	n, err := c.read(b)
	if err != nil && err != io.EOF && err != io.ErrClosedPipe {
		err = &net.OpError{Op: "read", Net: "pipe", Err: err}
	}
	return n, err
}

func (c *streamConn) read(b []byte) (int, error) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	p := c.peer
	for {
		switch {
		case c.closed:
			return 0, io.ErrClosedPipe
		case p.closed:
			return 0, io.EOF
		case passed(c.rdAt):
			return 0, os.ErrDeadlineExceeded
		case p.offered:
			n := copy(b, p.offer)
			p.offer = p.offer[n:]
			if len(p.offer) == 0 {
				p.offered = false
				p.cond.Broadcast()
			}
			return n, nil
		}
		c.wait(c.rdAt)
	}
}

// Write implements net.Conn.
func (c *streamConn) Write(b []byte) (int, error) {
	n, err := c.write(b)
	if err != nil && err != io.ErrClosedPipe {
		err = &net.OpError{Op: "write", Net: "pipe", Err: err}
	}
	return n, err
}

func (c *streamConn) write(b []byte) (int, error) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	p := c.peer
	for {
		switch {
		case c.closed || p.closed:
			return 0, io.ErrClosedPipe
		case passed(c.wrAt):
			return 0, os.ErrDeadlineExceeded
		}
		if !c.writing {
			break
		}
		c.wait(c.wrAt) // another Write holds the offer
	}
	c.writing, c.offered, c.offer = true, true, b
	p.cond.Broadcast()
	var err error
	for c.offered && err == nil {
		c.wait(c.wrAt)
		switch {
		case !c.offered:
			// Taken whole, even if an end has closed since.
		case c.closed || p.closed:
			err = io.ErrClosedPipe
		case passed(c.wrAt):
			err = os.ErrDeadlineExceeded
		}
	}
	n := len(b) - len(c.offer)
	c.writing, c.offered, c.offer = false, false, nil
	c.cond.Broadcast() // a Write waiting for the offer
	return n, err
}

// wait blocks on c.cond until an operation on c may be able to go on.
// When at is set, it first arms the stream's timer for at, unless the
// timer is already due by then, so the wait ends by its deadline.
//
//spfail:locked c.s.mu
func (c *streamConn) wait(at time.Time) {
	c.s.timer.arm(at, c.s)
	c.cond.Wait()
}

// fire runs when the stream's timer goes off. It wakes every operation
// waiting on either end; each checks its own deadline, and one whose
// deadline lies later re-arms the timer before it waits again.
func (s *stream) fire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timer.fired()
	s.ends[0].cond.Broadcast()
	s.ends[1].cond.Broadcast()
}

// Close implements net.Conn. It stops the stream's deadline timer, so
// nothing keeps a closed connection reachable; once either end is closed,
// no operation on either end waits again.
func (c *streamConn) Close() error {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	s.timer.stop()
	c.cond.Broadcast()
	c.peer.cond.Broadcast()
	return nil
}

// LocalAddr implements net.Conn.
func (c *streamConn) LocalAddr() net.Addr { return c.s.addrs[c.side] }

// RemoteAddr implements net.Conn.
func (c *streamConn) RemoteAddr() net.Addr { return c.s.addrs[1-c.side] }

// SetDeadline implements net.Conn on the fabric clock's timeline.
func (c *streamConn) SetDeadline(t time.Time) error { return c.setDeadlines(t, true, true) }

// SetReadDeadline implements net.Conn on the fabric clock's timeline.
func (c *streamConn) SetReadDeadline(t time.Time) error { return c.setDeadlines(t, true, false) }

// SetWriteDeadline implements net.Conn on the fabric clock's timeline.
func (c *streamConn) SetWriteDeadline(t time.Time) error { return c.setDeadlines(t, false, true) }

// setDeadlines stores the deadline and arms nothing. It wakes the
// operations waiting on c, which check the new deadline and, when it moved
// earlier than the armed timer, move the timer with it.
func (c *streamConn) setDeadlines(t time.Time, read, write bool) error {
	at := toWall(c.s.clk, t)
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed || c.peer.closed {
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

var _ net.Conn = (*streamConn)(nil)
