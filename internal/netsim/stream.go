package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"spfail/internal/clock"
)

// streamConn is one end of a fabric TCP connection. It behaves like an end
// of net.Pipe: the stream is synchronous and unbuffered, so a Write returns
// once the peer has read the bytes, and every error value matches
// net.Pipe's, because error text reaches trace events. Only deadlines
// differ. net.Pipe arms a fresh timer on every Set*Deadline call and Close
// never stops it, so each closed connection stays reachable until its last
// deadline has passed. A streamConn keeps one timer per direction for its
// whole life, leaves it alone when a deadline moves later, and stops it on
// Close.
type streamConn struct {
	clk           clock.Clock
	local, remote Addr

	// A writer offers its slice on wrTx and learns on wrRx how much the
	// peer's read took; rdRx and rdTx are the same pair seen from the
	// reading end.
	rdRx <-chan []byte
	rdTx chan<- int
	wrTx chan<- []byte
	wrRx <-chan int
	wrMu sync.Mutex // keeps the bytes of one Write together

	localDone  chan struct{} // closed by Close, under mu
	remoteDone <-chan struct{}

	mu sync.Mutex
	rd streamDeadline // guarded by mu
	wr streamDeadline // guarded by mu
}

// streamDeadline is one direction's deadline on one end of a stream, kept
// on the wall clock. At most one timer is armed for it: a later deadline
// leaves the armed timer alone, and a timer that fires before the stored
// deadline re-arms for the remainder (see fire).
type streamDeadline struct {
	at     time.Time     // zero means no deadline
	due    time.Time     // when the armed timer fires; zero when none is armed
	timer  *time.Timer   // made by the first deadline that needs one
	passed bool          // at has passed; operations fail until it moves
	wake   chan struct{} // closed when at passes; made by the first waiter
}

// newStream connects two stream ends: the dialer's, addressed laddr →
// raddr, and the listener's, addressed the other way.
func newStream(clk clock.Clock, laddr, raddr Addr) (cli, srv *streamConn) {
	up, down := make(chan []byte), make(chan []byte)
	upN, downN := make(chan int), make(chan int)
	cliDone, srvDone := make(chan struct{}), make(chan struct{})
	ends := new([2]streamConn) // one allocation for both ends
	cli, srv = &ends[0], &ends[1]
	cli.clk, cli.local, cli.remote = clk, laddr, raddr
	cli.rdRx, cli.rdTx, cli.wrTx, cli.wrRx = down, downN, up, upN
	cli.localDone, cli.remoteDone = cliDone, srvDone
	srv.clk, srv.local, srv.remote = clk, raddr, laddr
	srv.rdRx, srv.rdTx, srv.wrTx, srv.wrRx = up, upN, down, downN
	srv.localDone, srv.remoteDone = srvDone, cliDone
	return cli, srv
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
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
	switch {
	case isClosedChan(c.localDone):
		return 0, io.ErrClosedPipe
	case isClosedChan(c.remoteDone):
		return 0, io.EOF
	}
	expired, passed := c.expiry(true)
	if passed {
		return 0, os.ErrDeadlineExceeded
	}
	select {
	case bw := <-c.rdRx:
		nr := copy(b, bw)
		c.rdTx <- nr
		return nr, nil
	case <-c.localDone:
		return 0, io.ErrClosedPipe
	case <-c.remoteDone:
		return 0, io.EOF
	case <-expired:
		return 0, os.ErrDeadlineExceeded
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

func (c *streamConn) write(b []byte) (n int, err error) {
	if isClosedChan(c.localDone) || isClosedChan(c.remoteDone) {
		return 0, io.ErrClosedPipe
	}
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	for once := true; once || len(b) > 0; once = false {
		expired, passed := c.expiry(false)
		if passed {
			return n, os.ErrDeadlineExceeded
		}
		select {
		case c.wrTx <- b:
			nw := <-c.wrRx
			b = b[nw:]
			n += nw
		case <-c.localDone:
			return n, io.ErrClosedPipe
		case <-c.remoteDone:
			return n, io.ErrClosedPipe
		case <-expired:
			return n, os.ErrDeadlineExceeded
		}
	}
	return n, nil
}

// expiry returns a channel that is closed when the read (or write)
// deadline passes, and whether it already has.
func (c *streamConn) expiry(read bool) (<-chan struct{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &c.wr
	if read {
		d = &c.rd
	}
	if d.passed {
		return nil, true
	}
	if d.wake == nil {
		d.wake = make(chan struct{})
	}
	return d.wake, false
}

// Close implements net.Conn. It stops both deadline timers, so nothing
// keeps a closed end reachable.
func (c *streamConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if isClosedChan(c.localDone) {
		return nil
	}
	close(c.localDone)
	for _, d := range [...]*streamDeadline{&c.rd, &c.wr} {
		if d.timer != nil {
			d.timer.Stop()
		}
		d.due = time.Time{}
	}
	return nil
}

// LocalAddr implements net.Conn.
func (c *streamConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *streamConn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn on the fabric clock's timeline.
func (c *streamConn) SetDeadline(t time.Time) error { return c.setDeadlines(t, true, true) }

// SetReadDeadline implements net.Conn on the fabric clock's timeline.
func (c *streamConn) SetReadDeadline(t time.Time) error { return c.setDeadlines(t, true, false) }

// SetWriteDeadline implements net.Conn on the fabric clock's timeline.
func (c *streamConn) SetWriteDeadline(t time.Time) error { return c.setDeadlines(t, false, true) }

func (c *streamConn) setDeadlines(t time.Time, read, write bool) error {
	at := c.toWall(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Checked under mu, which Close holds, so no timer is armed after Close.
	if isClosedChan(c.localDone) || isClosedChan(c.remoteDone) {
		return io.ErrClosedPipe
	}
	if read {
		c.set(&c.rd, at)
	}
	if write {
		c.set(&c.wr, at)
	}
	return nil
}

// toWall converts a deadline on the fabric clock to the wall clock the
// deadline timers run on. The remaining budget (t minus virtual now) is
// preserved; a virtual clock that later jumps forward cannot retroactively
// shorten it, which is acceptable for the simulator's politeness bounds.
func (c *streamConn) toWall(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	//spfail:allow wallclock translating a virtual deadline onto the wall-clock timeline the deadline timers run on
	return time.Now().Add(t.Sub(c.clk.Now()))
}

// set moves d to the wall-clock deadline at: zero clears it, a past
// deadline expires it at once, and an earlier one than the armed timer's
// re-arms that timer. A later one leaves the timer alone.
//
//spfail:locked c.mu
func (c *streamConn) set(d *streamDeadline, at time.Time) {
	d.at = at
	if at.IsZero() {
		d.passed = false
		d.disarm()
		return
	}
	//spfail:allow wallclock deadline timers run on the wall clock; see toWall
	wait := time.Until(at)
	if wait <= 0 {
		d.disarm()
		d.expire()
		return
	}
	d.passed = false
	if d.due.IsZero() || at.Before(d.due) {
		c.arm(d, wait)
	}
}

// arm schedules d's timer wait from now, for d.at.
//
//spfail:locked c.mu
func (c *streamConn) arm(d *streamDeadline, wait time.Duration) {
	if d.timer == nil {
		//spfail:allow wallclock deadline timers run on the wall clock; see toWall
		d.timer = time.AfterFunc(wait, func() { c.fire(d) })
	} else {
		d.timer.Reset(wait)
	}
	d.due = d.at
}

// fire runs when d's timer goes off. The deadline may have moved since the
// timer was armed: a later one re-arms the timer for the remainder, and a
// cleared or already expired one needs nothing. A late call for a timer
// that was re-armed in the meantime takes the same path, so it is harmless.
func (c *streamConn) fire(d *streamDeadline) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.due = time.Time{}
	if d.at.IsZero() || d.passed || isClosedChan(c.localDone) {
		return
	}
	//spfail:allow wallclock deadline timers run on the wall clock; see toWall
	if wait := time.Until(d.at); wait > 0 {
		c.arm(d, wait)
		return
	}
	d.expire()
}

// disarm stops d's timer if one is armed.
func (d *streamDeadline) disarm() {
	if !d.due.IsZero() {
		d.timer.Stop()
		d.due = time.Time{}
	}
}

// expire marks d passed and wakes the operations waiting on it.
func (d *streamDeadline) expire() {
	d.passed = true
	if d.wake != nil {
		close(d.wake)
		d.wake = nil
	}
}

var _ net.Conn = (*streamConn)(nil)
