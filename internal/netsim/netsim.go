// Package netsim provides the network fabric abstraction used by every
// protocol component in this repository. A Network hands out connections and
// listeners; the Real implementation delegates to the operating system while
// Fabric is a deterministic in-memory Internet on which thousands of
// simulated mail hosts, DNS servers, and probes exchange genuine byte
// streams and datagrams.
//
// The design follows the substitution rule from DESIGN.md: protocol code
// (SMTP, DNS) is identical whether it runs on real sockets or on the fabric;
// only the dial/listen plumbing differs.
//
// A fabric UDP endpoint queues at most inboxLimit (1024) unread datagrams
// and drops the rest, as a full socket buffer does. The queue is a ring that
// doubles with the traffic it actually holds, so a DNS dial that receives
// one reply pays for one datagram, not for the bound, and a busy server
// pops its oldest datagram in constant time.
//
// A fabric TCP connection is a pair of stream ends with net.Pipe's
// synchronous semantics and error values. Each end keeps one deadline timer
// per direction for its whole life: a deadline that moves later leaves the
// armed timer alone (it re-arms for the remainder when it fires), one that
// moves earlier re-arms it, and Close stops it. A closed connection
// therefore holds no timer, and its memory goes with its session.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"spfail/internal/clock"
)

// Network abstracts dialing and listening so protocol code can run on the
// real Internet or on an in-memory fabric.
type Network interface {
	// DialContext opens a connection to address ("ip:port").
	// network is "tcp" or "udp".
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
	// Listen starts a stream listener on address.
	Listen(network, address string) (net.Listener, error)
	// ListenPacket starts a datagram endpoint on address.
	ListenPacket(network, address string) (net.PacketConn, error)
}

// Real is a Network backed by the operating system's stack.
type Real struct{}

// DialContext implements Network.
func (Real) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, network, address)
}

// Listen implements Network.
func (Real) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

// ListenPacket implements Network.
func (Real) ListenPacket(network, address string) (net.PacketConn, error) {
	return net.ListenPacket(network, address)
}

// Errors surfaced by the fabric. ErrRefused unwraps from the *net.OpError
// returned by DialContext so callers can use errors.Is.
var (
	ErrRefused   = errors.New("connection refused")
	ErrAddrInUse = errors.New("address already in use")
	ErrClosed    = net.ErrClosed
	// ErrReset unwraps from the *net.OpError a fault-injected connection
	// returns once its byte budget is spent.
	ErrReset = errors.New("connection reset by peer")
)

// DialFault tells the fabric how to mistreat one TCP dial. The zero value
// means a healthy dial.
type DialFault struct {
	// Refuse fails the dial with ErrRefused even when a listener exists.
	Refuse bool
	// Blackhole completes the dial but connects it to nothing: every read
	// and write blocks until the connection's deadline expires.
	Blackhole bool
	// Delay tarpits the dial for this long on the fabric clock before it
	// proceeds. Injectors must only delay dials made from goroutines
	// accounted to the simulated clock (in this repository: the prober's
	// port-25 dials), or the clock's bookkeeping is corrupted.
	Delay time.Duration
	// ResetAfter, when positive, resets the connection (ErrReset) after
	// the dialer has read this many bytes.
	ResetAfter int
}

// DatagramVerdict is a fault injector's decision about one datagram.
type DatagramVerdict int

// Datagram verdicts.
const (
	// VerdictPass delivers the (possibly rewritten) datagram normally.
	VerdictPass DatagramVerdict = iota
	// VerdictDrop silently discards the datagram.
	VerdictDrop
	// VerdictReflect bounces the rewritten payload back to the sender as
	// if it came from the destination (used to forge DNS SERVFAILs).
	VerdictReflect
)

// FaultInjector lets a fault engine intercept fabric traffic. Implementations
// must be deterministic functions of stable flow identities — never of the
// fabric clock or of ephemeral ports, both of which depend on goroutine
// interleaving (see internal/faults).
type FaultInjector interface {
	// DialTCP is consulted for every TCP dial; src carries only the
	// dialing host (no port — ephemeral ports are not stable identities).
	DialTCP(src, dst Addr) DialFault
	// Datagram is consulted for every delivered datagram and may rewrite
	// the payload. Returning (nil, VerdictPass) keeps the original bytes.
	Datagram(from, to Addr, payload []byte) ([]byte, DatagramVerdict)
}

// Addr is a fabric address.
type Addr struct {
	Net  string // "tcp" or "udp"
	Host string // IP literal
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return a.Net }

// String implements net.Addr.
func (a Addr) String() string { return net.JoinHostPort(a.Host, strconv.Itoa(a.Port)) }

// Fabric is an in-memory Internet: a switchboard of stream listeners keyed
// by "ip:port" and datagram endpoints keyed by their Addr. The zero value is
// not usable; call NewFabric.
type Fabric struct {
	mu        sync.Mutex
	listeners map[string]*fabricListener
	packet    map[Addr]*fabricPacketConn
	nextPort  int

	// Faults, when non-nil, intercepts dials and datagrams (see
	// internal/faults for the declarative engine). Set before handing out
	// connections.
	Faults FaultInjector

	// Clock is the time source deadlines on fabric connections are
	// enforced against. Campaigns that drive protocol code with a
	// virtual clock set it to the same clock.Sim so deadlines computed
	// as clk.Now().Add(timeout) mean the same thing on both sides. Nil
	// means the real clock. Set before handing out connections.
	Clock clock.Clock
}

func (f *Fabric) clock() clock.Clock {
	if f.Clock != nil {
		return f.Clock
	}
	return clock.Real{}
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		listeners: make(map[string]*fabricListener),
		packet:    make(map[Addr]*fabricPacketConn),
		nextPort:  40000,
	}
}

// Host returns a Network whose outbound connections originate from ip.
// The source IP is visible to peers via RemoteAddr, which is what SPF
// validation and probe attribution key on.
func (f *Fabric) Host(ip string) Network { return &hostNetwork{f: f, ip: ip} }

type hostNetwork struct {
	f  *Fabric
	ip string
}

func (h *hostNetwork) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return h.f.dial(ctx, h.ip, network, address)
}

func (h *hostNetwork) Listen(network, address string) (net.Listener, error) {
	return h.f.listen(network, h.qualify(address))
}

func (h *hostNetwork) ListenPacket(network, address string) (net.PacketConn, error) {
	return h.f.listenPacket(network, h.qualify(address))
}

// qualify replaces an unspecified host ("", "0.0.0.0", "::") with the host's
// own IP so listeners land on the host's address.
func (h *hostNetwork) qualify(address string) string {
	hostPart, port, err := net.SplitHostPort(address)
	if err != nil {
		return address
	}
	if hostPart == "" || hostPart == "0.0.0.0" || hostPart == "::" {
		return net.JoinHostPort(h.ip, port)
	}
	return address
}

func (f *Fabric) allocPortLocked() int {
	f.nextPort++
	return f.nextPort
}

func splitAddr(network, address string) (Addr, error) {
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return Addr{}, fmt.Errorf("netsim: bad address %q: %w", address, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return Addr{}, fmt.Errorf("netsim: bad port in %q: %w", address, err)
	}
	return Addr{Net: network, Host: host, Port: port}, nil
}

func (f *Fabric) dial(ctx context.Context, srcIP, network, address string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4", "tcp6":
		return f.dialTCP(ctx, srcIP, address)
	case "udp", "udp4", "udp6":
		return f.dialUDP(srcIP, address)
	default:
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
}

func (f *Fabric) dialTCP(ctx context.Context, srcIP, address string) (net.Conn, error) {
	raddr, err := splitAddr("tcp", address)
	if err != nil {
		return nil, err
	}
	var fault DialFault
	if f.Faults != nil {
		fault = f.Faults.DialTCP(Addr{Net: "tcp", Host: srcIP}, raddr)
	}
	if fault.Delay > 0 {
		if err := f.clock().Sleep(ctx, fault.Delay); err != nil {
			return nil, err
		}
	}
	if fault.Refuse {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Addr: raddr, Err: ErrRefused}
	}
	f.mu.Lock()
	l := f.listeners[raddr.String()]
	laddr := Addr{Net: "tcp", Host: srcIP, Port: f.allocPortLocked()}
	f.mu.Unlock()
	if fault.Blackhole {
		// The dial "succeeds", but the server end of the stream is
		// discarded: reads and writes hang until the connection deadline
		// expires.
		cli, _ := newStream(f.clock(), laddr, raddr)
		return cli, nil
	}
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Addr: raddr, Err: ErrRefused}
	}
	cli, srv := newStream(f.clock(), laddr, raddr)
	var clientConn net.Conn = cli
	if fault.ResetAfter > 0 {
		clientConn = &resetConn{Conn: cli, remaining: fault.ResetAfter, raddr: raddr}
	}
	select {
	case l.ch <- srv:
		return clientConn, nil
	case <-l.done:
		_ = cli.Close()
		_ = srv.Close()
		return nil, &net.OpError{Op: "dial", Net: "tcp", Addr: raddr, Err: ErrRefused}
	case <-ctx.Done():
		_ = cli.Close()
		_ = srv.Close()
		return nil, ctx.Err()
	}
}

// resetConn simulates a peer reset: after the dialer has read its byte
// budget, every further read or write fails with ErrReset and the
// underlying stream is closed so the server side unblocks.
type resetConn struct {
	net.Conn
	raddr Addr

	mu        sync.Mutex
	remaining int
	tripped   bool
}

func (c *resetConn) resetErr(op string) error {
	return &net.OpError{Op: op, Net: "tcp", Addr: c.raddr, Err: ErrReset}
}

// trip closes the wrapped conn once and marks the reset. Caller holds c.mu.
func (c *resetConn) tripLocked() {
	if !c.tripped {
		c.tripped = true
		_ = c.Conn.Close()
	}
}

func (c *resetConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.tripped || c.remaining <= 0 {
		c.tripLocked()
		c.mu.Unlock()
		return 0, c.resetErr("read")
	}
	if len(b) > c.remaining {
		b = b[:c.remaining]
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.remaining -= n
	c.mu.Unlock()
	return n, err
}

func (c *resetConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	tripped := c.tripped
	c.mu.Unlock()
	if tripped {
		return 0, c.resetErr("write")
	}
	return c.Conn.Write(b)
}

// dialUDP returns a connected packet conn presented as a net.Conn.
func (f *Fabric) dialUDP(srcIP, address string) (net.Conn, error) {
	raddr, err := splitAddr("udp", address)
	if err != nil {
		return nil, err
	}
	pc, err := f.bindPacket(Addr{Net: "udp", Host: srcIP})
	if err != nil {
		return nil, err
	}
	return &connectedPacketConn{pc: pc, remote: raddr}, nil
}

func (f *Fabric) listen(network, address string) (net.Listener, error) {
	if network != "tcp" && network != "tcp4" && network != "tcp6" {
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
	addr, err := splitAddr("tcp", address)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if addr.Port == 0 {
		addr.Port = f.allocPortLocked()
	}
	key := addr.String()
	if _, ok := f.listeners[key]; ok {
		return nil, &net.OpError{Op: "listen", Net: "tcp", Addr: addr, Err: ErrAddrInUse}
	}
	l := &fabricListener{
		f:    f,
		addr: addr,
		ch:   make(chan net.Conn, 16),
		done: make(chan struct{}),
	}
	f.listeners[key] = l
	return l, nil
}

func (f *Fabric) listenPacket(network, address string) (net.PacketConn, error) {
	if network != "udp" && network != "udp4" && network != "udp6" {
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
	addr, err := splitAddr("udp", address)
	if err != nil {
		return nil, err
	}
	pc, err := f.bindPacket(addr)
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return pc, nil
}

// bindPacket registers a datagram endpoint at addr, allocating an ephemeral
// port when addr.Port is 0.
func (f *Fabric) bindPacket(addr Addr) (*fabricPacketConn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if addr.Port == 0 {
		addr.Port = f.allocPortLocked()
	}
	if _, ok := f.packet[addr]; ok {
		return nil, &net.OpError{Op: "listen", Net: "udp", Addr: addr, Err: ErrAddrInUse}
	}
	pc := &fabricPacketConn{
		f:     f,
		addr:  addr,
		ready: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	f.packet[addr] = pc
	return pc, nil
}

// deliver routes a datagram to its destination endpoint, if any. Datagrams
// to absent endpoints or overflowing inboxes are dropped, as on a real
// network. d.to.Net must be "udp", the network every endpoint is keyed on.
func (f *Fabric) deliver(d datagram) {
	if f.Faults != nil {
		payload, verdict := f.Faults.Datagram(d.from, d.to, d.data)
		switch verdict {
		case VerdictDrop:
			return
		case VerdictReflect:
			d = datagram{from: d.to, to: d.from, data: payload}
		default:
			if payload != nil {
				d.data = payload
			}
		}
	}
	f.mu.Lock()
	pc := f.packet[d.to]
	f.mu.Unlock()
	if pc != nil {
		pc.enqueue(d)
	}
}

// fabricListener implements net.Listener on the fabric.
type fabricListener struct {
	f       *Fabric
	addr    Addr
	ch      chan net.Conn
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool
}

// Accept implements net.Listener.
func (l *fabricListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.addr, Err: ErrClosed}
	}
}

// Close implements net.Listener.
func (l *fabricListener) Close() error {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.f.mu.Lock()
	delete(l.f.listeners, l.addr.String())
	l.f.mu.Unlock()
	close(l.done)
	return nil
}

// Addr implements net.Listener.
func (l *fabricListener) Addr() net.Addr { return l.addr }

type datagram struct {
	from, to Addr
	data     []byte
}

// inboxLimit is how many unread datagrams an endpoint holds before deliver
// drops new ones, like a socket receive buffer. It is sized for the busiest
// endpoint, the authoritative DNS server, which answers every query on its
// one read loop, so a burst of concurrent probes' queries waits here; peaks
// measured up to 133 at the paper's 250 probes and 188 at 1000 (see
// docs/performance.md). It must be a power of two: the ring masks with it.
const inboxLimit = 1024

// fabricPacketConn implements net.PacketConn on the fabric.
type fabricPacketConn struct {
	f    *Fabric
	addr Addr
	// ready holds a wake-up token once a datagram has been queued since a
	// reader last looked; readers re-check the inbox after taking it.
	ready chan struct{}
	done  chan struct{}

	mu       sync.Mutex
	closed   bool      // guarded by mu
	deadline time.Time // guarded by mu
	// inbox is a ring of unread datagrams, oldest at inbox[head], queued
	// of them in all. Its length is zero or a power of two no larger than
	// inboxLimit.
	inbox  []datagram // guarded by mu
	head   int        // guarded by mu
	queued int        // guarded by mu
}

// enqueue appends d to the inbox, or drops it when the endpoint is closed
// or already holds inboxLimit datagrams.
func (p *fabricPacketConn) enqueue(d datagram) {
	p.mu.Lock()
	if p.closed || p.queued >= inboxLimit {
		p.mu.Unlock()
		return
	}
	if p.queued == len(p.inbox) {
		p.grow()
	}
	p.inbox[(p.head+p.queued)&(len(p.inbox)-1)] = d
	p.queued++
	p.mu.Unlock()
	p.wake()
}

// grow doubles the full inbox ring, unrolling it so the oldest datagram
// lands at index 0.
//
//spfail:locked p.mu
func (p *fabricPacketConn) grow() {
	next := make([]datagram, max(1, 2*len(p.inbox)))
	n := copy(next, p.inbox[p.head:])
	copy(next[n:], p.inbox[:p.head])
	p.inbox, p.head = next, 0
}

// pop removes and returns the oldest queued datagram; the inbox must not
// be empty.
//
//spfail:locked p.mu
func (p *fabricPacketConn) pop() datagram {
	d := p.inbox[p.head]
	p.inbox[p.head] = datagram{}
	p.head = (p.head + 1) & (len(p.inbox) - 1)
	p.queued--
	return d
}

// wake leaves a token in ready unless one is already waiting.
func (p *fabricPacketConn) wake() {
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// ReadFrom implements net.PacketConn.
func (p *fabricPacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, from, err := p.read(b)
	if err != nil {
		return 0, nil, err
	}
	return n, from, nil
}

// read returns the oldest queued datagram, waiting for one while the inbox
// is empty. The deadline is interpreted on the fabric clock's timeline: the
// remaining budget is measured against the fabric clock once, then waited
// out in wall time. Fabric datagrams are delivered in real microseconds
// regardless of virtual time, so waiting on the virtual clock instead would
// turn every virtual-time jump (politeness sleeps, window gaps) into a
// scheduling race against in-flight reads.
func (p *fabricPacketConn) read(b []byte) (int, Addr, error) {
	var budget time.Duration
	p.mu.Lock()
	if !p.deadline.IsZero() {
		if budget = p.deadline.Sub(p.f.clock().Now()); budget <= 0 {
			p.mu.Unlock()
			return 0, Addr{}, timeoutError{}
		}
	}
	var timeout <-chan time.Time
	for {
		if p.closed {
			p.mu.Unlock()
			return 0, Addr{}, &net.OpError{Op: "read", Net: "udp", Addr: p.addr, Err: ErrClosed}
		}
		if p.queued > 0 {
			d := p.pop()
			rest := p.queued
			p.mu.Unlock()
			if rest > 0 {
				p.wake() // the token this reader may have taken covered more than d
			}
			return copy(b, d.data), d.from, nil
		}
		p.mu.Unlock()
		if timeout == nil && budget > 0 {
			t := time.NewTimer(budget) //spfail:allow wallclock virtual budget waited out in wall time; see comment above
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-p.ready:
		case <-p.done:
		case <-timeout:
			return 0, Addr{}, timeoutError{}
		}
		p.mu.Lock()
	}
}

// WriteTo implements net.PacketConn.
func (p *fabricPacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return 0, &net.OpError{Op: "write", Net: "udp", Addr: p.addr, Err: ErrClosed}
	}
	to, ok := addr.(Addr)
	if !ok {
		var err error
		if to, err = splitAddr("udp", addr.String()); err != nil {
			return 0, err
		}
	}
	to.Net = "udp"
	p.f.deliver(datagram{from: p.addr, to: to, data: append([]byte(nil), b...)})
	return len(b), nil
}

// Close implements net.PacketConn.
func (p *fabricPacketConn) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	p.inbox, p.head, p.queued = nil, 0, 0
	p.f.mu.Lock()
	delete(p.f.packet, p.addr)
	p.f.mu.Unlock()
	close(p.done)
	return nil
}

// LocalAddr implements net.PacketConn.
func (p *fabricPacketConn) LocalAddr() net.Addr { return p.addr }

// SetDeadline implements net.PacketConn.
func (p *fabricPacketConn) SetDeadline(t time.Time) error { return p.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn.
func (p *fabricPacketConn) SetReadDeadline(t time.Time) error {
	p.mu.Lock()
	p.deadline = t
	p.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.PacketConn. Writes never block.
func (p *fabricPacketConn) SetWriteDeadline(time.Time) error { return nil }

// connectedPacketConn adapts a fabricPacketConn into a connected net.Conn,
// filtering inbound datagrams to the connected peer (as UDP connect does).
type connectedPacketConn struct {
	pc     *fabricPacketConn
	remote Addr
}

// Read implements net.Conn, discarding datagrams from other sources.
func (c *connectedPacketConn) Read(b []byte) (int, error) {
	for {
		n, from, err := c.pc.read(b)
		if err != nil {
			return 0, err
		}
		if from.Host == c.remote.Host && from.Port == c.remote.Port {
			return n, nil
		}
	}
}

// Write implements net.Conn.
func (c *connectedPacketConn) Write(b []byte) (int, error) {
	return c.pc.WriteTo(b, c.remote)
}

// Close implements net.Conn.
func (c *connectedPacketConn) Close() error { return c.pc.Close() }

// LocalAddr implements net.Conn.
func (c *connectedPacketConn) LocalAddr() net.Addr { return c.pc.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *connectedPacketConn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *connectedPacketConn) SetDeadline(t time.Time) error { return c.pc.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *connectedPacketConn) SetReadDeadline(t time.Time) error { return c.pc.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *connectedPacketConn) SetWriteDeadline(t time.Time) error { return c.pc.SetWriteDeadline(t) }

// timeoutError matches net.Error semantics for deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var (
	_ Network        = Real{}
	_ Network        = (*hostNetwork)(nil)
	_ net.Listener   = (*fabricListener)(nil)
	_ net.PacketConn = (*fabricPacketConn)(nil)
	_ net.Conn       = (*connectedPacketConn)(nil)
	_ net.Error      = timeoutError{}
)
