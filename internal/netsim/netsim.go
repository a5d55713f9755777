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
// doubles with the traffic it actually holds, so an endpoint that receives
// one reply at a time pays for one datagram, not for the bound, and a busy
// server pops its oldest datagram in constant time. Readers wait on one
// condition variable over the endpoint's mutex; there are no channels. An
// endpoint with a responder (Respond) queues nothing: each datagram is
// answered on the goroutine that sent it.
//
// A fabric TCP connection to a listener that Serve attached a session
// factory to runs its server side on the dialer's goroutine: the dial
// opens the Session and buffers its greeting, each Write hands its bytes
// to the session's Input and buffers the replies, and Read returns them.
// There is no accept queue, no goroutine and no stream per connection,
// and the conn's error values are a stream's. Serve declines on a fabric
// whose fault injector drops datagrams, where a session keeps a goroutine
// of its own so that its client can give up on it. Any other fabric TCP
// connection is a stream, one struct: both stream ends and the one lock
// they share. It keeps net.Pipe's synchronous semantics and error values,
// so a Write lends its slice and returns once the peer has read all of it.
// Each end waits on its own condition variable over that lock.
//
// Both kinds keep deadlines the same way (deadlineTimer): one wall-clock
// timer per UDP endpoint and one per TCP connection, armed only when an
// operation is about to wait with a deadline set. The timer only ever
// moves earlier: an operation it wakes early re-arms it for that
// operation's own, later deadline, and Close stops it. A closed endpoint
// or connection therefore holds no timer, and its memory goes with it.
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
	// Delay tarpits the dial for this long before it proceeds. The dial
	// sleeps on the timeline its context carries (clock.NewContext), so a
	// campaign probe's tarpit lands on that probe's own timeline; a dial
	// whose context carries none sleeps on the fabric clock.
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
	// payload may be the sender's own buffer: read it during the call, and
	// return new bytes rather than change it.
	Datagram(from, to Addr, payload []byte) ([]byte, DatagramVerdict)
	// DropsDatagrams reports whether Datagram can ever drop a datagram.
	// On a fabric whose injector can, Serve declines: a server session
	// there can wait out a lost DNS answer in wall time.
	DropsDatagrams() bool
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
		if err := clock.FromContext(ctx, f.clock()).Sleep(ctx, fault.Delay); err != nil {
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := l.connect(ctx, laddr)
	if err != nil {
		return nil, err
	}
	if fault.ResetAfter > 0 {
		conn = &resetConn{Conn: conn, remaining: fault.ResetAfter, raddr: raddr}
	}
	return conn, nil
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
	l := &fabricListener{f: f, addr: addr}
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
	pc := &fabricPacketConn{f: f, addr: addr, box: addr}
	pc.cond.L = &pc.mu
	f.packet[addr] = pc
	return pc, nil
}

// deliver routes a datagram to its destination endpoint, if any, on the
// sender's goroutine. The fault injector's verdict comes first; then an
// endpoint with a responder answers at once, and any other endpoint
// queues the datagram. Datagrams to absent endpoints or overflowing
// inboxes are dropped, as on a real network. d.to.Net must be "udp", the
// network every endpoint is keyed on. d.data may be the sender's own
// buffer: an inbox keeps a copy, and a responder must not keep it.
func (f *Fabric) deliver(d datagram) {
	if f.Faults != nil {
		payload, verdict := f.Faults.Datagram(d.from, d.to, d.data)
		switch verdict {
		case VerdictDrop:
			return
		case VerdictReflect:
			d = datagram{from: d.to, sender: d.to, to: d.from, data: payload}
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
		pc.receive(d)
	}
}

// Respond makes fn the responder of pc and reports whether pc is a fabric
// UDP endpoint; an OS socket is left alone and needs a read loop. A
// responder answers each datagram on the goroutine that sent it, after the
// fault injector's verdict, instead of queueing it for ReadFrom, and
// datagrams already queued are handed to fn before Respond returns. fn
// gets the datagram's bytes and its sender; it must not keep b once it
// returns, and it must be safe for concurrent use, as every sender calls
// it. A reply it writes to from reaches the sender's inbox before the
// sender's write returns. Close waits for the calls in flight, and
// datagrams after it are dropped, so fn must not close pc itself.
func Respond(pc net.PacketConn, fn func(b []byte, from net.Addr)) bool {
	p, ok := pc.(*fabricPacketConn)
	if !ok {
		return false
	}
	p.mu.Lock()
	p.respond = fn
	var queued []datagram
	for p.queued > 0 {
		queued = append(queued, p.pop())
	}
	p.calls.Add(len(queued))
	p.mu.Unlock()
	for _, d := range queued {
		fn(d.data, d.sender)
		p.calls.Done()
	}
	return true
}

// fabricListener implements net.Listener on the fabric. A listener that
// Serve attached a session factory to serves each dial itself (servedConn);
// any other hands each dial a stream through an accept queue, made by the
// first Accept or dial that needs it.
type fabricListener struct {
	f    *Fabric
	addr Addr

	mu     sync.Mutex
	closed bool                   // guarded by mu
	open   func(net.Addr) Session // set by Serve; guarded by mu
	ch     chan net.Conn          // the accept queue; guarded by mu
	done   chan struct{}          // made with ch, closed by Close; guarded by mu
	calls  sync.WaitGroup         // Input and Abort calls in flight on served conns
}

// queue returns the accept queue and the channel Close closes, making
// both on first use.
//
//spfail:locked l.mu
func (l *fabricListener) queue() (chan net.Conn, chan struct{}) {
	if l.ch == nil {
		l.ch = make(chan net.Conn, 16)
		l.done = make(chan struct{})
		if l.closed {
			close(l.done)
		}
	}
	return l.ch, l.done
}

// enter counts one call into a served session, unless the listener has
// closed, so Close can wait the calls out.
func (l *fabricListener) enter() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.calls.Add(1)
	return true
}

// connect connects a dial from laddr to the listener: to a session of its
// own when the listener serves, else to a stream queued for Accept.
func (l *fabricListener) connect(ctx context.Context, laddr Addr) (net.Conn, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, l.refused()
	}
	if open := l.open; open != nil {
		l.calls.Add(1)
		l.mu.Unlock()
		defer l.calls.Done()
		return l.serve(open, laddr), nil
	}
	ch, done := l.queue()
	l.mu.Unlock()
	cli, srv := newStream(l.f.clock(), laddr, l.addr)
	select {
	case ch <- srv:
		return cli, nil
	case <-done:
		_ = cli.Close()
		_ = srv.Close()
		return nil, l.refused()
	case <-ctx.Done():
		_ = cli.Close()
		_ = srv.Close()
		return nil, ctx.Err()
	}
}

// refused is the error of a dial the listener refuses.
func (l *fabricListener) refused() error {
	return &net.OpError{Op: "dial", Net: "tcp", Addr: l.addr, Err: ErrRefused}
}

// Accept implements net.Listener.
func (l *fabricListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	ch, done := l.queue()
	l.mu.Unlock()
	select {
	case c := <-ch:
		return c, nil
	case <-done:
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.addr, Err: ErrClosed}
	}
}

// Close implements net.Listener. It refuses later dials, and Writes to the
// conns it served, and returns once no Input or Abort call runs.
func (l *fabricListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.f.mu.Lock()
	delete(l.f.listeners, l.addr.String())
	l.f.mu.Unlock()
	if l.done != nil {
		close(l.done)
	}
	l.mu.Unlock()
	l.calls.Wait()
	return nil
}

// Addr implements net.Listener.
func (l *fabricListener) Addr() net.Addr { return l.addr }

type datagram struct {
	from, to Addr
	// sender is from boxed as a net.Addr for ReadFrom to return: the
	// sending endpoint's own box, so no datagram boxes its sender anew.
	sender net.Addr
	data   []byte
}

// inboxLimit is how many unread datagrams an endpoint holds before deliver
// drops new ones, like a socket receive buffer. An endpoint with a
// responder queues nothing, and a client endpoint holds one reply at a
// time; the bound is for an endpoint that a server reads in a loop, whose
// backlog is a burst of concurrent probes' queries. When the DNS server
// answered from such a loop its backlog peaked at 133 at the paper's 250
// probes and 188 at 1000 (see docs/performance.md). It must be a power of
// two: the ring masks with it.
const inboxLimit = 1024

// fabricPacketConn implements net.PacketConn on the fabric.
type fabricPacketConn struct {
	f    *Fabric
	addr Addr
	// box is addr boxed once, at bind, as a net.Addr: LocalAddr returns it
	// and every datagram the endpoint sends carries it.
	box net.Addr

	mu sync.Mutex
	// cond, on mu, is signalled once for each datagram queued and
	// broadcast when the endpoint closes or its deadline timer fires.
	cond     sync.Cond
	closed   bool          // guarded by mu
	deadline time.Time     // on the fabric clock, zero for none; guarded by mu
	timer    deadlineTimer // guarded by mu
	// inbox is a ring of unread datagrams, oldest at inbox[head], queued
	// of them in all. Its length is zero or a power of two no larger than
	// inboxLimit.
	inbox  []datagram // guarded by mu
	head   int        // guarded by mu
	queued int        // guarded by mu
	// spare is a buffer a read has copied a datagram out of, which the
	// next receive copies a datagram into, so an endpoint that reads each
	// datagram before the next arrives, as a DNS client's kept socket
	// does, copies into one buffer over and over.
	spare []byte // guarded by mu
	// respond, when set (Respond), answers each datagram in place of the
	// inbox. calls counts its calls in flight; one is added only while
	// the endpoint is open, so Close can wait them out.
	respond func(b []byte, from net.Addr) // guarded by mu
	calls   sync.WaitGroup
}

// receive hands d to the endpoint's responder, or appends a copy of it to
// the inbox, made in the endpoint's spare buffer when it has one. It drops
// d when the endpoint is closed or its inbox already holds inboxLimit
// datagrams. A queued datagram wakes one waiting reader:
// a woken reader takes a queued datagram before it looks at its deadline,
// so the datagram is never left behind while a reader waits.
func (p *fabricPacketConn) receive(d datagram) {
	p.mu.Lock()
	if fn := p.respond; fn != nil && !p.closed {
		p.calls.Add(1)
		p.mu.Unlock()
		defer p.calls.Done()
		fn(d.data, d.sender)
		return
	}
	if p.closed || p.queued >= inboxLimit {
		p.mu.Unlock()
		return
	}
	if p.queued == len(p.inbox) {
		p.grow()
	}
	d.data = append(p.spare[:0], d.data...)
	p.spare = nil
	p.inbox[(p.head+p.queued)&(len(p.inbox)-1)] = d
	p.queued++
	p.mu.Unlock()
	p.cond.Signal()
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

// ReadFrom implements net.PacketConn. The sender address it returns is
// the sending endpoint's box, shared by every datagram that endpoint sends.
func (p *fabricPacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, d, err := p.read(b)
	if err != nil {
		return 0, nil, err
	}
	return n, d.sender, nil
}

// read copies the oldest queued datagram into b and returns it without
// its bytes, which become the endpoint's spare buffer, waiting for one
// while the inbox is empty. The deadline is interpreted on the
// fabric clock's timeline: the remaining budget is measured against the
// fabric clock once, when the read starts, then waited out in wall time on
// the endpoint's deadline timer. Fabric datagrams are delivered in real
// microseconds regardless of virtual time, so waiting on the virtual clock
// instead would turn every virtual-time jump (politeness sleeps, window
// gaps) into a scheduling race against in-flight reads.
func (p *fabricPacketConn) read(b []byte) (int, datagram, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var at time.Time
	if !p.deadline.IsZero() {
		budget := p.deadline.Sub(p.f.clock().Now())
		if budget <= 0 {
			return 0, datagram{}, timeoutError{}
		}
		at = time.Now().Add(budget) //spfail:allow wallclock virtual budget waited out in wall time; see comment above
	}
	for {
		switch {
		case p.closed:
			return 0, datagram{}, &net.OpError{Op: "read", Net: "udp", Addr: p.addr, Err: ErrClosed}
		case p.queued > 0:
			d := p.pop()
			n := copy(b, d.data)
			p.spare, d.data = d.data, nil
			return n, d, nil
		case passed(at):
			return 0, datagram{}, timeoutError{}
		}
		p.timer.arm(at, p)
		p.cond.Wait()
	}
}

// fire runs when the endpoint's deadline timer goes off. It wakes every
// waiting reader; each checks its own deadline, and one whose deadline
// lies later re-arms the timer before it waits again.
func (p *fabricPacketConn) fire() {
	p.mu.Lock()
	p.timer.fired()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// WriteTo implements net.PacketConn.
func (p *fabricPacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	to, ok := addr.(Addr)
	if !ok {
		var err error
		if to, err = splitAddr("udp", addr.String()); err != nil {
			return 0, err
		}
	}
	return p.writeTo(b, to)
}

// writeTo sends b to the endpoint at to, if one is bound. It holds no lock
// while deliver runs, so the destination's responder may write back to
// this endpoint.
func (p *fabricPacketConn) writeTo(b []byte, to Addr) (int, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return 0, &net.OpError{Op: "write", Net: "udp", Addr: p.addr, Err: ErrClosed}
	}
	to.Net = "udp"
	p.f.deliver(datagram{from: p.addr, sender: p.box, to: to, data: b})
	return len(b), nil
}

// Close implements net.PacketConn. It wakes every waiting reader and stops
// the deadline timer, so nothing keeps a closed endpoint reachable, and
// returns once no responder call is running.
func (p *fabricPacketConn) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.inbox, p.head, p.queued, p.spare = nil, 0, 0, nil
		p.timer.stop()
		p.f.mu.Lock()
		delete(p.f.packet, p.addr)
		p.f.mu.Unlock()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	p.calls.Wait()
	return nil
}

// LocalAddr implements net.PacketConn.
func (p *fabricPacketConn) LocalAddr() net.Addr { return p.box }

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
		n, d, err := c.pc.read(b)
		if err != nil {
			return 0, err
		}
		if d.from.Host == c.remote.Host && d.from.Port == c.remote.Port {
			return n, nil
		}
	}
}

// Write implements net.Conn.
func (c *connectedPacketConn) Write(b []byte) (int, error) {
	return c.pc.writeTo(b, c.remote)
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
