// Package dnsserver implements an authoritative DNS server that runs on any
// netsim.Network (the real Internet or the in-memory fabric). It serves
// static zones, and — central to SPFail — a dynamic test zone that
// synthesizes per-probe SPF policies and logs every inbound query so the
// detector can fingerprint how remote mail servers expand SPF macros.
package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spfail/internal/dnsmsg"
	"spfail/internal/netsim"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// MaxUDPPayload is the classic 512-byte UDP response limit (RFC 1035
// §4.2.1); larger responses are truncated with TC=1 to force TCP retry.
const MaxUDPPayload = 512

// Handler answers DNS queries. Implementations must be safe for concurrent
// use: on the fabric every UDP query is answered on its sender's goroutine.
type Handler interface {
	// ServeDNS produces a response for the query. from identifies the
	// client (used for query logging and attribution). A nil return is
	// answered with SERVFAIL.
	//
	// Each answer decodes q into a dnsmsg.Decoder of its own, which a
	// later answer reuses, and encodes the response before it lets the
	// Decoder go, so the response may share q's memory, but nothing may
	// keep q or any part of it (a question's Name, say) once ServeDNS
	// returns; clone what you keep.
	ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message
}

// WireHandler is implemented by handlers that can answer a plain query
// straight from its wire form, with no decode and no Message. ServeWire
// appends the complete response to dst, starting at len(dst) (its
// compression pointers count from there), and reports whether it
// answered; ok == false leaves dst as it was, and the server decodes the
// query and calls ServeDNS instead. from identifies the client, as for
// ServeDNS, and wq.NameWire aliases the query packet: neither may be
// kept.
type WireHandler interface {
	ServeWire(dst []byte, wq dnsmsg.WireQuery, from net.Addr) ([]byte, bool)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message {
	return f(q, from)
}

// Server serves DNS over UDP and TCP.
type Server struct {
	Net     netsim.Network
	Addr    string // "ip:port", typically ":53"
	Handler Handler
	// Metrics, when non-nil, receives query/error/qtype counters
	// (see docs/telemetry.md). Set before Start.
	Metrics *telemetry.Registry
	// Trace, when non-nil, records per-query events on the span of the
	// probe that owns the querying host (host-routed; see internal/trace).
	// Set before Start.
	Trace *trace.Tracer

	mu      sync.Mutex
	pc      net.PacketConn
	l       net.Listener
	wg      sync.WaitGroup
	run     bool
	unwatch func() bool // guarded by mu; deregisters Start's context.AfterFunc

	// queries and qtypes are the per-query counters (countQuery), looked
	// up in Metrics on first use and kept.
	queries atomic.Pointer[telemetry.Counter]
	qtypes  [len(countedQtypes)]atomic.Pointer[telemetry.Counter]
}

// Start begins serving on both transports. It returns once listeners are
// bound; serving continues until Stop or ctx cancellation. A fabric UDP
// endpoint answers each query on the goroutine that sent it
// (netsim.Respond); an OS socket gets a read loop.
func (s *Server) Start(ctx context.Context) error {
	pc, err := s.Net.ListenPacket("udp", s.Addr)
	if err != nil {
		return err
	}
	l, err := s.Net.Listen("tcp", s.Addr)
	if err != nil {
		_ = pc.Close()
		return err
	}
	loop := !netsim.Respond(pc, func(pkt []byte, from net.Addr) { s.answerInline(pc, pkt, from) })
	// Add before the lock: a Stop fired by an already-cancelled ctx waits
	// only after Start releases mu.
	s.wg.Add(1)
	if loop {
		s.wg.Add(1)
	}
	s.mu.Lock()
	s.pc, s.l, s.run = pc, l, true
	if ctx != nil {
		s.unwatch = context.AfterFunc(ctx, s.Stop)
	}
	s.mu.Unlock()
	if loop {
		go s.serveUDP(pc)
	}
	go s.serveTCP(l)
	return nil
}

// Stop closes the listeners and waits for in-flight handlers: closing a
// fabric endpoint waits out the answers running on their senders'
// goroutines, and no answer starts after it. Stop also deregisters
// Start's ctx watcher, so a stopped server holds no goroutine and ctx
// keeps no reference to it.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.run {
		s.mu.Unlock()
		return
	}
	s.run = false
	pc, l, unwatch := s.pc, s.l, s.unwatch
	s.unwatch = nil
	s.mu.Unlock()
	if unwatch != nil {
		unwatch()
	}
	_ = pc.Close()
	_ = l.Close()
	s.wg.Wait()
}

// serveUDP reads an OS socket's datagrams and answers each in turn with
// one Decoder and one response buffer: while a query is served the next
// ones wait in the socket's receive queue.
func (s *Server) serveUDP(pc net.PacketConn) {
	defer s.wg.Done()
	d := dnsmsg.NewDecoder()
	buf := make([]byte, 64<<10)
	out := make([]byte, 0, MaxUDPPayload)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		out = s.answer(d, pc, out, buf[:n], from)
	}
}

// answerBufPool recycles the response buffers of the answers that run on
// fabric senders' goroutines.
var answerBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, MaxUDPPayload)
	return &b
}}

// answerInline answers a fabric datagram on its sender's goroutine with a
// pooled Decoder and a pooled response buffer, so concurrent answers never
// share either.
func (s *Server) answerInline(pc net.PacketConn, pkt []byte, from net.Addr) {
	d := dnsmsg.GetDecoder()
	outp := answerBufPool.Get().(*[]byte)
	s.answer(d, pc, (*outp)[:0], pkt, from)
	answerBufPool.Put(outp)
	dnsmsg.PutDecoder(d)
}

// answer answers the query pkt from from and writes the response to pc:
// on the wire path (ServeQuery) when the handler answers there, else
// decoded with d through appendUDPResponse. A response over
// MaxUDPPayload, from either path, is cut to its header and question with
// TC set (truncate), telling the client to retry over TCP. The response
// is built in out's backing array, which answer returns for the next
// answer; WriteTo copies it, so it is free again at once.
func (s *Server) answer(d *dnsmsg.Decoder, pc net.PacketConn, out, pkt []byte, from net.Addr) []byte {
	out, ok := s.ServeQuery(out[:0], pkt, from)
	if !ok {
		if out, ok = s.appendUDPResponse(out[:0], d, pkt, from); !ok {
			return out
		}
	}
	if len(out) > MaxUDPPayload {
		s.Metrics.Counter("dns.server.truncated").Inc()
		out = truncate(out)
	}
	_, _ = pc.WriteTo(out, from)
	return out
}

// appendUDPResponse decodes pkt with d, dispatches it and appends the
// encoded response to dst. ok is false when there is nothing to send.
func (s *Server) appendUDPResponse(dst []byte, d *dnsmsg.Decoder, pkt []byte, from net.Addr) (out []byte, ok bool) {
	resp := s.respond(d, pkt, from)
	if resp == nil {
		return dst, false
	}
	out, err := resp.Append(dst)
	if err != nil {
		return dst, false
	}
	return out, true
}

// truncate cuts msg, a response this server encoded, to its header and
// question section, sets TC and zeroes the answer, authority and
// additional counts. The questions come first in an encoded message, so
// the cut leaves exactly the bytes that encoding the header and questions
// alone would write.
func truncate(msg []byte) []byte {
	off := 12
	for i := binary.BigEndian.Uint16(msg[4:]); i > 0; i-- {
		for msg[off] != 0 && msg[off]&0xC0 != 0xC0 {
			off += 1 + int(msg[off])
		}
		if msg[off] == 0 {
			off++
		} else {
			off += 2 // a pointer ends the name
		}
		off += 4 // type, class
	}
	msg[2] |= 0x02 // TC
	clear(msg[6:12])
	return msg[:off]
}

// ServeQuery is the server's wire path: if pkt is a plain query (one
// question, no other sections, uncompressed qname) and the handler is a
// WireHandler that answers it, the response is appended to dst without
// decoding the query or building a Message. It counts and traces the
// query as the decode path does. ok == false means the caller must take
// the decode/dispatch/encode path. ServeQuery does not truncate: answer
// applies the UDP size rule to both paths.
//
//spfail:hotpath
func (s *Server) ServeQuery(dst []byte, pkt []byte, from net.Addr) ([]byte, bool) {
	wq, ok := dnsmsg.ParseWireQuery(pkt)
	if !ok {
		return dst, false
	}
	wh, ok := s.Handler.(WireHandler)
	if !ok {
		return dst, false
	}
	out, ok := wh.ServeWire(dst, wq, from)
	if !ok {
		return dst, false
	}
	s.countQuery(wq.Type)
	rcode := dnsmsg.RCode(out[len(dst)+3] & 0xF)
	if rcode == dnsmsg.RCodeServFail {
		s.Metrics.Counter("dns.server.servfail").Inc()
	}
	// The qname is decoded from the wire only on traced queries, so the
	// untraced wire path stays allocation-free.
	if s.Trace != nil {
		if sp := s.Trace.HostSpan(clientHost(from)); sp != nil {
			qname := ""
			if name, _, err := dnsmsg.ReadWireName(wq.NameWire); err == nil {
				qname = name.String()
			}
			sp.Event("dns.server.query",
				trace.String("name", qname),
				trace.String("type", wq.Type.String()),
				trace.String("rcode", rcode.String()),
			)
		}
	}
	return out, true
}

// countedQtypes are the query types the probing stack asks, with their
// dns.server.qtype.<TYPE> counter names; each has a slot in Server.qtypes.
var countedQtypes = [...]struct {
	t    dnsmsg.Type
	name string
}{
	{dnsmsg.TypeA, "dns.server.qtype.A"},
	{dnsmsg.TypeAAAA, "dns.server.qtype.AAAA"},
	{dnsmsg.TypeMX, "dns.server.qtype.MX"},
	{dnsmsg.TypeTXT, "dns.server.qtype.TXT"},
	{dnsmsg.TypeNS, "dns.server.qtype.NS"},
	{dnsmsg.TypeSOA, "dns.server.qtype.SOA"},
	{dnsmsg.TypePTR, "dns.server.qtype.PTR"},
	{dnsmsg.TypeCNAME, "dns.server.qtype.CNAME"},
	{dnsmsg.TypeANY, "dns.server.qtype.ANY"},
}

// countQuery counts one query of type t in dns.server.queries and its
// qtype counter. Each counter is looked up in Metrics on first use and
// kept, so a query takes no registry lock; a type outside countedQtypes
// has its counter looked up by name each time.
func (s *Server) countQuery(t dnsmsg.Type) {
	if s.Metrics == nil {
		return
	}
	q := s.queries.Load()
	if q == nil {
		q = s.Metrics.Counter("dns.server.queries")
		s.queries.Store(q)
	}
	q.Inc()
	for i := range countedQtypes {
		if countedQtypes[i].t != t {
			continue
		}
		c := s.qtypes[i].Load()
		if c == nil {
			//spfail:allow metricnames countedQtypes holds only constants from the documented dns.server.qtype.<TYPE> family
			c = s.Metrics.Counter(countedQtypes[i].name)
			s.qtypes[i].Store(c)
		}
		c.Inc()
		return
	}
	s.Metrics.Counter("dns.server.qtype." + t.String()).Inc()
}

// serveTCP serves each connection on its own goroutine, which answers on
// the wire path when the handler does, else decodes with one pooled
// Decoder, and frames every reply in one buffer.
func (s *Server) serveTCP(l net.Listener) {
	defer s.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func(c net.Conn) {
			defer s.wg.Done()
			defer c.Close()
			d := dnsmsg.GetDecoder()
			defer dnsmsg.PutDecoder(d)
			var in, out []byte
			for {
				var err error
				if in, err = ReadTCPMessage(c, in); err != nil {
					return
				}
				if out, err = s.appendTCPResponse(out[:0], d, in, c.RemoteAddr()); err != nil {
					return
				}
				if _, err := c.Write(out); err != nil {
					return
				}
			}
		}(c)
	}
}

// appendTCPResponse answers pkt and appends the response to dst behind
// its two-byte length prefix: from the wire path when the handler answers
// there, else decoded with d. An error means there is nothing to send.
func (s *Server) appendTCPResponse(dst []byte, d *dnsmsg.Decoder, pkt []byte, from net.Addr) ([]byte, error) {
	framed, ok := s.ServeQuery(append(dst, 0, 0), pkt, from)
	if !ok {
		resp := s.respond(d, pkt, from)
		if resp == nil {
			return nil, errors.New("dnsserver: no response")
		}
		return AppendTCPMessage(dst, resp)
	}
	n := len(framed) - len(dst) - 2
	if n > 0xFFFF {
		return nil, fmt.Errorf("dnsserver: message of %d bytes exceeds the TCP length prefix", n)
	}
	binary.BigEndian.PutUint16(framed[len(dst):], uint16(n))
	return framed, nil
}

// respond decodes pkt with d and dispatches it. The response may share the
// decoded query's memory, so it must be encoded before d decodes again.
func (s *Server) respond(d *dnsmsg.Decoder, pkt []byte, from net.Addr) *dnsmsg.Message {
	q, err := d.Decode(pkt)
	if err != nil || q.Header.Response || len(q.Questions) == 0 {
		s.Metrics.Counter("dns.server.decode_errors").Inc()
		return nil
	}
	if q.Header.OpCode != dnsmsg.OpCodeQuery {
		r := q.Reply()
		r.Header.RCode = dnsmsg.RCodeNotImp
		return r
	}
	s.countQuery(q.Questions[0].Type)
	resp := s.Handler.ServeDNS(q, from)
	if resp == nil {
		resp = q.Reply()
		resp.Header.RCode = dnsmsg.RCodeServFail
	}
	if resp.Header.RCode == dnsmsg.RCodeServFail {
		s.Metrics.Counter("dns.server.servfail").Inc()
	}
	if s.Trace != nil {
		if sp := s.Trace.HostSpan(clientHost(from)); sp != nil {
			sp.Event("dns.server.query",
				trace.String("name", q.Questions[0].Name.String()),
				trace.String("type", q.Questions[0].Type.String()),
				trace.String("rcode", resp.Header.RCode.String()),
			)
		}
	}
	return resp
}

// clientHost strips the port from a client address for host-routed trace
// attribution. Only called when tracing is enabled.
func clientHost(from net.Addr) string {
	host, _, err := net.SplitHostPort(from.String())
	if err != nil {
		return from.String()
	}
	return host
}

// ReadTCPMessage reads one length-prefixed DNS message (RFC 1035 §4.2.2)
// into buf's backing array, growing it when the message does not fit, and
// returns the message.
func ReadTCPMessage(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 2)[:2]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(buf))
	if n == 0 {
		return nil, errors.New("dnsserver: zero-length TCP message")
	}
	buf = slices.Grow(buf[:0], n)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendTCPMessage appends m to dst behind its two-byte length prefix
// (RFC 1035 §4.2.2). The message is encoded as a slice of its own, so name
// compression works as in a datagram, and the result minus its first two
// bytes is the same message ready for UDP.
func AppendTCPMessage(dst []byte, m *dnsmsg.Message) ([]byte, error) {
	at := len(dst)
	dst = append(dst, 0, 0)
	body, err := m.Append(dst[len(dst):])
	if err != nil {
		return nil, err
	}
	if len(body) > 0xFFFF {
		return nil, fmt.Errorf("dnsserver: message of %d bytes exceeds the TCP length prefix", len(body))
	}
	// When Append had room, body already sits in place and this copies
	// it onto itself.
	dst = append(dst, body...)
	binary.BigEndian.PutUint16(dst[at:], uint16(len(body)))
	return dst, nil
}

// QueryEvent is one observed query, the raw material of SPFail detection.
type QueryEvent struct {
	Time time.Time
	From string // client "ip:port"
	Name dnsmsg.Name
	Type dnsmsg.Type
}

// Sink receives query events as they arrive. An event's Name is the
// sink's to keep: LoggingHandler clones it from the decoded query.
type Sink interface {
	Observe(ev QueryEvent)
}

// QueryLog is a thread-safe append-only log of observed queries with
// optional fan-out to sinks.
type QueryLog struct {
	mu     sync.Mutex
	events []QueryEvent
	sinks  []Sink
}

// Observe implements Sink so logs can be chained.
func (l *QueryLog) Observe(ev QueryEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	sinks := l.sinks
	l.mu.Unlock()
	for _, s := range sinks {
		s.Observe(ev)
	}
}

// AddSink registers an additional receiver for future events.
func (l *QueryLog) AddSink(s Sink) {
	l.mu.Lock()
	l.sinks = append(l.sinks, s)
	l.mu.Unlock()
}

// Snapshot returns a copy of all events observed so far.
func (l *QueryLog) Snapshot() []QueryEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]QueryEvent(nil), l.events...)
}

// Len returns the number of events observed.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Reset discards all recorded events (sinks are kept).
func (l *QueryLog) Reset() {
	l.mu.Lock()
	l.events = nil
	l.mu.Unlock()
}
