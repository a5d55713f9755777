// Package dnsclient implements a stub resolver over UDP with TCP fallback.
// It is the resolver used by simulated mail hosts for SPF validation and by
// the prober for MX resolution, and it satisfies the SPF engine's Resolver
// contract with the RFC 7208 error taxonomy (NXDOMAIN is "no data", SERVFAIL
// and timeouts are temporary errors).
package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
	"spfail/internal/retry"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// Error taxonomy mapped from response codes and transport failures.
var (
	// ErrNotFound corresponds to NXDOMAIN: the name does not exist.
	ErrNotFound = errors.New("dnsclient: no such domain")
	// ErrTemporary corresponds to SERVFAIL, timeouts, and transport
	// errors: the lookup may succeed later.
	ErrTemporary = errors.New("dnsclient: temporary resolution failure")
)

// Client performs DNS transactions against a single server.
//
// A Client keeps the UDP sockets its exchanges finish with, answered or
// timed out, in an idle list; each exchange takes one from the list, or
// dials one when the list is empty, so concurrent exchanges each hold
// their own socket and sequential ones share one. A socket that failed any
// other way is closed, and TCP connections are never kept. Responses are
// still matched by ID and question, so a late answer to an earlier
// exchange, left in a reused socket, is skipped. On the real network this
// means a Client keeps its OS socket, and so its source port, across
// lookups; matching is unchanged.
//
// Close closes the idle sockets. Whoever builds a long-lived Client closes
// it when done: mta.Host.Stop does for its host's resolver, and
// measure.Rig.Close for the probe-side one.
type Client struct {
	// Net supplies connectivity; required.
	Net netsim.Network
	// Server is the resolver/authoritative address, e.g. "192.0.2.53:53".
	Server string
	// Timeout bounds each transaction attempt. Defaults to 2s.
	Timeout time.Duration
	// Retry, when enabled (MaxAttempts > 1), replaces the default of one
	// immediate retransmit: attempts are bounded by the policy and
	// separated by its jittered backoff slept on Clk. A shared simulated
	// clock has one sleeper, the study driver, so leave it zero on
	// resolvers that other goroutines drive (e.g. MTA hosts): their
	// backoffs would move the shared timeline by an amount that depends
	// on scheduling.
	Retry retry.Policy
	// Metrics, when non-nil, receives lookup/retry/latency metrics
	// (see docs/telemetry.md).
	Metrics *telemetry.Registry
	// Clk supplies time for deadlines and latency accounting. Defaults
	// to the real clock.
	Clk clock.Clock

	mu     sync.Mutex
	nextID uint16     // guarded by mu
	idle   []net.Conn // UDP sockets no exchange holds; guarded by mu
	closed bool       // set by Close; guarded by mu
}

func (c *Client) clock() clock.Clock {
	if c.Clk != nil {
		return c.Clk
	}
	return clock.Real{}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 2 * time.Second
}

func (c *Client) id() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// udpBufPool recycles the buffers UDP responses are read into. The client
// sends no EDNS, so a response it can accept is at most MaxUDPPayload
// bytes (RFC 1035 §4.2.1); the one byte over tells a datagram that filled
// the buffer, and so was longer, from one that fits.
var udpBufPool = sync.Pool{New: func() any {
	b := make([]byte, dnsserver.MaxUDPPayload+1)
	return &b
}}

// tcpBufPool recycles the 64 KiB buffers TCP responses are read into, the
// most a two-byte length prefix can announce.
var tcpBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// queryBufPool recycles the buffers a lookup packs its query into, once:
// the TCP frame, whose bytes after the two-byte length prefix are the UDP
// datagram, serves every attempt on either transport. A query is at most
// 12 + 255 + 4 bytes, so a buffer never grows.
var queryBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2+dnsserver.MaxUDPPayload)
	return &b
}}

// socket takes an idle UDP socket, or dials one when none is idle.
func (c *Client) socket(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	return c.Net.DialContext(ctx, "udp", c.Server)
}

// release returns conn to the idle list, or closes it once c is closed.
func (c *Client) release(conn net.Conn) {
	c.mu.Lock()
	if !c.closed {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	_ = conn.Close()
}

// Close closes the idle UDP sockets and makes every socket an exchange
// returns later close at once. It returns the first error a close met.
// Lookups still work after Close, each on a socket of its own.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	var first error
	for _, conn := range idle {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Query sends one query and returns the validated response, implementing
// Querier over the wire (UDP with TCP fallback on truncation).
func (c *Client) Query(ctx context.Context, name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error) {
	c.Metrics.Counter("dns.client.lookups").Inc()
	start := c.clock().Now()
	ctx, qsp := trace.StartSpan(ctx, "dns.query")
	if qsp != nil {
		qsp.SetAttrs(trace.String("name", name.String()), trace.String("type", typ.String()))
	}
	q := dnsmsg.NewQuery(c.id(), name, typ)
	attempts := 2
	if c.Retry.Enabled() {
		attempts = c.Retry.MaxAttempts
	}
	bufp := queryBufPool.Get().(*[]byte)
	defer queryBufPool.Put(bufp)
	// A query that cannot be encoded fails without an attempt.
	frame, lastErr := dnsserver.AppendTCPMessage((*bufp)[:0], q)
	if lastErr != nil {
		attempts = 0
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.Metrics.Counter("dns.client.retries").Inc()
			if qsp != nil {
				qsp.Event("dns.client.retry", trace.Int("attempt", i))
			}
			if c.Retry.Enabled() {
				if err := c.Retry.Wait(ctx, c.clock(), c.Server, i); err != nil {
					if lastErr == nil {
						lastErr = err
					}
					break
				}
			}
		}
		resp, err := c.exchangeUDP(ctx, q, frame[2:])
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.Truncated {
			c.Metrics.Counter("dns.client.tcp_fallbacks").Inc()
			if qsp != nil {
				qsp.Event("dns.client.tcp_fallback")
			}
			resp, err = c.exchangeTCP(ctx, q, frame)
			if err != nil {
				lastErr = err
				continue
			}
		}
		c.Metrics.Histogram("dns.client.latency").Record(c.clock().Now().Sub(start))
		if qsp != nil {
			qsp.SetAttrs(
				trace.String("rcode", resp.Header.RCode.String()),
				trace.Int("answers", len(resp.Answers)),
			)
			qsp.End()
		}
		return resp, nil
	}
	c.Metrics.Counter("dns.client.failures").Inc()
	if qsp != nil {
		if lastErr != nil {
			qsp.SetAttrs(trace.String("error", lastErr.Error()))
		}
		qsp.End()
	}
	return nil, fmt.Errorf("%w: %v", ErrTemporary, lastErr)
}

// exchangeUDP sends pkt, the packed q, on a socket from the idle list and
// waits for the matching response. The socket goes back to the list when
// the exchange is answered or times out; any other failure closes it.
func (c *Client) exchangeUDP(ctx context.Context, q *dnsmsg.Message, pkt []byte) (*dnsmsg.Message, error) {
	conn, err := c.socket(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, conn, q, pkt)
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		c.release(conn)
	} else {
		_ = conn.Close()
	}
	return resp, err
}

// roundTrip writes pkt to conn and reads until the response to q arrives,
// skipping datagrams that answer anything else.
func (c *Client) roundTrip(ctx context.Context, conn net.Conn, q *dnsmsg.Message, pkt []byte) (*dnsmsg.Message, error) {
	deadline := c.clock().Now().Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(pkt); err != nil {
		return nil, err
	}
	bufp := udpBufPool.Get().(*[]byte)
	defer udpBufPool.Put(bufp)
	buf := *bufp
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		if n == len(buf) {
			continue // longer than any answer to this query may be; keep waiting
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			continue // garbage datagram; keep waiting
		}
		if c.matches(q, resp) {
			return resp, nil
		}
	}
}

// exchangeTCP sends frame, q behind its length prefix, over a fresh
// connection and reads the response.
func (c *Client) exchangeTCP(ctx context.Context, q *dnsmsg.Message, frame []byte) (*dnsmsg.Message, error) {
	conn, err := c.Net.DialContext(ctx, "tcp", c.Server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := c.clock().Now().Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	bufp := tcpBufPool.Get().(*[]byte)
	defer tcpBufPool.Put(bufp)
	raw, err := dnsserver.ReadTCPMessage(conn, *bufp)
	if err != nil {
		return nil, err
	}
	resp, err := dnsmsg.Unpack(raw)
	if err != nil {
		return nil, err
	}
	if !c.matches(q, resp) {
		return nil, errors.New("dnsclient: mismatched TCP response")
	}
	return resp, nil
}

// matches validates that a response answers our query (ID and question).
func (c *Client) matches(q, r *dnsmsg.Message) bool {
	if !r.Header.Response || r.Header.ID != q.Header.ID || len(r.Questions) != 1 {
		return false
	}
	return r.Questions[0].Name.Equal(q.Questions[0].Name) &&
		r.Questions[0].Type == q.Questions[0].Type
}

// Resolver provides typed lookups with the RFC 7208 error taxonomy on top
// of any Querier — a bare Client or a CachingClient stack.
type Resolver struct {
	// Querier performs transactions; required.
	Querier Querier
}

// NewResolver builds a resolver over q.
func NewResolver(q Querier) *Resolver {
	return &Resolver{Querier: q}
}

// rcodeErr maps response codes to the error taxonomy; nil means usable.
func rcodeErr(r *dnsmsg.Message) error {
	switch r.Header.RCode {
	case dnsmsg.RCodeNoError:
		return nil
	case dnsmsg.RCodeNXDomain:
		return ErrNotFound
	default:
		return fmt.Errorf("%w: rcode %s", ErrTemporary, r.Header.RCode)
	}
}

// LookupTXT returns the text of each TXT record for name, with each
// record's character strings concatenated (RFC 7208 §3.3).
func (r *Resolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	n, err := dnsmsg.ParseName(name)
	if err != nil {
		return nil, err
	}
	resp, err := r.Querier.Query(ctx, n, dnsmsg.TypeTXT)
	if err != nil {
		return nil, err
	}
	if err := rcodeErr(resp); err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range resp.Answers {
		if txt, ok := rr.Data.(dnsmsg.TXT); ok {
			out = append(out, txt.Joined())
		}
	}
	return out, nil
}

// LookupIP returns A and/or AAAA addresses for name. network is "ip",
// "ip4", or "ip6".
//
// For "ip" the A question is asked first and the AAAA question after it
// has finished, both on the caller's goroutine, never concurrently: the
// fault engine counts each host's datagrams in order, so overlapping
// exchanges would make faulty runs depend on scheduling. The addresses of
// every family that answers are returned in question order. The lookup
// fails only when that leaves none and the last question failed; the
// error is the first one since the last usable answer, so A's when both
// fail and AAAA's when an empty A answer precedes a failing AAAA.
func (r *Resolver) LookupIP(ctx context.Context, network, name string) ([]netip.Addr, error) {
	n, err := dnsmsg.ParseName(name)
	if err != nil {
		return nil, err
	}
	ask := []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA}
	switch network {
	case "ip4":
		ask = ask[:1]
	case "ip6":
		ask = ask[1:]
	}
	var out []netip.Addr
	var firstErr error
	for _, typ := range ask {
		resp, err := r.Querier.Query(ctx, n, typ)
		if err == nil {
			err = rcodeErr(resp)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		firstErr = nil
		for _, rr := range resp.Answers {
			switch d := rr.Data.(type) {
			case dnsmsg.A:
				out = append(out, d.Addr)
			case dnsmsg.AAAA:
				out = append(out, d.Addr)
			}
		}
	}
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// MXRecord is one mail exchanger.
type MXRecord struct {
	Preference uint16
	Host       string
}

// LookupMX returns the MX records for name sorted by preference.
func (r *Resolver) LookupMX(ctx context.Context, name string) ([]MXRecord, error) {
	n, err := dnsmsg.ParseName(name)
	if err != nil {
		return nil, err
	}
	resp, err := r.Querier.Query(ctx, n, dnsmsg.TypeMX)
	if err != nil {
		return nil, err
	}
	if err := rcodeErr(resp); err != nil {
		return nil, err
	}
	var out []MXRecord
	for _, rr := range resp.Answers {
		if mx, ok := rr.Data.(dnsmsg.MX); ok {
			out = append(out, MXRecord{Preference: mx.Preference, Host: mx.Host.String()})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Preference < out[j].Preference })
	return out, nil
}

// LookupPTR returns PTR targets for the reverse name of addr.
func (r *Resolver) LookupPTR(ctx context.Context, addr netip.Addr) ([]string, error) {
	n, err := dnsmsg.ParseName(ReverseName(addr))
	if err != nil {
		return nil, err
	}
	resp, err := r.Querier.Query(ctx, n, dnsmsg.TypePTR)
	if err != nil {
		return nil, err
	}
	if err := rcodeErr(resp); err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range resp.Answers {
		if p, ok := rr.Data.(dnsmsg.PTR); ok {
			out = append(out, p.Target.String())
		}
	}
	return out, nil
}

// ReverseName returns the in-addr.arpa / ip6.arpa name for addr.
func ReverseName(addr netip.Addr) string {
	if addr.Is4() {
		b := addr.As4()
		return fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa", b[3], b[2], b[1], b[0])
	}
	b := addr.As16()
	const hex = "0123456789abcdef"
	out := make([]byte, 0, 72)
	for i := 15; i >= 0; i-- {
		out = append(out, hex[b[i]&0xF], '.', hex[b[i]>>4], '.')
	}
	return string(out) + "ip6.arpa"
}
