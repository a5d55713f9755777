// Package mta assembles a simulated mail host: an SMTP server whose policy
// hooks run genuine SPF validation through one (or, like 6% of hosts the
// paper measured, more than one) SPF implementation behavior, a DNS stub
// resolver pointed at the simulation's authoritative server, and a
// behaviour plan covering the operational quirks the SPFail measurement had
// to contend with — greylisting, probe blacklisting, and validation deferred
// until after message data.
package mta

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dmarc"
	"spfail/internal/dnsclient"
	"spfail/internal/netsim"
	"spfail/internal/smtp"
	"spfail/internal/spf"
	"spfail/internal/spfimpl"
	"spfail/internal/trace"
)

// ValidationPoint says when a host triggers SPF validation.
type ValidationPoint string

// The observed trigger points (paper §5.1: hosts that validated at MAIL
// FROM were measurable with the NoMsg probe; hosts deferring until data
// required BlankMsg; some never validate).
const (
	ValidateAtMailFrom ValidationPoint = "mailfrom"
	ValidateAtData     ValidationPoint = "data"
	ValidateNever      ValidationPoint = "never"
)

// Config describes a simulated mail host.
type Config struct {
	Hostname string
	// IP is the host's address on the fabric.
	IP netip.Addr
	// Net provides connectivity (typically fabric.Host(IP)).
	Net netsim.Network
	// Clock drives greylist windows and blacklist activation.
	Clock clock.Clock
	// DNSServer is the resolver address, e.g. "192.0.2.53:53".
	DNSServer string
	// ListenAddr overrides the SMTP listen address (default ":25";
	// real-socket deployments on unprivileged ports set e.g. ":2525").
	ListenAddr string

	// Behaviors is the ordered list of SPF implementations this host
	// runs (multiple entries model stacked filters such as an MTA plus
	// SpamAssassin). Empty means the host performs no SPF validation.
	Behaviors []spfimpl.Behavior
	// ValidateAt selects the trigger point.
	ValidateAt ValidationPoint
	// RejectOnFail makes the host reject the transaction with 550 when
	// the first behavior's validation fails.
	RejectOnFail bool
	// Greylist makes the first delivery attempt from each (client IP,
	// sender) pair fail with 450.
	Greylist bool
	// RefuseSMTP makes the host answer every session with 421 after the
	// banner (the paper's "SMTP failure" outcome class).
	RefuseSMTP bool
	// RejectData makes the host permanently reject message content with
	// 554 (the BlankMsg-stage SMTP failures of Table 3).
	RejectData bool
	// EnforceDMARC makes the host honor the sender domain's DMARC policy
	// at end-of-data when SPF did not pass — the reason the study's
	// blank probe messages (whose source domains publish p=reject,
	// §6.2) were mostly discarded rather than delivered.
	EnforceDMARC bool
	// AcceptedLocals restricts RCPT TO local parts; nil accepts all.
	AcceptedLocals map[string]bool
	// BlacklistProbesAt, when non-zero, makes the host reject sessions
	// with 421 from that instant on — the dominant cause of the
	// longitudinal study's inconclusive measurements (paper §7.6).
	BlacklistProbesAt time.Time
	// BlacklistProbesUntil, when non-zero, ends the blacklist window
	// (reputation decay); zero means the blacklist never lifts.
	BlacklistProbesUntil time.Time
	// FlakyRate is the per-session probability of answering 421 —
	// intermittent failures that make longitudinal measurements
	// fluctuate (paper Figure 5).
	FlakyRate float64
	// FlakySeed makes the flakiness deterministic per host.
	FlakySeed int64

	// DNSTimeout bounds resolver transactions (keep small in simulation).
	DNSTimeout time.Duration

	// Trace, when non-nil, attributes the host's SPF evaluations (and the
	// DNS traffic underneath them) to whichever probe span currently owns
	// this host's IP (see trace.Span.Adopt).
	Trace *trace.Tracer
}

// Host is a running simulated mail host. Its behaviors and their checkers
// are fixed in New, so validations read them without a lock; a patched host
// is a new Host (see population.HostSpec.BehaviorsAt).
type Host struct {
	cfg    Config
	server *smtp.Server
	// wire is the DNS client under res; Stop closes its sockets.
	wire *dnsclient.Client
	// res is the host's resolver with its local TTL cache, like the
	// recursive resolver a real MTA sits behind. SPFail's unique probe
	// labels exist precisely to defeat this layer.
	res spf.Resolver
	// checkers holds the checker of each cfg.Behaviors entry, built in New.
	checkers []*spf.Checker

	mu        sync.Mutex
	greySeen  map[string]bool
	overflows []spfimpl.OverflowEvent
	flaky     *rand.Rand
}

// New builds a host from cfg. Call Start to serve.
func New(cfg Config) *Host {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.DNSTimeout == 0 {
		cfg.DNSTimeout = 2 * time.Second
	}
	cfg.Behaviors = append([]spfimpl.Behavior(nil), cfg.Behaviors...)
	h := &Host{
		cfg:      cfg,
		greySeen: make(map[string]bool),
	}
	if cfg.FlakyRate > 0 {
		h.flaky = rand.New(rand.NewSource(cfg.FlakySeed))
	}
	// Client → CachingClient → Resolver: the wire client under the MTA's
	// local TTL cache. check_host asks for the client IP's address family
	// in a and mx (RFC 7208 §5.3–5.4) and for A in exists (§5.7), so every
	// lookup through the cache is one question.
	h.wire = &dnsclient.Client{
		Net:     cfg.Net,
		Server:  cfg.DNSServer,
		Timeout: cfg.DNSTimeout,
		Clk:     cfg.Clock,
	}
	cached := dnsclient.NewCachingClient(h.wire, cfg.Clock)
	h.res = ResolverAdapter{R: dnsclient.NewResolver(cached)}
	h.checkers = make([]*spf.Checker, len(cfg.Behaviors))
	for i, b := range cfg.Behaviors {
		c := spfimpl.NewChecker(b, h.res)
		c.Receiver = cfg.Hostname
		if l, ok := c.Expander.(*spfimpl.LibSPF2Expander); ok {
			l.OnOverflow = h.recordOverflow
		}
		h.checkers[i] = c
	}
	listen := cfg.ListenAddr
	if listen == "" {
		listen = ":25"
	}
	h.server = &smtp.Server{
		Hostname: cfg.Hostname,
		Net:      cfg.Net,
		Addr:     listen,
		Handler:  (*hostHandler)(h),
		Clk:      cfg.Clock,
	}
	return h
}

// Start binds port 25.
func (h *Host) Start(ctx context.Context) error { return h.server.Start(ctx) }

// Stop shuts the SMTP listener down, waits out the sessions, and then
// closes the sockets the host's DNS client kept.
func (h *Host) Stop() {
	h.server.Stop()
	_ = h.wire.Close() // Stop reports nothing; the sockets are released either way
}

// Overflows returns the simulated heap overflows the host has suffered.
func (h *Host) Overflows() []spfimpl.OverflowEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]spfimpl.OverflowEvent(nil), h.overflows...)
}

func (h *Host) recordOverflow(ev spfimpl.OverflowEvent) {
	h.mu.Lock()
	h.overflows = append(h.overflows, ev)
	h.mu.Unlock()
}

// validate runs every configured behavior's validation for a transaction.
func (h *Host) validate(sender, helo string, remote net.Addr) spf.Result {
	domain := smtp.AddressDomain(sender)
	if domain == "" {
		return spf.ResultNone
	}
	clientIP := remoteIP(remote)

	// Attribute the evaluation (and the DNS lookups under it) to the probe
	// span that currently owns this host, when a campaign is tracing.
	ctx := context.Background()
	var vsp *trace.Span
	if h.cfg.Trace != nil {
		if sp := h.cfg.Trace.HostSpan(h.cfg.IP.String()); sp != nil {
			vsp = sp.Child("mta.validate",
				trace.String("sender", sender),
				trace.String("helo", helo),
			)
			ctx = trace.ContextWithSpan(ctx, vsp)
		}
	}

	first := spf.ResultNone
	for i, b := range h.cfg.Behaviors {
		out := h.checkers[i].CheckHost(ctx, clientIP, domain, sender, helo)
		if vsp != nil {
			vsp.Event("mta.behavior",
				trace.String("behavior", string(b)),
				trace.String("result", string(out.Result)),
			)
		}
		if i == 0 {
			first = out.Result
		}
	}
	if vsp != nil {
		vsp.SetAttrs(trace.String("result", string(first)))
		vsp.End()
	}
	return first
}

func remoteIP(remote net.Addr) netip.Addr {
	if remote == nil {
		return netip.Addr{}
	}
	host, _, err := net.SplitHostPort(remote.String())
	if err != nil {
		host = remote.String()
	}
	a, err := netip.ParseAddr(host)
	if err != nil {
		return netip.Addr{}
	}
	return a
}

// hostHandler implements smtp.Handler on Host.
type hostHandler Host

func (hh *hostHandler) host() *Host { return (*Host)(hh) }

// OnConnect implements smtp.Handler.
func (hh *hostHandler) OnConnect(remote net.Addr) *smtp.Reply {
	h := hh.host()
	if h.cfg.RefuseSMTP {
		return smtp.ReplyShuttingDown
	}
	if h.flaky != nil {
		h.mu.Lock()
		drop := h.flaky.Float64() < h.cfg.FlakyRate
		h.mu.Unlock()
		if drop {
			return smtp.ReplyShuttingDown
		}
	}
	if !h.cfg.BlacklistProbesAt.IsZero() {
		now := h.cfg.Clock.Now()
		inWindow := !now.Before(h.cfg.BlacklistProbesAt) &&
			(h.cfg.BlacklistProbesUntil.IsZero() || now.Before(h.cfg.BlacklistProbesUntil))
		if inWindow {
			return smtp.ReplyShuttingDown
		}
	}
	return nil
}

// OnHelo implements smtp.Handler.
func (hh *hostHandler) OnHelo(string, bool) *smtp.Reply { return nil }

// OnMailFrom implements smtp.Handler.
func (hh *hostHandler) OnMailFrom(from string, remote net.Addr, helo string) *smtp.Reply {
	h := hh.host()
	if from == "" {
		return nil // null reverse-path: bounces are always accepted
	}
	if h.cfg.ValidateAt == ValidateAtMailFrom {
		result := h.validate(from, helo, remote)
		if h.cfg.RejectOnFail && result == spf.ResultFail {
			return smtp.Replyf(550, "SPF check failed for %s", from)
		}
	}
	return nil
}

// OnRcptTo implements smtp.Handler.
func (hh *hostHandler) OnRcptTo(to string) *smtp.Reply {
	h := hh.host()
	if h.cfg.AcceptedLocals != nil && !h.cfg.AcceptedLocals[smtp.AddressLocal(to)] {
		return smtp.ReplyNoSuchUser
	}
	return nil
}

// OnData implements smtp.Handler.
func (hh *hostHandler) OnData(from string, rcpts []string, msg []byte, remote net.Addr, helo string) *smtp.Reply {
	h := hh.host()
	if h.cfg.Greylist {
		// Keyed by client IP: like common greylisters, the host admits
		// the client once it has come back after the initial deferral.
		key := remoteIP(remote).String()
		h.mu.Lock()
		seen := h.greySeen[key]
		h.greySeen[key] = true
		h.mu.Unlock()
		if !seen {
			return smtp.ReplyGreylisted
		}
	}
	spfResult := spf.ResultNone
	if h.cfg.ValidateAt == ValidateAtData && from != "" {
		spfResult = h.validate(from, helo, remote)
		if h.cfg.RejectOnFail && spfResult == spf.ResultFail {
			return smtp.Replyf(550, "SPF check failed for %s", from)
		}
	}
	if h.cfg.RejectData {
		return smtp.ReplyRejectedPolicy
	}
	if h.cfg.EnforceDMARC && from != "" && spfResult != spf.ResultPass {
		domain := smtp.AddressDomain(from)
		res, err := dmarc.Evaluate(context.Background(), h.res, domain, spfResult, domain)
		if err == nil && res.Disposition == dmarc.PolicyReject {
			return smtp.Replyf(550, "message rejected per DMARC policy of %s", domain)
		}
	}
	return nil
}

// OnAbort implements smtp.Handler.
func (hh *hostHandler) OnAbort(string) {}

// ResolverAdapter translates dnsclient's API and error taxonomy into the
// SPF engine's Resolver contract.
type ResolverAdapter struct {
	R *dnsclient.Resolver
}

func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, dnsclient.ErrNotFound):
		return fmt.Errorf("%w: %v", spf.ErrNotFound, err)
	default:
		return fmt.Errorf("%w: %v", spf.ErrTemporary, err)
	}
}

// LookupTXT implements spf.Resolver.
func (a ResolverAdapter) LookupTXT(ctx context.Context, name string) ([]string, error) {
	out, err := a.R.LookupTXT(ctx, name)
	return out, mapErr(err)
}

// LookupIP implements spf.Resolver.
func (a ResolverAdapter) LookupIP(ctx context.Context, network, name string) ([]netip.Addr, error) {
	out, err := a.R.LookupIP(ctx, network, name)
	if err == nil && len(out) == 0 {
		return nil, fmt.Errorf("%w: no %s addresses for %s", spf.ErrNotFound, network, name)
	}
	return out, mapErr(err)
}

// LookupMX implements spf.Resolver.
func (a ResolverAdapter) LookupMX(ctx context.Context, name string) ([]spf.MX, error) {
	mxs, err := a.R.LookupMX(ctx, name)
	if err != nil {
		return nil, mapErr(err)
	}
	if len(mxs) == 0 {
		return nil, fmt.Errorf("%w: no MX for %s", spf.ErrNotFound, name)
	}
	out := make([]spf.MX, len(mxs))
	for i, m := range mxs {
		out[i] = spf.MX{Preference: m.Preference, Host: m.Host}
	}
	return out, nil
}

// LookupPTR implements spf.Resolver.
func (a ResolverAdapter) LookupPTR(ctx context.Context, addr netip.Addr) ([]string, error) {
	out, err := a.R.LookupPTR(ctx, addr)
	return out, mapErr(err)
}

var _ spf.Resolver = ResolverAdapter{}
