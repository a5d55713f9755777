package core

import (
	"context"
	"errors"
	"net"
	"strings"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
	"spfail/internal/retry"
	"spfail/internal/smtp"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// ProbeMethod is one of the two probe transaction shapes (paper §5.1).
type ProbeMethod string

// The two probe methods.
const (
	// MethodNoMsg terminates the connection after the DATA command is
	// accepted, before any message content — guaranteeing no email is
	// delivered.
	MethodNoMsg ProbeMethod = "NoMsg"
	// MethodBlankMsg transmits an entirely empty message, for servers
	// that defer SPF validation until a message has been received.
	MethodBlankMsg ProbeMethod = "BlankMsg"
)

// Status is the outcome category of a probe, mirroring Table 3's rows.
type Status string

// The outcome categories.
const (
	// StatusConnectionRefused: no TCP connection could be established.
	StatusConnectionRefused Status = "connection-refused"
	// StatusSMTPFailure: connected, but the SMTP dialogue failed before
	// any SPF lookup was observed.
	StatusSMTPFailure Status = "smtp-failure"
	// StatusSPFMeasured: SPF macro behaviour was conclusively observed.
	StatusSPFMeasured Status = "spf-measured"
	// StatusSPFNotMeasured: the dialogue succeeded but the server never
	// performed an attributable SPF lookup.
	StatusSPFNotMeasured Status = "spf-not-measured"
	// StatusInconclusive: the probe exhausted its retry budget (or was
	// skipped by an open circuit breaker) without a conclusive dialogue;
	// Outcome.FailReason says why. Only produced when a retry policy is
	// configured.
	StatusInconclusive Status = "inconclusive"
)

// transientStatus reports whether a status is worth retrying: the
// connection or dialogue failed in a way a transient network fault could
// explain. Measured and not-measured outcomes are terminal (the dialogue
// completed).
func transientStatus(s Status) bool {
	return s == StatusConnectionRefused || s == StatusSMTPFailure
}

// Stage names where an SMTP dialogue can fail.
const (
	StageDial    = "dial"
	StageBanner  = "banner"
	StageHello   = "hello"
	StageMail    = "mail"
	StageRcpt    = "rcpt"
	StageData    = "data"
	StageMessage = "message"
)

// usernames is the curated recipient list of paper §6.3, in trial
// order: a random mailbox and no-reply variants first to minimize the
// chance of a probe reaching a human inbox, then administrative accounts.
// The first one is also the local part of every probe's MAIL FROM.
var usernames = []string{
	"mmj7yzdm0tbk",
	"noreply",
	"donotreply",
	"no-reply",
	"postmaster",
	"abuse",
	"admin",
	"administrator",
	"newsletters",
	"alerts",
	"info",
	"auto-confirm",
	"appointments",
	"service",
}

// Outcome is the result of probing one IP address.
type Outcome struct {
	Addr   string
	Status Status
	// Method is the probe that produced conclusive data ("" when none).
	Method ProbeMethod
	// NoMsgRan/BlankMsgRan record which rungs of the ladder executed.
	NoMsgRan    bool
	BlankMsgRan bool
	// Observation holds the classified DNS evidence.
	Observation Observation
	// FailStage and Err describe the last SMTP failure, if any.
	FailStage string
	Err       error
	// IDs are the probe labels used (one per transaction attempt).
	IDs []string
	// Username is the recipient local-part that was finally accepted.
	Username string
	// Attempts is how many full probe attempts ran (0 when the circuit
	// breaker skipped the address; 1 without a retry policy).
	Attempts int
	// FailReason explains an Inconclusive status.
	FailReason string
}

// Vulnerable is a convenience for Observation.Vulnerable on measured
// outcomes.
func (o *Outcome) Vulnerable() bool {
	return o.Status == StatusSPFMeasured && o.Observation.Vulnerable()
}

// EndSpan records o on a probe's root span and ends it. Campaigns and the
// scanner both end their probe roots here, so their traces carry the same
// attributes (docs/tracing.md).
func (o *Outcome) EndSpan(root *trace.Span) {
	root.SetAttrs(
		trace.String("status", string(o.Status)),
		trace.String("method", string(o.Method)),
		trace.Int("attempts", o.Attempts),
		trace.Bool("vulnerable", o.Vulnerable()),
	)
	if o.FailReason != "" {
		root.SetAttrs(trace.String("fail_reason", o.FailReason))
	}
	if o.FailStage != "" {
		root.SetAttrs(trace.String("fail_stage", o.FailStage))
	}
	if o.Err != nil {
		root.SetAttrs(trace.String("error", o.Err.Error()))
	}
	root.End()
}

// Prober runs the NoMsg → BlankMsg detection ladder against mail servers.
type Prober struct {
	// Net supplies outbound connectivity (the measurement vantage).
	Net netsim.Network
	// HELO is the identity our client announces.
	HELO string
	// Clock paces greylist retries and inter-connection waits, stamps
	// breaker decisions, and measures probe latency. Campaigns hand each
	// probe its own timeline here (clock.NewFrame) and carry it on the
	// probe's context, where a tarpitted dial sleeps on it too, so those
	// timestamps are a pure function of the probe, independent of batch
	// partitioning. A shared simulated clock has one sleeper, the study
	// driver, so a prober that runs beside others must not sleep on it.
	Clock clock.Clock
	// IOClock, when non-nil, supplies the timeline SMTP I/O deadlines
	// are computed on. Campaigns keep it on the rig's shared clock even
	// while Clock is a per-probe frame: the network fabric translates
	// deadline budgets against its own clock, so deadlines must be
	// minted on that same timeline to preserve the configured budget.
	IOClock clock.Clock
	// Zone describes the measurement DNS zone (for label → domain
	// construction); Collector receives its query stream.
	Zone *dnsserver.SPFTestZone
	// Labels supplies transaction labels. Campaigns install a per-shard
	// LabelStream, reset to each probe's index, so label assignment is
	// independent of shard scheduling — drawing from a shared allocator
	// would make same-seed traced runs diverge.
	Labels     LabelSource
	Collector  *Collector
	Classifier *Classifier
	// Suite tags all of this prober's labels.
	Suite string
	// GreylistWait is the pause before retrying a 450 (paper: 8 min).
	GreylistWait time.Duration
	// ReconnectWait is the minimum pause between connections to the same
	// address (paper: 90 s).
	ReconnectWait time.Duration
	// IOTimeout bounds SMTP I/O.
	IOTimeout time.Duration
	// Retry, when enabled (MaxAttempts > 1), reruns transiently-failed
	// probes (refused connections, SMTP failures) with the policy's
	// jittered backoff slept on Clock. The zero value keeps the legacy
	// single-attempt behaviour.
	Retry retry.Policy
	// Breakers, when non-nil, is the shared per-address circuit-breaker
	// set: addresses whose breaker is open are skipped (Inconclusive)
	// until the cooldown elapses. Typically one set per campaign.
	Breakers *retry.Breakers
	// Metrics, when non-nil, receives probe outcome/stage counters and
	// the probe latency histogram (see docs/telemetry.md). Latency is
	// measured on Clock, so virtual campaigns report virtual durations.
	Metrics *telemetry.Registry

	// Scratch state reused across probes. A Prober runs one probe at a
	// time (campaigns keep one prober per shard), so plain fields suffice.
	cli       *smtp.Client
	txScratch transactionResult
	evScratch []dnsserver.QueryEvent
}

func (p *Prober) greylistWait() time.Duration {
	if p.GreylistWait > 0 {
		return p.GreylistWait
	}
	return 8 * time.Minute
}

func (p *Prober) reconnectWait() time.Duration {
	if p.ReconnectWait > 0 {
		return p.ReconnectWait
	}
	return 90 * time.Second
}

// TestIP probes the mail server at addr ("ip:port"), using rcptDomain in
// recipient addresses. It runs NoMsg first and escalates to BlankMsg only
// when NoMsg connected but elicited no SPF lookup, per the paper's
// minimization methodology. With a retry policy configured, transiently
// failed probes are rerun with backoff; an exhausted budget degrades to
// StatusInconclusive rather than reporting the last transient failure as
// the host's behaviour.
//
//spfail:hotpath
func (p *Prober) TestIP(ctx context.Context, addr, rcptDomain string) Outcome {
	start := p.Clock.Now()
	out := p.testIPRetrying(ctx, addr, rcptDomain)
	p.Metrics.Histogram("probe.latency").Record(p.Clock.Now().Sub(start))
	p.Metrics.Counter("probe.total").Inc()
	p.Metrics.Counter("probe.outcome." + string(out.Status)).Inc()
	if out.FailStage != "" {
		p.Metrics.Counter("probe.fail_stage." + out.FailStage).Inc()
	}
	if out.Vulnerable() {
		p.Metrics.Counter("probe.vulnerable").Inc()
	}
	return out
}

// testIPRetrying runs the probe ladder under the retry policy and circuit
// breaker. Without a policy (MaxAttempts ≤ 1) it is exactly one testIP
// call, preserving the pre-retry behaviour bit for bit.
//
//spfail:hotpath
func (p *Prober) testIPRetrying(ctx context.Context, addr, rcptDomain string) Outcome {
	max := p.Retry.MaxAttempts
	if max < 1 {
		max = 1
	}
	var out Outcome
	allRefused := true
	for attempt := 1; attempt <= max; attempt++ {
		if !p.Breakers.Allow(addr, p.Clock.Now()) {
			p.Metrics.Counter("probe.breaker_skips").Inc()
			if sp := trace.SpanFromContext(ctx); sp != nil {
				sp.Event("probe.breaker_open", trace.Int("attempt", attempt))
			}
			return Outcome{
				Addr:       addr,
				Status:     StatusInconclusive,
				FailReason: "circuit breaker open",
				Attempts:   attempt - 1,
			}
		}
		attemptCtx, asp := trace.StartSpan(ctx, "probe.attempt")
		if asp != nil {
			asp.SetAttrs(trace.Int("attempt", attempt))
		}
		out = p.testIP(attemptCtx, addr, rcptDomain)
		out.Attempts = attempt
		if asp != nil {
			asp.SetAttrs(trace.String("status", string(out.Status)))
			asp.End()
		}
		if !transientStatus(out.Status) {
			p.Breakers.Success(addr)
			return out
		}
		allRefused = allRefused && out.Status == StatusConnectionRefused
		p.Breakers.Failure(addr, p.Clock.Now())
		if attempt == max || ctx.Err() != nil {
			break
		}
		p.Metrics.Counter("probe.retries").Inc()
		if err := p.Retry.Wait(ctx, p.Clock, addr, attempt); err != nil {
			break
		}
	}
	if max > 1 && transientStatus(out.Status) {
		p.Metrics.Counter("probe.retry_exhausted").Inc()
		// A host that refused every single attempt is a refusing host
		// (Table 3's connection-refused row), not an inconclusive one;
		// anything else transient — timeouts, resets, 4xx churn — is.
		if !allRefused {
			out.FailReason = exhaustReason(out)
			out.Status = StatusInconclusive
		}
	}
	return out
}

// exhaustReason renders a stable failure description for an exhausted
// retry budget.
func exhaustReason(out Outcome) string {
	reason := "retry budget exhausted"
	if out.FailStage != "" {
		reason += " at stage " + out.FailStage
	}
	if out.Err != nil {
		reason += ": " + out.Err.Error()
	}
	return reason
}

// testIP is TestIP's uninstrumented body.
//
//spfail:hotpath
func (p *Prober) testIP(ctx context.Context, addr, rcptDomain string) Outcome {
	out := Outcome{Addr: addr}

	noMsg := p.runTransaction(ctx, addr, rcptDomain, MethodNoMsg)
	out.NoMsgRan = true
	out.IDs = append(out.IDs, noMsg.ids...)
	mergeObs(&out.Observation, noMsg.obs)
	if out.Observation.Conclusive() {
		out.Status = StatusSPFMeasured
		out.Method = MethodNoMsg
		out.Username = noMsg.username
		return out
	}
	if noMsg.refused {
		out.Status = StatusConnectionRefused
		out.Err = noMsg.err
		out.FailStage = StageDial
		return out
	}
	if noMsg.err != nil && noMsg.stage != StageData && noMsg.stage != StageMessage {
		// Hard SMTP failure before the transaction could complete, with
		// no SPF evidence: record and stop (retrying with BlankMsg would
		// fail at the same stage).
		out.Status = StatusSMTPFailure
		out.Err = noMsg.err
		out.FailStage = noMsg.stage
		return out
	}

	// Politeness gap between connections to the same server.
	if err := p.Clock.Sleep(ctx, p.reconnectWait()); err != nil {
		out.Status = StatusSPFNotMeasured
		return out
	}

	blank := p.runTransaction(ctx, addr, rcptDomain, MethodBlankMsg)
	out.BlankMsgRan = true
	out.IDs = append(out.IDs, blank.ids...)
	mergeObs(&out.Observation, blank.obs)
	if out.Observation.Conclusive() {
		out.Status = StatusSPFMeasured
		out.Method = MethodBlankMsg
		out.Username = blank.username
		return out
	}
	if blank.err != nil {
		out.Status = StatusSMTPFailure
		out.Err = blank.err
		out.FailStage = blank.stage
		return out
	}
	out.Status = StatusSPFNotMeasured
	return out
}

type transactionResult struct {
	ids      []string
	obs      Observation
	err      error
	stage    string
	refused  bool
	username string
}

// reset clears the result for reuse, keeping slice capacity.
func (res *transactionResult) reset() {
	res.ids = res.ids[:0]
	res.obs.PolicyFetched = false
	res.obs.LivenessSeen = false
	res.obs.Patterns = res.obs.Patterns[:0]
	res.obs.Classes = res.obs.Classes[:0]
	res.err = nil
	res.stage = ""
	res.refused = false
	res.username = ""
}

// client returns the prober's cached SMTP client, built once from the
// prober's configuration.
func (p *Prober) client() *smtp.Client {
	if p.cli == nil {
		clk := p.IOClock
		if clk == nil {
			clk = p.Clock
		}
		p.cli = &smtp.Client{Net: p.Net, HELO: p.HELO, IOTimeout: p.IOTimeout, Metrics: p.Metrics, Clk: clk}
	}
	return p.cli
}

// runTransaction performs one probe transaction (with a single greylist
// retry) and classifies the DNS evidence it produced. The returned result
// is the prober's reusable scratch: it is valid only until the next
// runTransaction call on this prober, so callers must copy out whatever
// they keep before starting another transaction (testIP does).
//
//spfail:hotpath
func (p *Prober) runTransaction(ctx context.Context, addr, rcptDomain string, method ProbeMethod) *transactionResult {
	res := &p.txScratch
	res.reset()
	for attempt := 0; attempt < 2; attempt++ {
		id := p.Labels.Next()
		res.ids = append(res.ids, id)
		p.Metrics.Counter("probe.transactions").Inc()
		txCtx, tsp := trace.StartSpan(ctx, "smtp.transaction")
		if tsp != nil {
			tsp.SetAttrs(trace.String("method", string(method)), trace.String("id", id))
			// Adopt the target host for the transaction so MTA-side work
			// (SPF evaluation, its DNS lookups, injected faults) nests
			// under this span instead of the probe root.
			if host, _, err := net.SplitHostPort(addr); err == nil {
				release := tsp.Adopt(host)
				defer release()
			}
		}
		greylisted := p.attempt(txCtx, res, id, addr, rcptDomain, method)
		// Classify whatever evidence this attempt produced. The event copy
		// lands in a per-prober scratch buffer; Classify does not retain it.
		p.evScratch = p.Collector.AppendQueriesFor(p.evScratch[:0], id)
		obs := p.Classifier.Classify(id, p.Suite, p.evScratch)
		p.Collector.Forget(id)
		mergeObs(&res.obs, obs)
		if tsp != nil {
			tsp.SetAttrs(
				trace.Bool("greylisted", greylisted),
				trace.Bool("conclusive", obs.Conclusive()),
				trace.Int("patterns", len(obs.Patterns)),
			)
			tsp.End()
		}
		if res.obs.Conclusive() || !greylisted {
			return res
		}
		p.Metrics.Counter("probe.greylist_waits").Inc()
		if sp := trace.SpanFromContext(ctx); sp != nil {
			sp.Event("probe.greylist_wait", trace.Duration("wait", p.greylistWait()))
		}
		if err := p.Clock.Sleep(ctx, p.greylistWait()); err != nil {
			return res
		}
	}
	return res
}

// mergeObs folds src's classified evidence into dst, keeping the union of
// observed patterns.
func mergeObs(dst *Observation, src Observation) {
	dst.PolicyFetched = dst.PolicyFetched || src.PolicyFetched
	dst.LivenessSeen = dst.LivenessSeen || src.LivenessSeen
	for i, pat := range src.Patterns {
		dup := false
		for _, existing := range dst.Patterns {
			if existing == pat {
				dup = true
				break
			}
		}
		if !dup {
			dst.Patterns = append(dst.Patterns, pat)
			dst.Classes = append(dst.Classes, src.Classes[i])
		}
	}
}

// attempt runs a single SMTP dialogue. It returns true when the server
// greylisted us (450) and a retry is worthwhile.
//
//spfail:hotpath
func (p *Prober) attempt(ctx context.Context, tr *transactionResult, id, addr, rcptDomain string, method ProbeMethod) bool {
	mailDomain, err := p.Zone.MailDomain(id, p.Suite)
	if err != nil {
		tr.err, tr.stage = err, StageDial
		return false
	}
	from := usernames[0] + "@" + strings.TrimSuffix(mailDomain.String(), ".")

	conn, err := p.client().Dial(ctx, addr)
	if err != nil {
		if code := smtp.ReplyCode(err); code != 0 {
			tr.err, tr.stage = err, StageBanner
			return code == 421 || code/100 == 4
		}
		tr.err, tr.stage, tr.refused = err, StageDial, isRefused(err)
		return false
	}
	defer conn.Close()

	if err := conn.Hello(); err != nil {
		tr.err, tr.stage = err, StageHello
		return smtp.ReplyCode(err)/100 == 4
	}
	if err := conn.Mail(from); err != nil {
		tr.err, tr.stage = err, StageMail
		return smtp.ReplyCode(err)/100 == 4
	}

	// Try recipient usernames in order until one is accepted.
	var accepted bool
	var lastErr error
	for _, u := range usernames {
		err := conn.Rcpt(u + "@" + rcptDomain)
		if err == nil {
			accepted = true
			tr.username = u
			break
		}
		lastErr = err
		code := smtp.ReplyCode(err)
		if code/100 == 4 {
			tr.err, tr.stage = err, StageRcpt
			return true // greylisted
		}
		if code == 0 {
			tr.err, tr.stage = err, StageRcpt
			return false // connection-level failure
		}
		// 5xx: try the next username.
	}
	if !accepted {
		tr.err, tr.stage = lastErr, StageRcpt
		return false
	}

	if err := conn.Data(); err != nil {
		tr.err, tr.stage = err, StageData
		return smtp.ReplyCode(err)/100 == 4
	}

	if method == MethodNoMsg {
		conn.Close() // deliberate mid-transaction termination
		return false
	}
	r, err := conn.SendMessage(nil)
	if err != nil {
		tr.err, tr.stage = err, StageMessage
		return false
	}
	if !r.Positive() {
		tr.err, tr.stage = &smtp.ReplyError{Reply: *r}, StageMessage
		return r.Transient()
	}
	conn.Quit()
	return false
}

// isRefused detects a TCP-level refusal.
func isRefused(err error) bool {
	return errors.Is(err, netsim.ErrRefused) || strings.Contains(err.Error(), "refused")
}
