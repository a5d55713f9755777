package faults

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"spfail/internal/dnsmsg"
	"spfail/internal/netsim"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// Engine applies a Plan to fabric traffic. It implements
// netsim.FaultInjector; install it with fabric.Faults = engine.
//
// All decisions are pure hashes of (plan seed, rule index, subject host,
// per-(rule, host) sequence number) — see the package comment for why.
type Engine struct {
	plan     Plan
	classify func(host string) string
	metrics  *telemetry.Registry
	tracer   *trace.Tracer

	mu  sync.Mutex
	seq map[string]uint64
}

// NewEngine normalizes plan and builds an engine for it.
func NewEngine(plan Plan) (*Engine, error) {
	p, err := plan.Normalize()
	if err != nil {
		return nil, err
	}
	return &Engine{plan: p, seq: make(map[string]uint64)}, nil
}

// SetClassifier installs the host → class mapping rules with a Class
// selector match against (population.World.FaultClassifier). fn must be
// safe for concurrent use. Without a classifier, Class-scoped rules match
// nothing.
func (e *Engine) SetClassifier(fn func(host string) string) { e.classify = fn }

// SetMetrics routes per-kind injection counters (faults.injected.<kind>)
// into reg; nil disables counting.
func (e *Engine) SetMetrics(reg *telemetry.Registry) { e.metrics = reg }

// SetTracer routes injection decisions as host-keyed trace events onto the
// span of whichever probe currently owns the subject host; nil disables.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// SeqEntry is one (rule, host) event counter, the engine's only mutable
// state. Fault decisions hash the per-key sequence number, so a resumed
// study must restore these counters for later rounds to draw the same
// decisions an uninterrupted run would.
type SeqEntry struct {
	Key string `json:"key"`
	Seq uint64 `json:"seq"`
}

// Snapshot returns the event counters sorted by key, for checkpointing.
func (e *Engine) Snapshot() []SeqEntry {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.seq) == 0 {
		return nil
	}
	out := make([]SeqEntry, 0, len(e.seq))
	for k, s := range e.seq {
		out = append(out, SeqEntry{Key: k, Seq: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore replaces the event counters with a snapshot taken by Snapshot.
func (e *Engine) Restore(snap []SeqEntry) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq = make(map[string]uint64, len(snap))
	for _, s := range snap {
		e.seq[s.Key] = s.Seq
	}
}

// inject records one fired fault against the subject host: the per-kind
// counter plus (when tracing) a fault.injected event on the host's span.
func (e *Engine) inject(subject string, rule int, k Kind) {
	e.metrics.Counter("faults.injected." + string(k)).Inc()
	if sp := e.tracer.HostSpan(subject); sp != nil {
		sp.Event("fault.injected", trace.String("kind", string(k)), trace.Int("rule", rule))
	}
}

// matches applies a rule's static Host/Class selectors to the subject.
func (e *Engine) matches(r Rule, host string) bool {
	if r.Host != "" && r.Host != host {
		return false
	}
	if r.Class != "" {
		if e.classify == nil || e.classify(host) != r.Class {
			return false
		}
	}
	return true
}

// decide consumes one event for (rule i, subject host) and reports whether
// the fault fires. The sequence number makes burst windows count-based and
// the hash makes rate decisions reproducible.
func (e *Engine) decide(i int, r Rule, host string) bool {
	key := string(r.Kind) + "|" + strconv.Itoa(i) + "|" + host
	e.mu.Lock()
	seq := e.seq[key]
	e.seq[key] = seq + 1
	e.mu.Unlock()
	if r.Burst > 0 && seq >= uint64(r.Burst) {
		return false
	}
	rate := r.Rate
	if rate <= 0 {
		rate = 1
	}
	if rate >= 1 {
		return true
	}
	h := decisionHash(e.plan.Seed, key, seq)
	return float64(h%1_000_000)/1_000_000 < rate
}

// DialTCP implements netsim.FaultInjector. Only port-25 (SMTP) dials are
// faultable: those originate from prober goroutines accounted to the
// simulated clock, so a tarpit's virtual sleep is safe there and only
// there.
func (e *Engine) DialTCP(src, dst netsim.Addr) netsim.DialFault {
	var f netsim.DialFault
	if dst.Port != 25 || e.plan.Empty() {
		return f
	}
	for i, r := range e.plan.Rules {
		if !smtpKind(r.Kind) || !e.matches(r, dst.Host) || !e.decide(i, r, dst.Host) {
			continue
		}
		e.inject(dst.Host, i, r.Kind)
		switch r.Kind {
		case KindConnRefuse:
			f.Refuse = true
		case KindConnReset:
			if f.ResetAfter == 0 || r.ResetAfter < f.ResetAfter {
				f.ResetAfter = r.ResetAfter
			}
		case KindSMTPTarpit:
			f.Delay += r.Delay
		case KindSMTPBlackhole:
			f.Blackhole = true
		}
	}
	return f
}

// Datagram implements netsim.FaultInjector. The subject host is the
// non-DNS endpoint (the MTA or probe doing the lookup), whose traffic is
// sequential and therefore safe to count; keying on the shared DNS server
// would interleave every host's events nondeterministically.
func (e *Engine) Datagram(from, to netsim.Addr, payload []byte) ([]byte, netsim.DatagramVerdict) {
	if e.plan.Empty() {
		return nil, netsim.VerdictPass
	}
	query := to.Port == 53 && from.Port != 53
	response := from.Port == 53 && to.Port != 53
	subject := from.Host
	if response {
		subject = to.Host
	}
	for i, r := range e.plan.Rules {
		switch r.Kind {
		case KindDropUDP:
			if !e.matches(r, subject) || !e.decide(i, r, subject) {
				continue
			}
			e.inject(subject, i, r.Kind)
			return nil, netsim.VerdictDrop
		case KindDNSTimeout:
			if !query || !e.matches(r, subject) || !e.decide(i, r, subject) {
				continue
			}
			e.inject(subject, i, r.Kind)
			return nil, netsim.VerdictDrop
		case KindDNSServfail:
			if !query || !e.matches(r, subject) || !e.decide(i, r, subject) {
				continue
			}
			forged := servfailResponse(payload)
			if forged == nil {
				continue // unparseable; leave the datagram alone
			}
			e.inject(subject, i, r.Kind)
			return forged, netsim.VerdictReflect
		case KindDNSTruncate:
			if !response || !e.matches(r, subject) || !e.decide(i, r, subject) {
				continue
			}
			truncated := truncateResponse(payload)
			if truncated == nil {
				continue
			}
			e.inject(subject, i, r.Kind)
			return truncated, netsim.VerdictPass
		}
	}
	return nil, netsim.VerdictPass
}

// servfailResponse forges a SERVFAIL reply to the query in payload, or nil
// when payload is not a usable query.
func servfailResponse(payload []byte) []byte {
	q, err := dnsmsg.Unpack(payload)
	if err != nil || q.Header.Response || len(q.Questions) == 0 {
		return nil
	}
	r := q.Reply()
	r.Header.RCode = dnsmsg.RCodeServFail
	out, err := r.Pack()
	if err != nil {
		return nil
	}
	return out
}

// truncateResponse sets the TC bit and strips every record section so the
// client falls back to TCP, or nil when payload is not a response worth
// mangling.
func truncateResponse(payload []byte) []byte {
	m, err := dnsmsg.Unpack(payload)
	if err != nil || !m.Header.Response || m.Header.Truncated {
		return nil
	}
	m.Header.Truncated = true
	m.Answers, m.Authority, m.Additional = nil, nil, nil
	out, err := m.Pack()
	if err != nil {
		return nil
	}
	return out
}

// decisionHash mixes the decision inputs with FNV-1a.
func decisionHash(seed int64, key string, seq uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	for i := 0; i < 8; i++ {
		b[i] = byte(seq >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

var _ netsim.FaultInjector = (*Engine)(nil)
