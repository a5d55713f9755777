// Package trace is the probing stack's causal span tracer: every probe can
// record the full chain of SMTP verbs, SPF evaluation steps, DNS
// transactions, fault injections, and retry decisions that led to its
// classification, exported as JSONL for the spfail-trace explain tool.
//
// The tracer is built for the same determinism contract as the rest of the
// pipeline (see docs/static-analysis.md): trace identifiers are FNV-1a
// hashes of (campaign seed, scope, probe sequence) — never wall clock or
// math/rand — and timestamps come from the injected clock.Clock, so a
// same-seed campaign on the simulated clock produces byte-identical trace
// files. Spans buffer per probe and are flushed in the campaign's merged
// input order, which is what keeps the JSONL stable regardless of how the
// probe shards interleave.
//
// Everything is nil-safe: a nil *Tracer, *Buffer, or *Span turns every
// operation into a cheap no-op, so instrumented code pays only a
// predictable branch when tracing is disabled. Hot paths should guard
// attribute construction behind a nil check:
//
//	if sp := trace.SpanFromContext(ctx); sp != nil {
//		sp.Event("dns.cache.hit", trace.String("name", name.String()))
//	}
package trace

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"time"

	"spfail/internal/clock"
)

// Attr is one structured key/value attribute on a span or event. Values
// are pre-rendered strings so records need no type switch at encode time.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Duration builds a duration attribute in Go's duration notation.
func Duration(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// Options parameterizes a Tracer.
type Options struct {
	// Seed feeds the trace-ID and sampling hashes; use the campaign/world
	// seed so same-seed runs share identifiers.
	Seed int64
	// Sample is the fraction of probes traced, decided deterministically
	// per probe index. Values <= 0 or >= 1 trace everything.
	Sample float64
}

// Tracer owns the trace output stream and the host-routing table that lets
// simulated-MTA-side layers (SPF evaluation, the DNS server, the fault
// engine) attribute their work to the probe currently talking to that host.
type Tracer struct {
	opts Options

	mu      sync.Mutex
	w       io.Writer // guarded by mu
	capture io.Writer // guarded by mu
	scratch []byte    // guarded by mu
	err     error     // guarded by mu

	routeMu sync.RWMutex
	routes  map[string]*Span // guarded by routeMu
}

// New builds a tracer writing JSONL records to w. Callers buffering w are
// responsible for flushing it after the run.
func New(w io.Writer, opts Options) *Tracer {
	return &Tracer{opts: opts, w: w, routes: make(map[string]*Span)}
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// SetCapture installs (nil: removes) a secondary writer that receives a
// copy of every record FlushBuffer emits from now on. The checkpoint
// layer uses it to tee each study stage's trace bytes into that stage's
// segment. Capture writers are expected to be in-memory buffers; their
// errors are ignored, and only primary-stream errors latch into Err.
func (t *Tracer) SetCapture(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.capture = w
	t.mu.Unlock()
}

// WriteRaw appends pre-encoded JSONL bytes to the primary output stream,
// bypassing the capture tee. Resume replays the trace bytes stored in
// committed segments through here, so a resumed run's trace file is the
// byte-concatenation of the original stages' output plus the live tail.
func (t *Tracer) WriteRaw(p []byte) {
	if t == nil || len(p) == 0 {
		return
	}
	t.mu.Lock()
	if t.err == nil {
		if _, err := t.w.Write(p); err != nil {
			t.err = err
		}
	}
	t.mu.Unlock()
}

// Sampled reports whether the probe at index within scope is traced. The
// decision is a pure hash of (seed, scope, index), so it is stable across
// runs and independent of scheduling.
func (t *Tracer) Sampled(scope string, index uint64) bool {
	if t == nil {
		return false
	}
	if t.opts.Sample <= 0 || t.opts.Sample >= 1 {
		return true
	}
	h := traceHash(t.opts.Seed, "sample|"+scope, index)
	return float64(h%1_000_000)/1_000_000 < t.opts.Sample
}

// ProbeBuffer creates the span buffer for one probe, or nil when the probe
// is sampled out. scope is the campaign suite; index is the probe's
// absolute sequence number within the campaign.
func (t *Tracer) ProbeBuffer(clk clock.Clock, scope string, index uint64) *Buffer {
	if t == nil || !t.Sampled(scope, index) {
		return nil
	}
	return t.NewBuffer(clk, scope, index)
}

// NewBuffer creates an unsampled (always-on) span buffer, used for
// campaign- and batch-level spans.
func (t *Tracer) NewBuffer(clk clock.Clock, scope string, index uint64) *Buffer {
	if t == nil {
		return nil
	}
	if clk == nil {
		clk = clock.Real{}
	}
	return &Buffer{
		t:   t,
		clk: clk,
		id:  fmt.Sprintf("%s-%06d-%016x", scope, index, traceHash(t.opts.Seed, scope, index)),
	}
}

// FlushBuffer serializes every span of b as JSONL and closes the buffer;
// later operations on its spans, and a second flush, are no-ops.
// Campaigns call this in merged input order, which is what makes traced
// runs byte-deterministic.
func (t *Tracer) FlushBuffer(b *Buffer) {
	if t == nil || b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	spans := b.spans
	for _, sp := range spans {
		if !sp.ended {
			// Defensive: an instrumentation site failed to End; pin the
			// span to its start so output stays deterministic.
			sp.end, sp.ended = sp.start, true
		}
	}
	b.mu.Unlock()

	t.mu.Lock()
	if t.err == nil {
		for _, sp := range spans {
			t.scratch = appendRecord(t.scratch[:0], b.id, sp)
			if _, err := t.w.Write(t.scratch); err != nil {
				t.err = err
				break
			}
			if t.capture != nil {
				_, _ = t.capture.Write(t.scratch)
			}
		}
	}
	t.mu.Unlock()
}

// HostSpan returns the span currently adopted for host, or nil. The host
// key is the bare IP string (no port).
func (t *Tracer) HostSpan(host string) *Span {
	if t == nil {
		return nil
	}
	t.routeMu.RLock()
	sp := t.routes[host]
	t.routeMu.RUnlock()
	return sp
}

// HostEvent records an instantaneous event on the span adopted for host,
// if any — the hook for layers that know the subject host but have no
// context (the fault engine, the DNS server's fast path).
func (t *Tracer) HostEvent(host, name string, attrs ...Attr) {
	t.HostSpan(host).Event(name, attrs...)
}

// traceHash mixes (seed, scope, index) with FNV-1a.
func traceHash(seed int64, scope string, index uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(scope))
	for i := 0; i < 8; i++ {
		b[i] = byte(index >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// Buffer accumulates the spans of one trace (typically one probe). Spans
// are appended in creation order and serialized in that order at flush.
// Buffers are safe for concurrent use, but within one probe the writers
// are naturally sequential: the prober blocks on the SMTP reply while the
// MTA validates, so MTA-side spans interleave deterministically.
type Buffer struct {
	// t, clk and id are fixed at creation and never written again, so
	// they are read without the lock.
	t   *Tracer
	clk clock.Clock
	id  string

	mu     sync.Mutex
	next   uint32  // guarded by mu
	spans  []*Span // guarded by mu
	closed bool    // guarded by mu
	// slab and attrSlab are the buffer's arenas: spans and their initial
	// attributes are carved out of chunked arrays, so a probe with N spans
	// costs a handful of chunk allocations instead of ~2N.
	slab     []Span // guarded by mu
	attrSlab []Attr // guarded by mu
}

// TraceID returns the buffer's deterministic trace identifier.
func (b *Buffer) TraceID() string {
	if b == nil {
		return ""
	}
	return b.id
}

// allocSpan carves one span out of the buffer's current slab chunk,
// starting a fresh chunk when it is full. Must hold b.mu.
//
//spfail:locked b.mu
func (b *Buffer) allocSpan() *Span {
	if len(b.slab) == cap(b.slab) {
		n := 2 * cap(b.slab)
		if n < 16 {
			n = 16
		}
		if n > 256 {
			n = 256
		}
		b.slab = make([]Span, 0, n)
	}
	b.slab = b.slab[:len(b.slab)+1]
	return &b.slab[len(b.slab)-1]
}

// allocAttrs carves an empty attribute slice with capacity n out of the
// attr slab. The full slice expression caps it at its region, so growing
// past n reallocates instead of clobbering a neighbour. Must hold b.mu.
//
//spfail:locked b.mu
func (b *Buffer) allocAttrs(n int) []Attr {
	if len(b.attrSlab)+n > cap(b.attrSlab) {
		sz := 64
		if n > sz {
			sz = n
		}
		b.attrSlab = make([]Attr, 0, sz)
	}
	off := len(b.attrSlab)
	b.attrSlab = b.attrSlab[:off+n]
	return b.attrSlab[off : off : off+n]
}

// Root starts the buffer's root span (parent 0).
func (b *Buffer) Root(name string, attrs ...Attr) *Span {
	return b.start(nil, name, false, attrs)
}

func (b *Buffer) start(parent *Span, name string, instant bool, attrs []Attr) *Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	now := b.clk.Now()
	b.next++
	sp := b.allocSpan()
	*sp = Span{b: b, id: b.next, name: name, start: now}
	if parent != nil {
		sp.parent = parent.id
	}
	if len(attrs) > 0 {
		// Two spare slots cover the common post-hoc SetAttrs without
		// leaving slab space behind when none arrive.
		sp.attrs = append(b.allocAttrs(len(attrs)+2), attrs...)
	}
	if instant {
		sp.end, sp.ended = now, true
	}
	b.spans = append(b.spans, sp)
	b.mu.Unlock()
	return sp
}

// Span is one timed operation in a trace. All methods are safe on nil
// receivers and after the owning buffer has been flushed: every operation
// checks the buffer's closed flag under the buffer lock.
type Span struct {
	b      *Buffer
	id     uint32
	parent uint32
	name   string
	start  time.Time
	end    time.Time // guarded by b.mu
	ended  bool      // guarded by b.mu
	attrs  []Attr    // guarded by b.mu
}

// Child starts a sub-span.
func (sp *Span) Child(name string, attrs ...Attr) *Span {
	if sp == nil {
		return nil
	}
	return sp.b.start(sp, name, false, attrs)
}

// Event records an instantaneous child span (start == end).
func (sp *Span) Event(name string, attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.b.start(sp, name, true, attrs)
}

// SetAttrs appends attributes to the span.
func (sp *Span) SetAttrs(attrs ...Attr) {
	if sp == nil || len(attrs) == 0 {
		return
	}
	sp.b.mu.Lock()
	if !sp.b.closed {
		sp.attrs = append(sp.attrs, attrs...)
	}
	sp.b.mu.Unlock()
}

// End stamps the span's end time (idempotent).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.b.mu.Lock()
	if !sp.b.closed && !sp.ended {
		sp.end, sp.ended = sp.b.clk.Now(), true
	}
	sp.b.mu.Unlock()
}

// Adopt routes host-keyed events (Tracer.HostSpan/HostEvent) to this span
// until the returned release function runs. Nested adoptions restore the
// previous route on release, so a transaction span can temporarily shadow
// the probe root.
func (sp *Span) Adopt(host string) (release func()) {
	if sp == nil {
		return func() {}
	}
	t := sp.b.t
	t.routeMu.Lock()
	prev := t.routes[host]
	t.routes[host] = sp
	t.routeMu.Unlock()
	return func() {
		t.routeMu.Lock()
		if t.routes[host] == sp {
			if prev != nil {
				t.routes[host] = prev
			} else {
				delete(t.routes, host)
			}
		}
		t.routeMu.Unlock()
	}
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil. It never
// allocates, so hot paths can call it unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan starts a child of the context's span, returning the derived
// context and the new span. When ctx carries no span (tracing disabled) it
// returns ctx unchanged and a nil span without allocating.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name, attrs...)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}
