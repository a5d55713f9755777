// Package telemetry is a dependency-free metrics layer for the probing
// stack: atomic counters, gauges with high-water marks, bounded latency
// histograms with quantile snapshots, and a structured event hook.
//
// Every serving layer (DNS server, DNS client, SMTP, the prober, the
// campaign scheduler) takes an optional *Registry and records into it on
// the hot path. All methods are safe on nil receivers, so an unwired
// component pays only a predictable-branch per call and no registry needs
// to be plumbed through tests that do not care.
//
// The package is deliberately clock-agnostic: histograms record
// time.Duration values measured by the caller (wall or simulated clock),
// and events carry no implicit timestamp, which keeps snapshots
// deterministic under the virtual clock.
package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that also tracks its high-water mark
// (e.g. "SMTP connections in flight, and the most we ever had").
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	g.raiseMax(n)
}

// Add shifts the value by delta (use negative delta to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.raiseMax(g.v.Add(delta))
}

func (g *Gauge) raiseMax(n int64) {
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBuckets bounds the histogram: bucket i covers durations up to
// histBase<<i, so the range spans 1µs .. ~1.6 days and memory per
// histogram is fixed regardless of sample count.
const (
	histBuckets = 48
	histBase    = time.Microsecond
)

// Histogram is a bounded exponential-bucket latency histogram. Recording
// is lock-free; quantiles are approximated by linear interpolation inside
// the matched bucket (exact min/max are tracked separately).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; valid when count > 0
	max     atomic.Int64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	if d < histBase {
		return 0
	}
	i := 0
	for b := histBase; d > b && i < histBuckets-1; b <<= 1 {
		i++
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration { return histBase << uint(i) }

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.buckets[bucketFor(d)].Add(1)
	h.sum.Add(ns)
	if h.count.Add(1) == 1 {
		h.min.Store(ns)
		h.max.Store(ns)
		return
	}
	for {
		m := h.min.Load()
		if ns >= m || h.min.CompareAndSwap(m, ns) {
			break
		}
	}
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// RecordN adds n identical observations in one shot. Bulk feeders (the
// runtime-metrics collector folds whole runtime histogram buckets in per
// poll) use it to avoid n CAS loops; the result is indistinguishable from
// calling Record(d) n times.
func (h *Histogram) RecordN(d time.Duration, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if n == 1 {
		h.Record(d)
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.buckets[bucketFor(d)].Add(n)
	h.sum.Add(ns * n)
	if h.count.Add(n) == n {
		h.min.Store(ns)
		h.max.Store(ns)
		return
	}
	for {
		m := h.min.Load()
		if ns >= m || h.min.CompareAndSwap(m, ns) {
			break
		}
	}
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is the exported view of a histogram. Durations are in
// seconds for readability in the JSON report.
type HistogramSnapshot struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// Snapshot computes the exported view. It is consistent enough for
// reporting: buckets are read once, in order.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Count:      total,
		SumSeconds: time.Duration(h.sum.Load()).Seconds(),
	}
	if total == 0 {
		return s
	}
	s.MinSeconds = time.Duration(h.min.Load()).Seconds()
	s.MaxSeconds = time.Duration(h.max.Load()).Seconds()
	s.P50Seconds = quantile(counts[:], total, 0.50)
	s.P95Seconds = quantile(counts[:], total, 0.95)
	s.P99Seconds = quantile(counts[:], total, 0.99)
	return s
}

// quantile locates the bucket holding the q-th sample and interpolates
// linearly inside it.
func quantile(counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketUpper(i - 1).Seconds()
			}
			hi := bucketUpper(i).Seconds()
			frac := (rank - seen) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		seen += float64(c)
	}
	return bucketUpper(histBuckets - 1).Seconds()
}

// Event is one structured occurrence published to hooks (campaign batch
// finished, notification sent, ...). Fields are free-form; emitters keep
// them small and flat.
type Event struct {
	Name   string
	Fields map[string]any
}

// Registry holds named metrics. Names are dotted lowercase paths; dynamic
// dimensions (qtype, outcome status, SMTP verb) go in the final segment,
// e.g. "dns.server.qtype.TXT".
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu

	hookMu sync.RWMutex
	hooks  []func(Event) // guarded by hookMu
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns a
// no-op nil counter when the registry itself is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// OnEvent registers a hook invoked synchronously for every Emit. Hooks
// must be fast and must not call back into Emit.
func (r *Registry) OnEvent(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

// Emit publishes a structured event to all hooks. It is a no-op (and does
// not build fields maps' consumers) when no hook is registered or the
// registry is nil.
func (r *Registry) Emit(name string, fields map[string]any) {
	if r == nil {
		return
	}
	r.hookMu.RLock()
	hooks := r.hooks
	r.hookMu.RUnlock()
	if len(hooks) == 0 {
		return
	}
	ev := Event{Name: name, Fields: fields}
	for _, fn := range hooks {
		fn(ev)
	}
}

// GaugeSnapshot is the exported view of a gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of every metric, ready for JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Map iteration is unordered
// but the result is value-deterministic; use WriteJSON for stable output.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]GaugeSnapshot),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), suitable for the --metrics report.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
