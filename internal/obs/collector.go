package obs

import (
	"context"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"spfail/internal/clock"
	"spfail/internal/telemetry"
)

// DefaultSampleInterval is the collector cadence when none is configured.
const DefaultSampleInterval = time.Second

// Collector polls runtime/metrics and publishes the readings as
// runtime.* instruments in a telemetry.Registry (see docs/telemetry.md
// for the inventory). Sample storage is allocated once, so steady-state
// polling does not itself disturb the allocation numbers it reports.
//
// The collector runs on the injected clock — production callers pass
// clock.Real{}; a study on a virtual clock still samples on the wall
// timeline, because resource usage is a wall-time phenomenon. Start,
// Stop, and Sample are not safe to call concurrently with each other;
// the accessors (RSS, PeakRSS) are safe from any goroutine.
//
// The collector also enforces the hard half of a memory budget (see
// LimitRSS). The soft half is the Go runtime's own memory limit
// (debug.SetMemoryLimit), which the collector only reports.
type Collector struct {
	reg      *telemetry.Registry
	clk      clock.Clock
	interval time.Duration

	mu         sync.Mutex
	samples    []metrics.Sample // guarded by mu
	prevGC     uint64           // guarded by mu
	prevAlloc  uint64           // guarded by mu
	prevPauses []uint64         // guarded by mu
	prevSched  []uint64         // guarded by mu
	hardRSS    int64            // guarded by mu
	onHard     func(error)      // guarded by mu
	hardFired  bool             // guarded by mu

	lastRSS atomic.Int64
	peakRSS atomic.Int64

	cancel context.CancelFunc
	done   chan struct{}
}

// collectorKeys lists the sampled metrics in fixed slot order.
var collectorKeys = [...]string{
	keyHeapLive,
	keyHeapGoal,
	keyGoroutines,
	keyGCCycles,
	keyAllocBytes,
	keyGCPauses,
	keySchedLat,
	keyMemLimit,
}

const (
	slotHeapLive = iota
	slotHeapGoal
	slotGoroutines
	slotGCCycles
	slotAllocBytes
	slotGCPauses
	slotSchedLat
	slotMemLimit
)

// NewCollector builds a collector publishing into reg every interval
// (DefaultSampleInterval when interval ≤ 0) on clk's timeline.
func NewCollector(reg *telemetry.Registry, clk clock.Clock, interval time.Duration) *Collector {
	if clk == nil {
		clk = clock.Real{}
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	c := &Collector{reg: reg, clk: clk, interval: interval}
	c.mu.Lock()
	c.samples = make([]metrics.Sample, len(collectorKeys))
	for i, k := range collectorKeys {
		c.samples[i].Name = k
	}
	c.mu.Unlock()
	return c
}

// LimitRSS arms the hard memory limit: the first Sample that reads RSS
// above limit counts budget.hard_breaches and calls hook with a
// *BudgetError wrapping ErrBudgetExceeded. Later samples above the limit
// do neither. The hook runs on whichever goroutine took that Sample,
// after the collector's lock is released; a run passes its cancel
// function. Call LimitRSS before Start.
func (c *Collector) LimitRSS(limit int64, hook func(error)) {
	c.mu.Lock()
	c.hardRSS = limit
	c.onHard = hook
	c.mu.Unlock()
}

// Sample takes one poll: reads runtime/metrics and RSS, publishes the
// results, and enforces the limit LimitRSS armed. It is the unit the
// background loop repeats and is exported so callers can force a final
// reading before snapshotting the registry.
func (c *Collector) Sample() {
	c.mu.Lock()
	metrics.Read(c.samples)

	c.reg.Gauge("runtime.heap.live_bytes").Set(int64(c.samples[slotHeapLive].Value.Uint64()))
	c.reg.Gauge("runtime.heap.goal_bytes").Set(int64(c.samples[slotHeapGoal].Value.Uint64()))
	c.reg.Gauge("runtime.sched.goroutines").Set(int64(c.samples[slotGoroutines].Value.Uint64()))
	c.reg.Gauge("runtime.mem.limit_bytes").Set(int64(c.samples[slotMemLimit].Value.Uint64()))

	if gc := c.samples[slotGCCycles].Value.Uint64(); gc > c.prevGC {
		c.reg.Counter("runtime.gc.cycles").Add(int64(gc - c.prevGC))
		c.prevGC = gc
	}
	if alloc := c.samples[slotAllocBytes].Value.Uint64(); alloc > c.prevAlloc {
		c.reg.Counter("runtime.heap.alloc_bytes").Add(int64(alloc - c.prevAlloc))
		c.prevAlloc = alloc
	}

	c.foldHistogram(c.reg.Histogram("runtime.gc.pause"), c.samples[slotGCPauses].Value.Float64Histogram(), &c.prevPauses)
	c.foldHistogram(c.reg.Histogram("runtime.sched.latency"), c.samples[slotSchedLat].Value.Float64Histogram(), &c.prevSched)

	rss := readRSS()
	c.lastRSS.Store(rss)
	raiseMax(&c.peakRSS, rss)
	c.reg.Gauge("runtime.mem.rss_bytes").Set(rss)
	c.reg.Counter("runtime.obs.samples").Inc()

	var breach error
	if c.hardRSS > 0 && rss > c.hardRSS && !c.hardFired {
		c.hardFired = true
		breach = &BudgetError{RSS: rss, Limit: c.hardRSS}
	}
	hook := c.onHard
	c.mu.Unlock()
	if breach != nil {
		c.reg.Counter("budget.hard_breaches").Inc()
		hook(breach)
	}
}

// foldHistogram feeds the per-bucket growth of a runtime histogram into a
// telemetry histogram, one RecordN per bucket that moved. Buckets are
// attributed to their upper bound (the runtime's buckets are fine-grained
// enough that the coarser telemetry buckets dominate the rounding).
func (c *Collector) foldHistogram(h *telemetry.Histogram, cur *metrics.Float64Histogram, prev *[]uint64) {
	if cur == nil {
		return
	}
	counts := cur.Counts
	bounds := cur.Buckets
	if len(*prev) != len(counts) {
		*prev = make([]uint64, len(counts))
	}
	for i, n := range counts {
		d := n - (*prev)[i]
		if d == 0 {
			continue
		}
		(*prev)[i] = n
		upper := bounds[i+1]
		if math.IsInf(upper, +1) {
			upper = bounds[i]
		}
		if math.IsInf(upper, -1) || upper < 0 {
			upper = 0
		}
		h.RecordN(time.Duration(upper*float64(time.Second)), int64(d))
	}
}

// RSS returns the resident set size from the latest Sample.
func (c *Collector) RSS() int64 { return c.lastRSS.Load() }

// PeakRSS returns the largest RSS any Sample has observed. Stage probes
// compare it across their window to attribute a peak to a stage.
func (c *Collector) PeakRSS() int64 { return c.peakRSS.Load() }

// Start takes one Sample, so even a run shorter than the interval
// enforces its hard limit, then launches the background sampling loop.
// Stop (or nothing — the goroutine is harmless at process exit) ends it.
func (c *Collector) Start() {
	if c.cancel != nil {
		return
	}
	c.Sample()
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	done := make(chan struct{})
	c.done = done
	go func() {
		defer close(done)
		for c.clk.Sleep(ctx, c.interval) == nil {
			c.Sample()
		}
	}()
}

// Stop ends the background loop and takes one final Sample so registry
// snapshots taken at exit reflect the end state.
func (c *Collector) Stop() {
	if c.cancel == nil {
		return
	}
	c.cancel()
	<-c.done
	c.cancel = nil
	c.Sample()
}

// raiseMax lifts the atomic to at least v.
func raiseMax(a *atomic.Int64, v int64) {
	for {
		m := a.Load()
		if v <= m || a.CompareAndSwap(m, v) {
			return
		}
	}
}
