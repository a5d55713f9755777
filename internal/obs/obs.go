// Package obs is the runtime resource observability layer: it watches what
// the process itself costs — heap, GC, goroutines, scheduler latency,
// resident set size — the way internal/telemetry watches what the
// measurement does.
//
// Three tiers build on each other:
//
//   - Collector polls runtime/metrics on a wall-clock cadence and publishes
//     runtime.* gauges, counters, and histograms into a telemetry.Registry,
//     so live campaigns expose their resource envelope on /metrics and in
//     --metrics JSON.
//   - StageProbe captures before/after deltas (allocations, heap growth,
//     GC cycles, wall and virtual time, peak RSS) around a study stage,
//     producing the StageResources rows of the report's resource table.
//   - A memory budget: its soft half is the Go runtime's memory limit
//     (debug.SetMemoryLimit, which the collector publishes as
//     runtime.mem.limit_bytes); its hard half is Collector.LimitRSS,
//     which fails the run with a structured error instead of an OOM kill.
//
// Resource numbers are a side channel by construction: nothing in this
// package feeds the seeded report or trace bytes, so budgeted and
// unbudgeted same-seed runs stay byte-identical.
package obs

import (
	"runtime/metrics"
	"sync"
)

// runtime/metrics keys the package samples. All of them exist since
// go1.21 (/gc/gomemlimit:bytes is the newest), below the module's go1.22.
const (
	keyHeapLive     = "/memory/classes/heap/objects:bytes"
	keyHeapGoal     = "/gc/heap/goal:bytes"
	keyGoroutines   = "/sched/goroutines:goroutines"
	keyGCCycles     = "/gc/cycles/total:gc-cycles"
	keyAllocBytes   = "/gc/heap/allocs:bytes"
	keyAllocObjects = "/gc/heap/allocs:objects"
	keyGCPauses     = "/gc/pauses:seconds"
	keySchedLat     = "/sched/latencies:seconds"
	keyMemTotal     = "/memory/classes/total:bytes"
	keyMemLimit     = "/gc/gomemlimit:bytes"
)

// AllocCounts is a cumulative heap-allocation reading: total bytes and
// objects allocated since process start (freed memory included — these
// only grow).
type AllocCounts struct {
	Bytes   uint64
	Objects uint64
}

// Sub returns the delta a−b, the allocations performed between the two
// readings.
func (a AllocCounts) Sub(b AllocCounts) AllocCounts {
	return AllocCounts{Bytes: a.Bytes - b.Bytes, Objects: a.Objects - b.Objects}
}

// AllocSampler reads cumulative allocation counters with reusable sample
// storage: after the first call, Sample performs no heap allocations, so
// hot paths (the campaign samples at every batch-wave boundary) can use it
// freely. The zero value is ready to use; a sampler must not be shared
// between goroutines without external locking.
type AllocSampler struct {
	samples [2]metrics.Sample
	ready   bool
}

// Sample returns the current cumulative allocation counters.
func (s *AllocSampler) Sample() AllocCounts {
	if !s.ready {
		s.samples[0].Name = keyAllocBytes
		s.samples[1].Name = keyAllocObjects
		s.ready = true
	}
	metrics.Read(s.samples[:])
	return AllocCounts{
		Bytes:   s.samples[0].Value.Uint64(),
		Objects: s.samples[1].Value.Uint64(),
	}
}

// fallbackRSS approximates the resident set with the Go runtime's total
// mapped memory when the platform offers no direct reading. It undercounts
// non-Go mappings but keeps budget semantics meaningful everywhere.
var (
	fallbackMu     sync.Mutex
	fallbackSample [1]metrics.Sample // guarded by fallbackMu
)

func fallbackRSS() int64 {
	fallbackMu.Lock()
	defer fallbackMu.Unlock()
	if fallbackSample[0].Name == "" {
		fallbackSample[0].Name = keyMemTotal
	}
	metrics.Read(fallbackSample[:])
	return int64(fallbackSample[0].Value.Uint64())
}
