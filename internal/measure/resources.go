package measure

import (
	"sync"
	"time"

	"spfail/internal/obs"
)

// shardDelta is one shard worker's contribution to a single batch: how
// many probes it ran and how long it was live in wall time, host starts
// and stops included. Workers fill their own slot and the batch merges
// them serially, so no locking happens on the probe path.
type shardDelta struct {
	probes int64
	wall   time.Duration
}

// ShardStats is the cumulative work one shard index has done across all
// batches of the campaign so far.
type ShardStats struct {
	// Shard is the shard index (0 ≤ Shard < Concurrency).
	Shard int
	// Probes is how many probes the shard has completed.
	Probes int64
	// Wall is the total wall-clock time the shard's workers were live.
	Wall time.Duration
}

// Resources is the campaign's resource side table: per-shard work and
// heap-allocation deltas attributed to batches. It exists purely for
// observability — nothing in it feeds report or trace bytes — and shows
// where a scaled-up world will spend memory first.
type Resources struct {
	// Shards holds cumulative per-shard work, indexed by shard.
	Shards []ShardStats
	// AllocBytes and AllocObjects are the heap allocations the process
	// performed while batches were in flight, host starts and stops
	// included. The Go runtime has no per-goroutine allocation
	// accounting, so these are process-wide deltas sampled at batch
	// boundaries — concurrent non-campaign work is included, which is
	// the honest bound.
	AllocBytes   uint64
	AllocObjects uint64
	// Batches is how many batches contributed to the numbers above.
	Batches int64
}

// campaignStats accumulates Resources across batches.
type campaignStats struct {
	mu      sync.Mutex
	shards  []shardDelta    // guarded by mu
	alloc   obs.AllocCounts // guarded by mu
	batches int64           // guarded by mu
}

// absorb folds one batch's shard work and allocation delta into the
// running totals.
func (cs *campaignStats) absorb(work []shardDelta, alloc obs.AllocCounts) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(work) > len(cs.shards) {
		grown := make([]shardDelta, len(work))
		copy(grown, cs.shards)
		cs.shards = grown
	}
	for s, w := range work {
		cs.shards[s].probes += w.probes
		cs.shards[s].wall += w.wall
	}
	cs.alloc.Bytes += alloc.Bytes
	cs.alloc.Objects += alloc.Objects
	cs.batches++
}

// Resources returns a snapshot of the campaign's resource side table. It
// is safe to call while a measurement is running; numbers are consistent
// as of the last completed batch.
func (c *Campaign) Resources() Resources {
	c.stats.mu.Lock()
	defer c.stats.mu.Unlock()
	out := Resources{
		AllocBytes:   c.stats.alloc.Bytes,
		AllocObjects: c.stats.alloc.Objects,
		Batches:      c.stats.batches,
	}
	if len(c.stats.shards) > 0 {
		out.Shards = make([]ShardStats, len(c.stats.shards))
		for s, w := range c.stats.shards {
			out.Shards[s] = ShardStats{Shard: s, Probes: w.probes, Wall: w.wall}
		}
	}
	return out
}
