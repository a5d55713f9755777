package clock

import (
	"context"
	"sync"
	"time"
)

// Frame is a probe-local virtual timeline layered over a simulated clock.
//
// A Frame starts at a fixed base instant and advances only through its own
// Sleep/After calls: sleeping d moves the frame forward by d and returns
// immediately, without touching the underlying scheduler. Handing each
// campaign probe its own Frame anchored at the measurement pass's shared
// asOf makes every probe's timeline a pure function of the probe itself —
// politeness gaps, greylist backoffs, and retry waits land at the same
// virtual offsets no matter how the batch is partitioned or how many
// shards execute it. That is what keeps traced span timestamps (and
// therefore trace bytes) independent of execution geometry: BatchSize and
// Concurrency are wall-time knobs that never perturb deterministic
// output.
//
// Frames are only meaningful on a simulated clock; NewFrame returns the
// underlying clock unchanged when it is not a *Sim, so real-socket runs
// keep genuine politeness pacing and wall-time deadlines.
type Frame struct {
	base time.Time

	mu     sync.Mutex
	offset time.Duration // guarded by mu
}

// NewFrame returns a detached virtual timeline starting at base when under
// is a simulated clock, or under itself otherwise.
func NewFrame(under Clock, base time.Time) Clock {
	if _, ok := under.(*Sim); !ok {
		return under
	}
	return &Frame{base: base}
}

// Now implements Clock.
func (f *Frame) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base.Add(f.offset)
}

// Sleep implements Clock: the frame jumps forward by d and returns
// immediately. A cancelled context is still honoured so callers observe
// the same contract as a scheduled sleep.
func (f *Frame) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	f.mu.Lock()
	f.offset += d
	f.mu.Unlock()
	return nil
}

// After implements Clock: the returned channel already holds the frame
// time d past now, and the frame advances by d exactly as Sleep does.
func (f *Frame) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	f.mu.Lock()
	if d > 0 {
		f.offset += d
	}
	ch <- f.base.Add(f.offset)
	f.mu.Unlock()
	return ch
}

var _ Clock = (*Frame)(nil)
