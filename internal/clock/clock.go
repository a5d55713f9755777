// Package clock abstracts time so that the measurement pipeline can run
// either against the wall clock or against a simulated clock that advances
// virtual months in milliseconds.
//
// Every sleep, cadence, and timestamp in this repository flows through a
// Clock. The simulated implementation is a virtual timeline with one
// owner: sleeping on it moves it forward and returns at once, which makes
// four-month longitudinal campaigns deterministic and instantaneous.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks until d has elapsed or ctx is done. It returns ctx.Err()
	// when interrupted, nil otherwise.
	Sleep(ctx context.Context, d time.Duration) error
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Sim is a deterministic virtual timeline with one owner.
//
// Sleeping d moves the timeline forward by d and returns immediately, so
// its time is a pure function of its owner's own sleeps. The study driver
// owns the shared Sim a rig runs on; each campaign probe owns the Sim that
// NewFrame hands it, so a probe's politeness gaps, greylist waits, retry
// backoffs and tarpits never depend on what other probes do. Any
// goroutine may read Now (deadlines are minted on the shared Sim from
// every shard); tests move a Sim with Advance.
type Sim struct {
	mu  sync.Mutex
	now time.Time // guarded by mu
}

// NewSim returns a simulated clock starting at the given time.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advance moves virtual time forward by d.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// Sleep implements Clock: it returns ctx.Err() when ctx is done, and
// otherwise advances the timeline by d and returns at once.
func (s *Sim) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		s.Advance(d)
	}
	return nil
}

// NewFrame returns a fresh timeline starting at base when under is a
// simulated clock, or under itself otherwise.
//
// Campaigns hand each probe its own frame anchored at the measurement
// pass's shared instant, so every traced span timestamp depends only on
// the probe, never on how the batch was partitioned or sharded. Real-socket
// runs keep genuine politeness pacing and wall-time deadlines.
func NewFrame(under Clock, base time.Time) Clock {
	if _, ok := under.(*Sim); !ok {
		return under
	}
	return NewSim(base)
}

type ctxKey struct{}

// NewContext returns a copy of ctx that carries c as the timeline of the
// goroutine running under it.
func NewContext(ctx context.Context, c Clock) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the clock ctx carries, or def when it carries none.
// Code that sleeps on behalf of a caller (a tarpitted dial) uses it to
// sleep on the caller's own timeline.
func FromContext(ctx context.Context, def Clock) Clock {
	if c, ok := ctx.Value(ctxKey{}).(Clock); ok {
		return c
	}
	return def
}

var (
	_ Clock = Real{}
	_ Clock = (*Sim)(nil)
)
