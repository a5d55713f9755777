package clock

import (
	"context"
	"testing"
	"time"
)

func TestFrameAdvancesOnlyThroughItsOwnSleeps(t *testing.T) {
	base := time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC)
	sim := NewSim(base)

	clk := NewFrame(sim, base)
	f, ok := clk.(*Sim)
	if !ok || f == sim {
		t.Fatalf("NewFrame over *Sim returned %T (shared: %v), want a fresh *Sim", clk, f == sim)
	}
	if got := f.Now(); !got.Equal(base) {
		t.Fatalf("fresh frame Now() = %v, want %v", got, base)
	}
	if err := f.Sleep(context.Background(), 90*time.Second); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if got, want := f.Now(), base.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("after Sleep Now() = %v, want %v", got, want)
	}
	// The underlying sim must not have moved: frames are detached.
	if got := sim.Now(); !got.Equal(base) {
		t.Fatalf("sim advanced to %v, want untouched %v", got, base)
	}
	// Advancing the sim must not leak into the frame either.
	sim.Advance(time.Hour)
	if got, want := f.Now(), base.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("frame followed the sim to %v, want %v", got, want)
	}
}

func TestFrameSleepHonoursCancelledContext(t *testing.T) {
	base := time.Unix(0, 0)
	f := NewFrame(NewSim(base), base)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Sleep(ctx, time.Second); err != context.Canceled {
		t.Fatalf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	if got := f.Now(); !got.Equal(base) {
		t.Fatalf("cancelled Sleep advanced the frame to %v", got)
	}
}

func TestFrameOverRealClockIsIdentity(t *testing.T) {
	real := Real{}
	if got := NewFrame(real, time.Unix(0, 0)); got != Clock(real) {
		t.Fatalf("NewFrame over Real returned %T, want the real clock unchanged", got)
	}
}
