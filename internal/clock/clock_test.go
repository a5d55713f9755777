package clock

import (
	"context"
	"testing"
	"time"
)

var epoch = time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC)

func TestRealNow(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v, want between %v and %v", got, before, after)
	}
}

func TestRealSleepZero(t *testing.T) {
	if err := (Real{}).Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v, want nil", err)
	}
}

func TestRealSleepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (Real{}).Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestSimNowStartsAtEpoch(t *testing.T) {
	s := NewSim(epoch)
	if got := s.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
}

func TestSimAdvanceMovesTime(t *testing.T) {
	s := NewSim(epoch)
	s.Advance(48 * time.Hour)
	if got, want := s.Now(), epoch.Add(48*time.Hour); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

// TestSimAutoAdvanceSleep: a Sleep moves the timeline by exactly d and
// returns at once, with no Advance call and no other goroutine involved.
func TestSimAutoAdvanceSleep(t *testing.T) {
	s := NewSim(epoch)
	if err := s.Sleep(context.Background(), 90*time.Second); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if got, want := s.Now(), epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("woke at %v, want %v", got, want)
	}
}

func TestSimSleepCancelled(t *testing.T) {
	s := NewSim(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if got := s.Now(); !got.Equal(epoch) {
		t.Fatalf("cancelled Sleep moved the clock to %v", got)
	}
}

func TestSimSequentialCampaignCadence(t *testing.T) {
	// Emulates the longitudinal cadence: the driver sleeping 2 days, 10x.
	s := NewSim(epoch)
	for i := 0; i < 10; i++ {
		if err := s.Sleep(context.Background(), 48*time.Hour); err != nil {
			t.Fatalf("Sleep: %v", err)
		}
	}
	if got, want := s.Now(), epoch.Add(20*24*time.Hour); !got.Equal(want) {
		t.Fatalf("campaign ended at %v, want %v", got, want)
	}
}

func TestContextCarriesClock(t *testing.T) {
	s := NewSim(epoch)
	def := NewSim(epoch)
	if got := FromContext(context.Background(), def); got != Clock(def) {
		t.Fatalf("FromContext without a clock = %v, want the default", got)
	}
	if got := FromContext(NewContext(context.Background(), s), def); got != Clock(s) {
		t.Fatalf("FromContext = %v, want the carried clock", got)
	}
}
