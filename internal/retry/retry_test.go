package retry

import (
	"context"
	"testing"
	"time"

	"spfail/internal/clock"
)

// TestBackoffDeterminism: the jittered schedule is a pure function of
// (policy, key, attempt) — same seed, same delays, across fresh Policy
// values and regardless of evaluation order.
func TestBackoffDeterminism(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		keys []string
	}{
		{
			name: "jittered exponential",
			p:    Policy{MaxAttempts: 5, BaseDelay: 500 * time.Millisecond, MaxDelay: 30 * time.Second, Multiplier: 2, Jitter: 0.3, Seed: 42},
			keys: []string{"198.51.100.7:25", "203.0.113.9:25", "dns:192.0.2.53"},
		},
		{
			name: "no jitter",
			p:    Policy{MaxAttempts: 4, BaseDelay: time.Second, Multiplier: 3},
			keys: []string{"a", "b"},
		},
		{
			name: "capped",
			p:    Policy{MaxAttempts: 8, BaseDelay: time.Second, MaxDelay: 4 * time.Second, Multiplier: 2, Jitter: 0.5, Seed: -9},
			keys: []string{"x"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, key := range tc.keys {
				var first []time.Duration
				for attempt := 1; attempt < tc.p.MaxAttempts; attempt++ {
					first = append(first, tc.p.Backoff(key, attempt))
				}
				// Re-evaluate via a copied policy in reverse order.
				q := tc.p
				for attempt := tc.p.MaxAttempts - 1; attempt >= 1; attempt-- {
					got := q.Backoff(key, attempt)
					if got != first[attempt-1] {
						t.Fatalf("key %q attempt %d: %v != %v (schedule not deterministic)", key, attempt, got, first[attempt-1])
					}
				}
			}
		})
	}
}

// TestBackoffJitterBounds: jitter stays within ±Jitter of the nominal delay
// and actually varies across keys (otherwise it is not jitter).
func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseDelay: time.Second, Multiplier: 2, Jitter: 0.25, Seed: 7}
	nominal := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second}
	distinct := false
	var prev time.Duration
	for i, want := range nominal {
		attempt := i + 1
		for _, key := range []string{"h1", "h2", "h3", "h4"} {
			got := p.Backoff(key, attempt)
			lo := time.Duration(float64(want) * (1 - p.Jitter))
			hi := time.Duration(float64(want) * (1 + p.Jitter))
			if got < lo || got > hi {
				t.Fatalf("attempt %d key %q: backoff %v outside [%v, %v]", attempt, key, got, lo, hi)
			}
			if prev != 0 && got != prev {
				distinct = true
			}
			prev = got
		}
	}
	if !distinct {
		t.Fatal("jittered backoffs identical across keys; jitter is not being applied")
	}
}

// TestBackoffSeedChangesSchedule: different seeds produce different
// schedules (else the seed knob is dead).
func TestBackoffSeedChangesSchedule(t *testing.T) {
	a := Policy{MaxAttempts: 5, BaseDelay: time.Second, Multiplier: 2, Jitter: 0.4, Seed: 1}
	b := a
	b.Seed = 2
	same := true
	for attempt := 1; attempt < a.MaxAttempts; attempt++ {
		if a.Backoff("host", attempt) != b.Backoff("host", attempt) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestBackoffZeroValue(t *testing.T) {
	var p Policy
	if p.Enabled() {
		t.Fatal("zero Policy must be disabled")
	}
	if d := p.Backoff("k", 1); d != 0 {
		t.Fatalf("zero Policy backoff = %v, want 0", d)
	}
}

func TestPolicyNormalize(t *testing.T) {
	cases := []struct {
		name    string
		in      Policy
		wantErr bool
	}{
		{"zero ok", Policy{}, false},
		{"filled ok", Policy{MaxAttempts: 3, BaseDelay: time.Second, Jitter: 0.2}, false},
		{"negative attempts", Policy{MaxAttempts: -1}, true},
		{"negative base", Policy{BaseDelay: -1}, true},
		{"negative max", Policy{MaxDelay: -1}, true},
		{"max below base", Policy{BaseDelay: 2 * time.Second, MaxDelay: time.Second}, true},
		{"jitter too big", Policy{Jitter: 1}, true},
		{"negative jitter", Policy{Jitter: -0.1}, true},
		{"negative multiplier", Policy{Multiplier: -2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.in.Normalize()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Normalize(%+v) = %+v, want error", tc.in, out)
				}
				return
			}
			if err != nil {
				t.Fatalf("Normalize(%+v) error: %v", tc.in, err)
			}
			if out.MaxAttempts < 1 {
				t.Fatalf("normalized MaxAttempts %d < 1", out.MaxAttempts)
			}
			if out.Multiplier == 0 {
				t.Fatal("normalized Multiplier still 0")
			}
		})
	}
}

// TestWaitOnSimClock: Wait sleeps exactly the deterministic backoff on the
// virtual clock.
func TestWaitOnSimClock(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: 2 * time.Second, Multiplier: 2, Jitter: 0.5, Seed: 11}
	want := p.Backoff("host:25", 2)
	sim := clock.NewSim(time.Unix(0, 0))
	start := sim.Now()
	if err := p.Wait(context.Background(), sim, "host:25", 2); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := sim.Now().Sub(start); got != want {
		t.Fatalf("virtual time advanced %v, want backoff %v", got, want)
	}
}

func TestWaitCancelled(t *testing.T) {
	p := Policy{MaxAttempts: 2, BaseDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := clock.NewSim(time.Unix(0, 0))
	if err := p.Wait(ctx, sim, "k", 1); err == nil {
		t.Fatal("Wait with cancelled ctx returned nil")
	}
}

// TestBreakerTransitions walks the closed → open → half-open → closed and
// half-open → open paths.
func TestBreakerTransitions(t *testing.T) {
	cfg, err := BreakerConfig{Threshold: 3, Cooldown: time.Minute}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	b := NewBreakers(cfg)
	t0 := time.Unix(1000, 0)
	const key = "198.51.100.7"

	// Closed: admits, counts failures, opens at the threshold.
	for i := 0; i < 2; i++ {
		if !b.Allow(key, t0) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		if b.Failure(key, t0) {
			t.Fatalf("breaker opened after %d failures (threshold 3)", i+1)
		}
	}
	if st := b.State(key, t0); st != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", st)
	}
	if !b.Failure(key, t0) {
		t.Fatal("third failure did not open the breaker")
	}
	if st := b.State(key, t0); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}

	// Open: rejects until the cooldown elapses.
	if b.Allow(key, t0.Add(59*time.Second)) {
		t.Fatal("open breaker admitted before cooldown")
	}
	// Cooldown elapsed: half-open admits one trial.
	if !b.Allow(key, t0.Add(time.Minute)) {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if st := b.State(key, t0.Add(time.Minute)); st != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}

	// Half-open trial fails → reopens immediately for a fresh cooldown.
	t1 := t0.Add(time.Minute)
	if !b.Failure(key, t1) {
		t.Fatal("half-open failure did not reopen the breaker")
	}
	if b.Allow(key, t1.Add(30*time.Second)) {
		t.Fatal("reopened breaker admitted before its new cooldown")
	}

	// Second trial succeeds → closed, counter reset.
	t2 := t1.Add(time.Minute)
	if !b.Allow(key, t2) {
		t.Fatal("breaker did not half-open after second cooldown")
	}
	b.Success(key)
	if st := b.State(key, t2); st != BreakerClosed {
		t.Fatalf("state after success = %v, want closed", st)
	}
	// Counter was reset: two failures do not reopen.
	b.Failure(key, t2)
	if b.Failure(key, t2) {
		t.Fatal("breaker reopened after 2 post-reset failures (threshold 3)")
	}

	// Other keys are independent.
	if !b.Allow("203.0.113.1", t0) {
		t.Fatal("unrelated key affected by breaker state")
	}
}

func TestBreakersDisabledAndNil(t *testing.T) {
	var nilB *Breakers
	now := time.Unix(0, 0)
	if !nilB.Allow("k", now) {
		t.Fatal("nil Breakers must always allow")
	}
	nilB.Success("k")
	if nilB.Failure("k", now) {
		t.Fatal("nil Breakers reported open")
	}
	zero := NewBreakers(BreakerConfig{})
	for i := 0; i < 100; i++ {
		if zero.Failure("k", now) {
			t.Fatal("disabled breaker opened")
		}
	}
	if !zero.Allow("k", now) {
		t.Fatal("disabled breaker refused")
	}
}

func TestBreakerConfigNormalize(t *testing.T) {
	if _, err := (BreakerConfig{Cooldown: -1}).Normalize(); err == nil {
		t.Fatal("negative cooldown accepted")
	}
	got, err := BreakerConfig{Threshold: 2}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if got.Cooldown != 30*time.Minute {
		t.Fatalf("default cooldown = %v, want 30m", got.Cooldown)
	}
}
