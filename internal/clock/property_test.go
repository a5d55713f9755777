package clock

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestPropertySimWakeOrder: under arbitrary sets of concurrent sleepers,
// each on its own frame over one shared Sim, every sleep wakes exactly at
// its deadline on the sleeper's timeline, and the shared timeline never
// moves.
func TestPropertySimWakeOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		shared := NewSim(epoch)
		n := 2 + r.Intn(6)
		sleeps := make([][]time.Duration, n)
		for i := range sleeps {
			sleeps[i] = make([]time.Duration, 1+r.Intn(5))
			for j := range sleeps[i] {
				sleeps[i][j] = time.Duration(1+r.Intn(10_000)) * time.Millisecond
			}
		}
		ok := make([]bool, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				frame := NewFrame(shared, epoch)
				want := epoch
				for _, d := range sleeps[i] {
					want = want.Add(d)
					if frame.Sleep(context.Background(), d) != nil || !frame.Now().Equal(want) {
						return
					}
				}
				ok[i] = true
			}()
		}
		wg.Wait()
		for _, o := range ok {
			if !o {
				return false
			}
		}
		return shared.Now().Equal(epoch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAdvanceMonotonic: Advance and Sleep never move time
// backwards, and the timeline reads exactly the sum of what moved it.
func TestPropertyAdvanceMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSim(epoch)
		want := epoch
		for step := 0; step < 20; step++ {
			d := time.Duration(r.Intn(5000)) * time.Millisecond
			before := s.Now()
			if r.Intn(2) == 0 {
				s.Advance(d)
			} else if s.Sleep(context.Background(), d) != nil {
				return false
			}
			want = want.Add(d)
			if s.Now().Before(before) || !s.Now().Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
