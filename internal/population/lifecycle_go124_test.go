//go:build go1.24

package population

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spfail/internal/mta"
)

// TestStoppedHostsAreCollected: every stopped host must become garbage
// although the context that started it is still live. A host reaches
// itself through its SMTP server's Handler, and the runtime never runs a
// SetFinalizer on an object in a cycle with itself, so the test observes
// collection with runtime.AddCleanup, which has no such limit.
func TestStoppedHostsAreCollected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // runs after every check: the context outlives the hosts
	var collected atomic.Int64
	n := startStopWaves(t, ctx, func(h *mta.Host) {
		runtime.AddCleanup(h, func(c *atomic.Int64) { c.Add(1) }, &collected)
	})
	deadline := time.Now().Add(releaseDeadline)
	for collected.Load() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d stopped hosts collected after %v", collected.Load(), n, releaseDeadline)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
