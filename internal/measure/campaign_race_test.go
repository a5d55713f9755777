package measure

import (
	"context"
	"sync"
	"testing"

	"spfail/internal/clock"
)

// Two campaigns running concurrently in one process exercise every shared
// pool under contention — the DNS client's datagram buffers, the SMTP
// session buffer pools, the SPF evaluation sessions on the simulated MTAs,
// and the probers' scratch state. Each campaign must still report every
// address exactly once with an independent outcome. Run with -race (CI
// does).
func TestConcurrentCampaignsThroughPipelinedQuerier(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns")
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rig := newTestRig(t, clock.Real{})
		c := fastCampaign(rig)

		var domains []string
		for _, d := range rig.World.Domains[:20] {
			domains = append(domains, d.Name)
		}
		targets := rig.ResolveTargets(context.Background(), domains)
		addrs, rep := UniqueAddrs(targets)
		if len(addrs) == 0 {
			t.Fatal("no addresses resolved")
		}

		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results, err := c.MeasureAddrs(context.Background(), addrs, rep)
			if err != nil {
				t.Errorf("campaign %d: %v", i, err)
				return
			}
			if len(results) != len(addrs) {
				t.Errorf("campaign %d: %d results for %d addrs", i, len(results), len(addrs))
			}
			for a, o := range results {
				if o.Status == "" {
					t.Errorf("campaign %d: %s has empty outcome", i, a)
				}
			}
		}(i)
	}
	wg.Wait()
}
