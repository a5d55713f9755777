package measure

import (
	"context"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
)

// firstAddrs returns the world's first n addresses, each with the first
// domain hosted on it as its recipient domain.
func firstAddrs(rig *Rig, n int) ([]netip.Addr, map[netip.Addr]string) {
	addrs := rig.World.AllAddrs()
	if len(addrs) > n {
		addrs = addrs[:n]
	}
	rcpt := map[netip.Addr]string{}
	for _, a := range addrs {
		if ds := rig.World.DomainsOn(a); len(ds) > 0 {
			rcpt[a] = ds[0].Name
		}
	}
	return addrs, rcpt
}

// listening returns the indices of the addresses whose hosts listen.
func listening(rig *Rig, addrs []netip.Addr) []int {
	var idx []int
	for i, a := range addrs {
		if rig.World.Hosts[a].Listens {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestCampaignLiveHostsCappedByConcurrency: each host lives only for its
// own probe, so no more hosts run at once than the campaign has shards,
// however many hosts of a batch listen. Every address of both batches is
// reported, and no host is left afterwards.
func TestCampaignLiveHostsCappedByConcurrency(t *testing.T) {
	rig := newTestRig(t, clock.Real{})
	const concurrency = 2
	c := fastCampaignWith(rig, func(cfg *Config) {
		cfg.BatchSize = 30
		cfg.Concurrency = concurrency
	})
	addrs, rcpt := firstAddrs(rig, 60)
	if n := len(listening(rig, addrs[:30])); n <= concurrency {
		t.Fatalf("%d of the first batch's 30 addresses listen; need more than %d", n, concurrency)
	}
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			if n := rig.Manager.RunningCount(); n > most {
				most = n
			}
			select {
			case <-done:
				peak <- most
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	results, err := c.MeasureAddrs(context.Background(), addrs, rcpt)
	close(done)
	most := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(addrs) {
		t.Fatalf("results = %d, want %d", len(results), len(addrs))
	}
	if most > concurrency {
		t.Errorf("%d hosts ran at once, want at most %d (Concurrency)", most, concurrency)
	}
	if n := rig.Manager.RunningCount(); n != 0 {
		t.Errorf("%d hosts still running after the campaign", n)
	}
}

// TestCampaignHostStartFailure: a host that cannot start fails its batch
// once the other shards finish. Earlier batches are delivered, nothing of
// the failing one is, and no host stays up — not even the listening host
// probed before the failing one in the same batch.
func TestCampaignHostStartFailure(t *testing.T) {
	rig := newTestRig(t, clock.Real{})
	c := fastCampaignWith(rig, func(cfg *Config) {
		cfg.BatchSize = 10
		cfg.Concurrency = 3
	})
	addrs, rcpt := firstAddrs(rig, 20)
	second := listening(rig, addrs[10:])
	if len(second) < 2 {
		t.Fatalf("%d listening addresses in the second batch; need two", len(second))
	}
	blocked := addrs[10+second[1]]
	l, err := rig.Fabric.Host(blocked.String()).Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var delivered []netip.Addr
	err = c.MeasureAddrsFunc(context.Background(), addrs, rcpt, func(a netip.Addr, _ core.Outcome) {
		delivered = append(delivered, a)
	})
	if err == nil || !strings.Contains(err.Error(), "measure: starting batch hosts [10:20]") ||
		!strings.Contains(err.Error(), blocked.String()) {
		t.Fatalf("err = %v, want the start failure of %s in batch [10:20]", err, blocked)
	}
	if !slices.Equal(delivered, addrs[:10]) {
		t.Errorf("delivered %v, want the first batch %v only", delivered, addrs[:10])
	}
	if n := rig.Manager.RunningCount(); n != 0 {
		t.Errorf("%d hosts still running after the failed batch", n)
	}
	if got := c.ProbeSeq(); got != 10 {
		t.Errorf("ProbeSeq = %d after the failed batch, want 10", got)
	}
}

// TestCampaignLeavesEnsuredHostsUp: a host that was already running (the
// notification stage starts its hosts with Ensure) is probed as it is and
// still runs after the campaign; the campaign stops only what it started.
func TestCampaignLeavesEnsuredHostsUp(t *testing.T) {
	rig := newTestRig(t, clock.Real{})
	c := fastCampaignWith(rig, func(cfg *Config) { cfg.Concurrency = 2 })
	addrs, rcpt := firstAddrs(rig, 10)
	idx := listening(rig, addrs)
	if len(idx) == 0 {
		t.Fatal("no listening address among the first 10")
	}
	kept := addrs[idx[0]]
	if err := rig.Manager.Ensure(context.Background(), []netip.Addr{kept}); err != nil {
		t.Fatal(err)
	}
	results, err := c.MeasureAddrs(context.Background(), addrs, rcpt)
	if err != nil {
		t.Fatal(err)
	}
	if st := results[kept].Status; st == core.StatusConnectionRefused {
		t.Errorf("%s: %s, want the running host probed", kept, st)
	}
	if n := rig.Manager.RunningCount(); n != 1 {
		t.Errorf("%d hosts running after the campaign, want the one Ensure started", n)
	}
}

// TestCampaignContextCancellation stops mid-campaign without hanging.
func TestCampaignContextCancellation(t *testing.T) {
	rig := newTestRig(t, clock.Real{})
	c := fastCampaignWith(rig, func(cfg *Config) {
		cfg.BatchSize = 5
		cfg.Concurrency = 2
	})
	ctx, cancel := context.WithCancel(context.Background())

	addrs := rig.World.AllAddrs()
	if len(addrs) > 40 {
		addrs = addrs[:40]
	}
	rcpt := map[netip.Addr]string{}
	type measured struct {
		results map[netip.Addr]core.Outcome
		err     error
	}
	done := make(chan measured, 1)
	go func() {
		results, err := c.MeasureAddrs(ctx, addrs, rcpt)
		done <- measured{results, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case m := <-done:
		switch {
		case m.err == nil:
			t.Logf("campaign finished before cancellation took effect (%d results)", len(m.results))
		case context.Cause(ctx) != nil:
			// Cancellation surfaced as an error, as documented.
		default:
			t.Fatalf("unexpected error: %v", m.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
}

// TestCampaignIdempotentPerRound re-measures the same targets twice and
// verifies both rounds produce the same verdicts for stable hosts.
func TestCampaignStableVerdictsAcrossRounds(t *testing.T) {
	rig := newTestRig(t, clock.Real{})
	c := fastCampaign(rig)

	// Stable (non-flaky, non-blacklisting) vulnerable hosts only.
	var addrs []netip.Addr
	rcpt := map[netip.Addr]string{}
	for _, d := range rig.World.Domains {
		for _, a := range d.Hosts {
			h := rig.World.Hosts[a]
			if h.Listens && !h.RefuseSMTP && h.EverVulnerable() &&
				h.FlakyRate == 0 && h.BlacklistProbesAt.IsZero() && !h.BlankMsgFails {
				if _, ok := rcpt[a]; !ok {
					addrs = append(addrs, a)
					rcpt[a] = d.Name
				}
			}
		}
		if len(addrs) >= 5 {
			break
		}
	}
	if len(addrs) == 0 {
		t.Skip("no stable vulnerable hosts in tiny world")
	}
	r1, err1 := c.MeasureAddrs(context.Background(), addrs, rcpt)
	r2, err2 := c.MeasureAddrs(context.Background(), addrs, rcpt)
	if err1 != nil || err2 != nil {
		t.Fatalf("MeasureAddrs: %v / %v", err1, err2)
	}
	for _, a := range addrs {
		s1, s2 := StatusOf(r1[a]), StatusOf(r2[a])
		if s1 != s2 {
			t.Errorf("%s: round 1 %s vs round 2 %s", a, s1, s2)
		}
		if s1 != IPVulnerable {
			t.Errorf("%s: stable vulnerable host measured %s", a, s1)
		}
	}
}
