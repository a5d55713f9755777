package core

import (
	"errors"
	"testing"

	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
)

// A probe's evidence, once forgotten, must never resurface: not under its
// own id, and not under the id of the next probe the collector sees.
func TestCollectorForgottenEvidenceDoesNotResurface(t *testing.T) {
	zone := &dnsserver.SPFTestZone{Base: dnsmsg.MustParseName("spf-test.dns-lab.org")}
	c := NewCollector(zone)

	for i := 0; i < 3; i++ {
		c.Observe(dnsserver.QueryEvent{
			Name: dnsmsg.MustParseName("poison.aaaa.s01.spf-test.dns-lab.org"),
			Type: dnsmsg.TypeA,
		})
	}
	if got := len(c.AppendQueriesFor(nil, "aaaa")); got != 3 {
		t.Fatalf("AppendQueriesFor(aaaa) = %d, want 3", got)
	}
	c.Forget("aaaa")

	// The next probe id must see only its own single event, and the
	// forgotten id must stay empty.
	c.Observe(dnsserver.QueryEvent{
		Name: dnsmsg.MustParseName("fresh.bbbb.s01.spf-test.dns-lab.org"),
		Type: dnsmsg.TypeA,
	})
	got := c.AppendQueriesFor(nil, "bbbb")
	if len(got) != 1 {
		t.Fatalf("AppendQueriesFor(bbbb) = %d events, want 1", len(got))
	}
	if got[0].Name.String() != "fresh.bbbb.s01.spf-test.dns-lab.org." {
		t.Fatalf("forgotten evidence resurfaced under another id: %s", got[0].Name)
	}
	if leak := c.AppendQueriesFor(nil, "aaaa"); len(leak) != 0 {
		t.Fatalf("forgotten id still has %d events", len(leak))
	}
}

// AppendQueriesFor must append into the caller's scratch without retaining
// it: mutating the returned slice cannot corrupt the collector's records.
func TestCollectorAppendQueriesForUsesCallerScratch(t *testing.T) {
	zone := &dnsserver.SPFTestZone{Base: dnsmsg.MustParseName("spf-test.dns-lab.org")}
	c := NewCollector(zone)
	c.Observe(dnsserver.QueryEvent{
		Name: dnsmsg.MustParseName("x.cccc.s01.spf-test.dns-lab.org"),
		Type: dnsmsg.TypeA,
	})

	scratch := make([]dnsserver.QueryEvent, 0, 8)
	out := c.AppendQueriesFor(scratch[:0], "cccc")
	if len(out) != 1 {
		t.Fatalf("AppendQueriesFor = %d events, want 1", len(out))
	}
	out[0].Name = dnsmsg.MustParseName("scribbled.example.com")
	if got := c.AppendQueriesFor(nil, "cccc"); got[0].Name.String() != "x.cccc.s01.spf-test.dns-lab.org." {
		t.Fatal("mutating the returned scratch corrupted the collector's record")
	}
}

// The prober's transactionResult scratch must scrub every field on reset so
// one probe's SMTP evidence (ids, observation, errors) can never bleed into
// the next probe served by the same shard prober.
func TestTransactionResultResetScrubsAllState(t *testing.T) {
	res := &transactionResult{
		ids: []string{"poison1", "poison2"},
		obs: Observation{
			PolicyFetched: true,
			LivenessSeen:  true,
			Patterns:      []string{"poison.pattern"},
			Classes:       []BehaviorClass{ClassVulnerable},
		},
		err:      errors.New("poison error"),
		stage:    StageData,
		refused:  true,
		username: "poisonuser",
	}
	res.reset()

	if len(res.ids) != 0 || len(res.obs.Patterns) != 0 || len(res.obs.Classes) != 0 {
		t.Fatalf("reset kept slice contents: %+v", res)
	}
	if res.obs.PolicyFetched || res.obs.LivenessSeen {
		t.Fatalf("reset kept observation flags: %+v", res.obs)
	}
	if res.err != nil || res.stage != "" || res.refused || res.username != "" {
		t.Fatalf("reset kept scalar state: %+v", res)
	}
	// Capacity is retained — that is the point of the scratch.
	if cap(res.ids) < 2 || cap(res.obs.Patterns) < 1 {
		t.Fatal("reset dropped slice capacity")
	}
}

// LabelStream.Reset must reproduce exactly the stream a fresh LabelStream
// hands out for the same (seed, index), regardless of what the stream
// emitted before the reset.
func TestLabelStreamResetMatchesFreshStream(t *testing.T) {
	fallback := NewLabelAllocator(1)
	stream := NewLabelStream(99, fallback)

	// Burn some draws on another index to poison the cursor.
	stream.Reset(7)
	for i := 0; i < 5; i++ {
		stream.Next()
	}

	stream.Reset(3)
	fresh := streamAt(99, 3, NewLabelAllocator(1))
	for i := 0; i < 10; i++ {
		if got, want := stream.Next(), fresh.Next(); got != want {
			t.Fatalf("draw %d: reused stream = %q, fresh stream = %q", i, got, want)
		}
	}
}

// TestClassifyWithoutQueriesAllocatesNothing: a transaction that logged no
// query, as every one ending at a 421 banner, is classified without
// building its mail domain, and observes nothing.
func TestClassifyWithoutQueriesAllocatesNothing(t *testing.T) {
	c := NewClassifier(&dnsserver.SPFTestZone{Base: dnsmsg.MustParseName("spf-test.dns-lab.org")})
	var obs Observation
	allocs := testing.AllocsPerRun(200, func() {
		obs = c.Classify("x7k2", "s01", nil)
	})
	if allocs != 0 {
		t.Errorf("Classify with no queries makes %.1f allocations, want 0", allocs)
	}
	if obs.PolicyFetched || obs.LivenessSeen || obs.Patterns != nil || obs.Classes != nil {
		t.Errorf("Classify with no queries = %+v, want the zero Observation", obs)
	}
}
