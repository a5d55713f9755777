package dnsclient

import (
	"context"
	"errors"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
	"spfail/internal/telemetry"
)

// countingSink counts queries reaching the authoritative server.
type countingSink struct{ n int }

func (c *countingSink) Observe(dnsserver.QueryEvent) { c.n++ }

func newCachedSetup(t *testing.T, clk clock.Clock) (*Resolver, *CachingClient, *countingSink) {
	t.Helper()
	fabric := netsim.NewFabric()
	sink := &countingSink{}
	handler := &dnsserver.LoggingHandler{Inner: testZone(), Sink: sink, Now: time.Now}
	srv := &dnsserver.Server{Net: fabric.Host("192.0.2.53"), Addr: ":53", Handler: handler}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	wire := &Client{Net: fabric.Host("198.51.100.1"), Server: "192.0.2.53:53", Timeout: time.Second}
	cache := NewCachingClient(wire, clk)
	cache.Metrics = telemetry.New()
	return NewResolver(cache), cache, sink
}

// cacheStats reads the hit/miss counters the cache published.
func cacheStats(cache *CachingClient) (hits, misses int64) {
	return cache.Metrics.Counter("dns.cache.hits").Value(),
		cache.Metrics.Counter("dns.cache.misses").Value()
}

func TestCacheServesRepeatsLocally(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	r, cache, sink := newCachedSetup(t, sim)

	for i := 0; i < 5; i++ {
		txts, err := r.LookupTXT(context.Background(), "example.com")
		if err != nil || len(txts) == 0 {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if sink.n != 1 {
		t.Fatalf("authoritative server saw %d queries, want 1", sink.n)
	}
	hits, misses := cacheStats(cache)
	if hits != 4 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses", hits, misses)
	}
}

func TestCacheExpiresWithTTL(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	r, _, sink := newCachedSetup(t, sim)

	// testZone records carry TTL 300.
	if _, err := r.LookupTXT(context.Background(), "example.com"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(299 * time.Second)
	r.LookupTXT(context.Background(), "example.com")
	if sink.n != 1 {
		t.Fatalf("pre-expiry refetch: server saw %d queries", sink.n)
	}
	sim.Advance(2 * time.Second)
	r.LookupTXT(context.Background(), "example.com")
	if sink.n != 2 {
		t.Fatalf("post-expiry: server saw %d queries, want 2", sink.n)
	}
}

func TestCacheNegativeAnswers(t *testing.T) {
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	r, cache, sink := newCachedSetup(t, sim)

	for i := 0; i < 3; i++ {
		_, err := r.LookupTXT(context.Background(), "missing.example.com")
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	// Negative answers carry the zone SOA (minimum 0 → fallback TTL), so
	// repeats must be served locally.
	if sink.n != 1 {
		t.Fatalf("negative lookups reached server %d times", sink.n)
	}
	if hits, _ := cacheStats(cache); hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestCacheDistinctNamesMiss(t *testing.T) {
	// The SPFail label design: unique names can never be cache hits.
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	r, cache, sink := newCachedSetup(t, sim)
	names := []string{"example.com", "mail.example.com"}
	for _, n := range names {
		r.LookupTXT(context.Background(), n)
	}
	if sink.n != len(names) {
		t.Fatalf("server saw %d queries for %d distinct names", sink.n, len(names))
	}
	if hits, _ := cacheStats(cache); hits != 0 {
		t.Fatalf("distinct names produced %d cache hits", hits)
	}
}

func TestCacheNegativeHonorsSOAMinimum(t *testing.T) {
	// A zone whose SOA carries a nonzero minimum: negative answers must be
	// cached for exactly that long on the virtual clock, not the fallback.
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	fabric := netsim.NewFabric()
	sink := &countingSink{}
	z := dnsserver.NewZoneSet()
	z.Add(dnsmsg.Record{Name: dnsmsg.MustParseName("example.org"), Class: dnsmsg.ClassIN, TTL: 3600,
		Data: dnsmsg.SOA{MName: dnsmsg.MustParseName("ns.example.org"),
			RName: dnsmsg.MustParseName("root.example.org"), Serial: 1, Minimum: 120}})
	handler := &dnsserver.LoggingHandler{Inner: z, Sink: sink, Now: time.Now}
	srv := &dnsserver.Server{Net: fabric.Host("192.0.2.53"), Addr: ":53", Handler: handler}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	wire := &Client{Net: fabric.Host("198.51.100.1"), Server: "192.0.2.53:53", Timeout: time.Second}
	r := NewResolver(NewCachingClient(wire, sim))

	if _, err := r.LookupTXT(context.Background(), "nope.example.org"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	sim.Advance(119 * time.Second)
	r.LookupTXT(context.Background(), "nope.example.org")
	if sink.n != 1 {
		t.Fatalf("within SOA minimum: server saw %d queries, want 1", sink.n)
	}
	sim.Advance(2 * time.Second)
	r.LookupTXT(context.Background(), "nope.example.org")
	if sink.n != 2 {
		t.Fatalf("past SOA minimum: server saw %d queries, want 2", sink.n)
	}
}

func TestCacheTTLCap(t *testing.T) {
	msg := &dnsmsg.Message{Header: dnsmsg.Header{Response: true}}
	msg.Answers = append(msg.Answers, dnsmsg.Record{
		Name: dnsmsg.MustParseName("x.example"), Class: dnsmsg.ClassIN,
		TTL: 86400, Data: dnsmsg.TXT{Strings: []string{"v"}},
	})
	if ttl := ttlFor(msg); ttl != time.Hour {
		t.Fatalf("capped ttl = %v, want 1h", ttl)
	}
	// SERVFAIL is never cached.
	bad := &dnsmsg.Message{Header: dnsmsg.Header{Response: true, RCode: dnsmsg.RCodeServFail}}
	if ttl := ttlFor(bad); ttl != 0 {
		t.Fatalf("servfail ttl = %v", ttl)
	}
}
