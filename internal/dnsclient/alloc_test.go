//go:build !race

package dnsclient

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
)

// discardSink drops query events, as a sink that keeps nothing would.
type discardSink struct{}

func (discardSink) Observe(dnsserver.QueryEvent) {}

// TestLookupTXTAllocBytes gates what one SPF record fetch costs both ends
// of the wire: a warm Client's Resolver.LookupTXT against a started Server
// whose handler logs every query (LoggingHandler over a Mux over a
// ZoneSet), so the server's answer and its query event count too. The
// client reuses its idle socket, so no lookup dials, and reads each
// response in place with that socket's decoder. The server answers on the
// lookup's goroutine and reads the query in the client's own buffer, so
// the fabric copies only the reply; the zone answers from its stored wire
// records, so the server neither decodes the query nor builds a reply, and
// the LoggingHandler logs after that wire answer. The client's endpoint
// copies each reply into the buffer it read the last one from. A lookup
// measured 136 B in 8 allocations (200 B in 9 when each reply was copied
// into fresh memory, 381 B in 9 when the server decoded the query); the
// gates leave about 20% headroom. Skipped under -race, which instruments
// allocation.
func TestLookupTXTAllocBytes(t *testing.T) {
	fabric := netsim.NewFabric()
	zone := dnsserver.NewZoneSet()
	zone.AddTXT(name("example.com"), "v=spf1 mx -all")
	h := &dnsserver.LoggingHandler{Inner: dnsserver.NewMux(zone), Sink: discardSink{}, Now: time.Now}
	startServer(t, fabric, "192.0.2.53", h)
	r := stubResolver(fabric.Host("198.51.100.1"), "192.0.2.53:53", 2*time.Second)
	ctx := context.Background()
	lookup := func() {
		txts, err := r.LookupTXT(ctx, "example.com")
		if err != nil || len(txts) != 1 {
			t.Fatalf("LookupTXT = %q, %v", txts, err)
		}
	}
	for i := 0; i < 100; i++ {
		lookup() // warm the pools, the server's decoder and its inbox
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lookup()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%d B, %.1f allocs per lookup", per, allocs)
	if per >= 164 {
		t.Errorf("one LookupTXT exchange allocates %d B, want < 164 B", per)
	}
	if allocs > 10 {
		t.Errorf("one LookupTXT exchange makes %.1f allocations, want at most 10", allocs)
	}
}

// TestLookupTXTNXDomainAllocs gates a warm LookupTXT of a name the zone
// does not have, as the spoof survey asks for every domain without an SPF
// or DMARC record: the NXDOMAIN answer carries the zone's SOA in its
// authority section, which the lookup frames but does not decode, so the
// SOA's two names cost nothing. A lookup measured 208 B in 9 allocations
// (288 B in 10 when each reply was copied into fresh memory, 792 B in 23
// while the SOA was decoded); the gates leave about 20% headroom. Skipped
// under -race, which instruments allocation.
func TestLookupTXTNXDomainAllocs(t *testing.T) {
	fabric := netsim.NewFabric()
	h := &dnsserver.LoggingHandler{Inner: dnsserver.NewMux(testZone()), Sink: discardSink{}, Now: time.Now}
	startServer(t, fabric, "192.0.2.53", h)
	r := stubResolver(fabric.Host("198.51.100.1"), "192.0.2.53:53", 2*time.Second)
	ctx := context.Background()
	lookup := func() {
		if txts, err := r.LookupTXT(ctx, "absent.example.com"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("LookupTXT = %q, %v; want ErrNotFound", txts, err)
		}
	}
	for i := 0; i < 100; i++ {
		lookup()
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lookup()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%d B, %.1f allocs per lookup", per, allocs)
	if per >= 250 {
		t.Errorf("one NXDOMAIN LookupTXT exchange allocates %d B, want < 250 B", per)
	}
	if allocs > 11 {
		t.Errorf("one NXDOMAIN LookupTXT exchange makes %.1f allocations, want at most 11", allocs)
	}
}
