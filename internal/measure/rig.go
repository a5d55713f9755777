// Package measure implements the SPFail measurement campaign: resolving
// domain sets to mail-server addresses through the DNS (as the paper does,
// MX first with A fallback), probing every distinct address once with the
// NoMsg→BlankMsg ladder under the paper's politeness constraints (250
// concurrent connections, 90 s per-host gaps, 8-minute greylist waits),
// re-measuring vulnerable hosts every two days across two windows, and
// applying the inference rules of §7.6 to the resulting series.
package measure

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/dnsclient"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/faults"
	"spfail/internal/netsim"
	"spfail/internal/population"
	"spfail/internal/retry"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// Rig wires together the measurement-side infrastructure on a fabric: the
// authoritative DNS server (population zones + the dynamic SPF test zone,
// with query logging into the collector) and the prober's vantage point.
type Rig struct {
	Fabric     *netsim.Fabric
	Clock      clock.Clock
	World      *population.World
	Zone       *dnsserver.SPFTestZone
	Collector  *core.Collector
	Classifier *core.Classifier
	Manager    *population.HostManager
	// Metrics aggregates telemetry from every measurement-side layer
	// (DNS server, prober, campaigns). Always non-nil after
	// NewRigFromOptions.
	Metrics *telemetry.Registry
	// Trace, when non-nil, captures per-probe causal spans across the
	// whole rig (prober, MTA-side SPF evaluation, DNS server, fault
	// engine). Nil disables tracing at zero cost.
	Trace *trace.Tracer
	// FaultEngine is the fabric's fault injector when RigOptions.Faults
	// was installed, nil otherwise. Exposed so the study's checkpoint
	// layer can snapshot and restore its event counters across resume.
	FaultEngine *faults.Engine

	// DNSAddr is the single authoritative/resolver address every
	// simulated party uses.
	DNSAddr string
	// ProbeIP is the measurement vantage address.
	ProbeIP string

	dns *dnsserver.Server
	// client is the probe-side DNS client every Resolver wraps; Close
	// closes its sockets.
	client *dnsclient.Client
}

// Rig addresses.
const (
	defaultDNSIP   = "192.0.2.53"
	defaultProbeIP = "198.51.100.9"
	testZoneBase   = "spf-test.dns-lab.org"
)

// RigOptions configures NewRigFromOptions. Only World and Clock are
// required; everything else has a sensible default, so new knobs can be
// added without another signature break.
type RigOptions struct {
	// World is the synthetic Internet to measure; required.
	World *population.World
	// Clock drives every timeline in the rig; required.
	Clock clock.Clock
	// Metrics aggregates rig-wide telemetry; nil creates a fresh registry.
	Metrics *telemetry.Registry
	// Faults, when non-nil and non-empty, is installed on the fabric as a
	// deterministic fault-injection engine, classified against the
	// world's host classes (see internal/faults).
	Faults *faults.Plan
	// DNSRetry is the retry policy for the probe-side resolver returned
	// by Rig.Resolver (target resolution). Zero value: the dnsclient's
	// legacy immediate retransmits.
	DNSRetry retry.Policy
	// Trace, when non-nil, is threaded through every rig layer for
	// per-probe span capture (see internal/trace).
	Trace *trace.Tracer
	// DNSIP and ProbeIP override the rig's well-known addresses.
	DNSIP   string
	ProbeIP string
}

// NewRigFromOptions builds and starts the measurement infrastructure for a
// world.
func NewRigFromOptions(ctx context.Context, opts RigOptions) (*Rig, error) {
	if opts.World == nil {
		return nil, fmt.Errorf("measure: RigOptions.World is required")
	}
	if opts.Clock == nil {
		return nil, fmt.Errorf("measure: RigOptions.Clock is required")
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = telemetry.New()
	}
	dnsIP := opts.DNSIP
	if dnsIP == "" {
		dnsIP = defaultDNSIP
	}
	probeIP := opts.ProbeIP
	if probeIP == "" {
		probeIP = defaultProbeIP
	}
	w, clk := opts.World, opts.Clock
	fabric := netsim.NewFabric()
	fabric.Clock = clk
	var engine *faults.Engine
	if opts.Faults != nil && !opts.Faults.Empty() {
		var err error
		engine, err = faults.NewEngine(*opts.Faults)
		if err != nil {
			return nil, fmt.Errorf("measure: fault plan: %w", err)
		}
		engine.SetClassifier(w.FaultClassifier())
		engine.SetMetrics(metrics)
		engine.SetTracer(opts.Trace)
		fabric.Faults = engine
	}
	r := &Rig{
		Fabric:      fabric,
		Clock:       clk,
		World:       w,
		Metrics:     metrics,
		Trace:       opts.Trace,
		FaultEngine: engine,
		DNSAddr:     dnsIP + ":53",
		ProbeIP:     probeIP,
		client: &dnsclient.Client{
			Net:     fabric.Host(probeIP),
			Server:  dnsIP + ":53",
			Timeout: time.Second,
			Clk:     clk,
			Retry:   opts.DNSRetry,
			Metrics: metrics,
		},
		Zone: &dnsserver.SPFTestZone{
			Base:  dnsmsg.MustParseName(testZoneBase),
			Addr4: netip.MustParseAddr("192.0.2.80"),
			Addr6: netip.MustParseAddr("2001:db8:80::1"),
		},
	}
	r.Collector = core.NewCollector(r.Zone)
	r.Classifier = core.NewClassifier(r.Zone)

	handler := rigHandler(w.BuildZones(), r.Zone, r.Collector, clk.Now)
	r.dns = &dnsserver.Server{Net: r.Fabric.Host(dnsIP), Addr: ":53", Handler: handler, Metrics: metrics, Trace: opts.Trace}
	if err := r.dns.Start(ctx); err != nil {
		return nil, fmt.Errorf("measure: starting DNS: %w", err)
	}
	r.Manager = &population.HostManager{
		World:      w,
		Fabric:     r.Fabric,
		Clock:      clk,
		DNSServer:  r.DNSAddr,
		DNSTimeout: time.Second,
		Trace:      opts.Trace,
	}
	return r, nil
}

// rigHandler serves the world's zones and, under its base, the SPF test
// zone. Only the test zone's queries are detection evidence (the
// Collector keeps no other), so only they pass through a LoggingHandler
// into sink, and a world-zone query pays for no event. The Mux is handed
// over as it is, so the server answers every plain world-zone query on
// its wire path, from the zone's stored records without decoding it
// (docs/performance.md, "Zones answer from wire records"). The test zone
// has no wire path, so its queries are decoded, logged and answered.
func rigHandler(zones *dnsserver.ZoneSet, zone *dnsserver.SPFTestZone, sink dnsserver.Sink, now func() time.Time) dnsserver.Handler {
	mux := dnsserver.NewMux(zones)
	mux.Handle(zone.Base, &dnsserver.LoggingHandler{Inner: zone, Sink: sink, Now: now})
	return mux
}

// Close stops the DNS server and all running hosts, and closes the
// probe-side DNS client's sockets.
func (r *Rig) Close() {
	r.Manager.StopAll()
	r.dns.Stop()
	_ = r.client.Close() // fabric sockets close without error
}

// Resolver returns a stub resolver from the probe vantage, carrying the
// rig's DNS retry policy. Every resolver it returns wraps the rig's one
// probe-side client, so they share its idle sockets, and each lookup reads
// its response in place on the socket it holds. The policy's backoff
// sleeps on the rig clock, and a shared simulated clock has one sleeper,
// the study driver, so the rig's DNS walks (fanOut) use the resolver from
// one goroutine whenever the policy is enabled. They do the same whenever
// the fabric injects faults, because the fault engine counts the
// vantage's DNS events in the order they arrive.
func (r *Rig) Resolver() *dnsclient.Resolver {
	return dnsclient.NewResolver(r.client)
}

// fanOut calls fn(i) for every i in [0, n) and returns once every call
// has returned. Workers claim indices from a shared counter in ascending
// order. fn may write only state owned by its index; callers merge
// counters and trace buffers afterwards, in index order, as
// Campaign.probeBatch delivers its probe slots.
//
// Each call is a chain of DNS round trips from the vantage, and the
// authoritative server answers each query on the goroutine that sent it,
// so a worker never waits for the server and one worker per CPU keeps
// every CPU busy. Over ten alternating 15 s spoof runs on 2 vCPU, twice
// GOMAXPROCS workers judged 3.0% more domains per second than GOMAXPROCS
// (55,401 against 53,769 median, higher in 7 of 10 pairs, inside the
// quartile distance of 3,622) and peaked 5.0% higher in RSS (120.1
// against 114.4 MiB, higher in all 10 pairs), so GOMAXPROCS ships. On
// one CPU that is one worker: with nothing to overlap, two workers judged
// 2.3% fewer domains per second than one (docs/performance.md).
//
// The walk also stays on one goroutine, in index order, when the fabric
// injects faults or the rig's DNS retry policy is enabled. The fault
// engine counts DNS events per source host, which is deterministic only
// while that host's traffic is sequential, and retry backoffs sleep on
// the shared clock, whose one sleeper is the study driver.
func (r *Rig) fanOut(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if r.Fabric.Faults != nil || r.client.Retry.Enabled() {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Target is one (domain, addresses) measurement unit discovered via DNS.
type Target struct {
	Domain string
	Addrs  []netip.Addr
	HasMX  bool
}

// ResolveTargets discovers mail-server addresses for domains exactly as
// the paper does: query MX; resolve each exchanger's A/AAAA; when a domain
// has no MX records, fall back to its own A record per RFC 5321. Domains
// are resolved concurrently through fanOut, and targets come back in
// domain order. Under injected faults, an enabled DNS retry policy or
// GOMAXPROCS 1 the walk is sequential (see fanOut): the fault engine
// counts the vantage's DNS events in order, and retry backoffs sleep on
// the shared clock. Every domain is resolved even after ctx ends; each
// lookup sees ctx.
func (r *Rig) ResolveTargets(ctx context.Context, domains []string) []Target {
	res := r.Resolver()
	out := make([]Target, len(domains))
	r.fanOut(len(domains), func(i int) {
		out[i] = resolveTarget(ctx, res, domains[i])
	})
	return out
}

// resolveTarget resolves one domain's mail-server addresses.
func resolveTarget(ctx context.Context, res *dnsclient.Resolver, d string) Target {
	t := Target{Domain: d}
	mxs, err := res.LookupMX(ctx, d)
	if err == nil && len(mxs) > 0 {
		t.HasMX = true
		for _, mx := range mxs {
			addrs, err := res.LookupIP(ctx, "ip", mx.Host)
			if err != nil {
				continue
			}
			t.Addrs = append(t.Addrs, addrs...)
		}
	} else {
		addrs, err := res.LookupIP(ctx, "ip", d)
		if err == nil {
			t.Addrs = append(t.Addrs, addrs...)
		}
	}
	return t
}

// UniqueAddrs deduplicates the addresses across targets, preserving first-
// seen order and remembering one representative domain per address (used
// for RCPT TO and for notification addressing).
func UniqueAddrs(targets []Target) ([]netip.Addr, map[netip.Addr]string) {
	var addrs []netip.Addr
	rep := make(map[netip.Addr]string)
	for _, t := range targets {
		for _, a := range t.Addrs {
			if _, ok := rep[a]; !ok {
				rep[a] = t.Domain
				addrs = append(addrs, a)
			}
		}
	}
	return addrs, rep
}
