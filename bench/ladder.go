package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"spfail/internal/checkpoint"
	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/dnsclient"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/measure"
	"spfail/internal/mta"
	"spfail/internal/netsim"
	"spfail/internal/population"
	"spfail/internal/smtp"
	"spfail/internal/spf"
	"spfail/internal/spfimpl"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// minTimedOps is the fewest singly-timed operations a rung runs, so its
// p99 has at least ten samples beyond it.
const minTimedOps = 1000

// Fabric addresses the ladder's fixtures use.
const (
	dnsIP    = "192.0.2.53"
	mxIP     = "203.0.113.50"
	probeIP  = "198.51.100.9"
	testBase = "spf-test.dns-lab.org"
)

// ladder times calls into each layer's public functions, from the DNS
// codec up to a whole probe, so an end-to-end change can be traced to the
// layer that caused it. Rungs use at most GOMAXPROCS concurrent callers.
type ladder struct {
	scale   float64 // multiplies every rung's operation count
	tmp     string
	rec     *recorder
	root    int
	metrics map[string]float64
}

// runLadder runs every rung and returns the ladder's per-layer metrics.
func runLadder(ctx context.Context, scale float64, tmp string, rec *recorder) (map[string]float64, error) {
	l := &ladder{scale: scale, tmp: tmp, rec: rec, metrics: map[string]float64{}}
	l.root = rec.start("ladder", 0, time.Now())
	steps := []func(context.Context) error{
		l.codec, l.server, l.udp, l.resolvers, l.checkHost, l.session, l.testIP, l.verdict, l.campaignTrace, l.checkpointStore,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	l.metrics["mta.validate_us"] = l.metrics["core.testip_us"] - l.metrics["smtp.session_us"]
	rec.finish(l.root, time.Now(), map[string]any{"scale": scale})
	return l.metrics, nil
}

func (l *ladder) ops(base int, timed bool) int {
	n := int(float64(base)*l.scale + 0.5)
	if timed && n < minTimedOps {
		n = minTimedOps
	}
	if n < 1 {
		n = 1
	}
	return n
}

// indices is how many distinct operation indices a rung of base
// operations uses: its timed operations plus a twentieth for warm-up.
func (l *ladder) indices(base int) int {
	n := l.ops(base, true)
	return n + max(1, n/20)
}

// rung measures op under name. A fast rung (well under a microsecond per
// call) gets its mean and allocations from an untimed loop, so clock reads
// do not inflate them, and its quantiles from a separate singly-timed
// pass. Other rungs are timed singly throughout, with callers goroutines
// sharing the operations.
func (l *ladder) rung(name string, base, callers int, fast bool, op func(i int) error) error {
	unit := 1e3 // µs
	if strings.HasSuffix(name, "_ns") {
		unit = 1
	}
	n := l.ops(base, true)
	runtime.GC() // start every rung from a collected heap, not the last rung's garbage
	sp := l.rec.start(name, l.root, time.Now())
	// Warm caches and pools on indices past the timed ones, so rungs that
	// need a fresh name per operation never see a warmed name again.
	for i := n; i < l.indices(base); i++ {
		if err := op(i); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var mean float64
	if fast {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		mean = float64(time.Since(start).Nanoseconds()) / float64(n) / unit
		runtime.ReadMemStats(&ms1)
	}
	durs, err := timeSingly(n, callers, op)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !fast {
		runtime.ReadMemStats(&ms1)
		var sum float64
		for _, d := range durs {
			sum += d
		}
		mean = sum / float64(n) / unit
	}
	sort.Float64s(durs)
	tail := tailPercentile(n)
	l.metrics[name] = mean
	l.metrics[name+".p50"] = percentile(durs, 50) / unit
	l.metrics[name+".p99"] = percentile(durs, 99) / unit
	l.metrics[name+".allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	l.rec.finish(sp, time.Now(), map[string]any{"ops": n, "callers": callers, "mean": mean,
		"p50": l.metrics[name+".p50"], "p99": l.metrics[name+".p99"], "allocs_per_op": l.metrics[name+".allocs_per_op"],
		"tail_percentile": tail, "tail": percentile(durs, tail) / unit})
	return nil
}

// timeSingly runs n operations split across callers goroutines and
// returns each operation's duration in nanoseconds. The memory statistics
// the caller reads around it cover exactly these operations.
func timeSingly(n, callers int, op func(i int) error) ([]float64, error) {
	callers = min(max(callers, 1), runtime.GOMAXPROCS(0))
	durs := make([]float64, n)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += callers {
				t0 := time.Now()
				if err := op(i); err != nil {
					errs[c] = err
					return
				}
				durs[i] = float64(time.Since(t0).Nanoseconds())
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return durs, nil
}

// spfPolicy is the probe policy the measurement zone serves.
const spfPolicy = "v=spf1 a:%{d1r}.x7k2.s01.spf-test.dns-lab.org a:b.x7k2.s01.spf-test.dns-lab.org -all"

// codec times decoding and encoding an SPF TXT response.
func (l *ladder) codec(context.Context) error {
	name := dnsmsg.MustParseName("x7k2.s01." + testBase)
	m := dnsmsg.NewQuery(1, name, dnsmsg.TypeTXT).Reply()
	m.Answers = append(m.Answers, dnsmsg.Record{Name: name, Class: dnsmsg.ClassIN, TTL: 1, Data: dnsmsg.SplitTXT(spfPolicy)})
	pkt, err := m.Pack()
	if err != nil {
		return err
	}
	d := dnsmsg.GetDecoder()
	defer dnsmsg.PutDecoder(d)
	if err := l.rung("dnsmsg.decode_ns", 200000, 1, true, func(int) error {
		_, err := d.Decode(pkt)
		return err
	}); err != nil {
		return err
	}
	buf := make([]byte, 0, 512)
	return l.rung("dnsmsg.encode_ns", 200000, 1, true, func(int) error {
		var err error
		buf, err = m.Append(buf[:0])
		return err
	})
}

// discardSink drops query events, isolating handler cost.
type discardSink struct{}

func (discardSink) Observe(dnsserver.QueryEvent) {}

// server times the authoritative server answering one TXT query: the
// template fast path on a bare ZoneSet, and the rig's path (decode,
// LoggingHandler→Mux dispatch, encode), which the fast path never serves.
func (l *ladder) server(context.Context) error {
	name := dnsmsg.MustParseName("x7k2.s01." + testBase)
	zs := dnsserver.NewZoneSet()
	zs.AddTXT(name, spfPolicy)
	q, err := dnsmsg.NewQuery(7, name, dnsmsg.TypeTXT).Pack()
	if err != nil {
		return err
	}
	var from net.Addr = netsim.Addr{Net: "udp", Host: probeIP, Port: 5353}
	srv := &dnsserver.Server{Handler: zs}
	out := make([]byte, 0, dnsserver.MaxUDPPayload)
	if err := l.rung("dnsserver.serve_fast_ns", 200000, 1, true, func(int) error {
		var ok bool
		if out, ok = srv.ServeQuery(out[:0], q, from); !ok {
			return fmt.Errorf("template fast path declined the query")
		}
		return nil
	}); err != nil {
		return err
	}
	slow := &dnsserver.LoggingHandler{Inner: dnsserver.NewMux(zs), Sink: discardSink{}, Now: time.Now}
	return l.rung("dnsserver.serve_slow_ns", 50000, 1, true, func(int) error {
		msg, err := dnsmsg.Unpack(q)
		if err != nil {
			return err
		}
		_, err = slow.ServeDNS(msg, from).Pack()
		return err
	})
}

// udp times one datagram round trip through the in-memory fabric.
func (l *ladder) udp(context.Context) error {
	f := netsim.NewFabric()
	echo, err := f.Host(dnsIP).ListenPacket("udp", ":7")
	if err != nil {
		return err
	}
	cli, err := f.Host(probeIP).ListenPacket("udp", ":0")
	if err != nil {
		echo.Close()
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 512)
		for {
			n, from, err := echo.ReadFrom(buf)
			if err != nil {
				return
			}
			if _, err := echo.WriteTo(buf[:n], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		echo.Close()
		cli.Close()
		wg.Wait()
	}()
	to := netsim.Addr{Net: "udp", Host: dnsIP, Port: 7}
	msg, buf := make([]byte, 64), make([]byte, 512)
	return l.rung("netsim.udp_rtt_us", 20000, 1, false, func(int) error {
		if _, err := cli.WriteTo(msg, to); err != nil {
			return err
		}
		_, _, err := cli.ReadFrom(buf)
		return err
	})
}

// startZoneServer serves the measurement zone the way the rig does
// (LoggingHandler over a Mux) on f.
func startZoneServer(ctx context.Context, f *netsim.Fabric) (*dnsserver.SPFTestZone, *dnsserver.Server, error) {
	zone := &dnsserver.SPFTestZone{
		Base:  dnsmsg.MustParseName(testBase),
		Addr4: netip.MustParseAddr("192.0.2.80"),
		Addr6: netip.MustParseAddr("2001:db8:80::1"),
	}
	mux := dnsserver.NewMux(dnsserver.NewZoneSet())
	mux.Handle(zone.Base, zone)
	srv := &dnsserver.Server{Net: f.Host(dnsIP), Addr: ":53", Handler: &dnsserver.LoggingHandler{Inner: mux, Sink: discardSink{}, Now: time.Now}}
	if err := srv.Start(ctx); err != nil {
		return nil, nil, err
	}
	return zone, srv, nil
}

// resolverStack builds an MTA's resolver one layer at a time: the wire
// client, then Pipeline, SingleFlight and CachingClient on top.
func resolverStack(f *netsim.Fabric, reg *telemetry.Registry, depth int) *dnsclient.Resolver {
	wire := &dnsclient.Client{Net: f.Host(mxIP), Server: dnsIP + ":53", Timeout: time.Second, Clk: clock.Real{}, Metrics: reg}
	var q dnsclient.Querier = wire
	if depth >= 1 {
		q = &dnsclient.Pipeline{Upstream: wire, Metrics: reg}
	}
	if depth >= 2 {
		q = &dnsclient.SingleFlight{Upstream: q, Metrics: reg}
	}
	if depth >= 3 {
		cc := dnsclient.NewCachingClient(q, clock.Real{})
		cc.Metrics = reg
		q = cc
	}
	return dnsclient.NewResolver(q)
}

// probeNames returns n distinct probe-label names under the measurement
// zone, as the unique labels of real probes are.
func probeNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d.b01.%s", prefix, i, testBase)
	}
	return out
}

// resolvers times Resolver.LookupTXT over the fabric with the MTA's stack
// built up one layer at a time.
func (l *ladder) resolvers(ctx context.Context) error {
	f := netsim.NewFabric()
	_, srv, err := startZoneServer(ctx, f)
	if err != nil {
		return err
	}
	defer srv.Stop()
	for depth, layer := range []string{"client", "pipeline", "flight", "cache"} {
		res := resolverStack(f, telemetry.New(), depth)
		names := probeNames("l"+layer, l.indices(5000))
		if err := l.rung("dnsclient.lookup_us."+layer, 5000, runtime.GOMAXPROCS(0), false, func(i int) error {
			txt, err := res.LookupTXT(ctx, names[i])
			if err == nil && len(txt) == 0 {
				err = fmt.Errorf("no TXT for %s", names[i])
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// memResolver is an in-memory spf.Resolver.
type memResolver struct {
	txt map[string][]string
	a   map[string][]netip.Addr
	mx  map[string][]spf.MX
}

func memKey(n string) string { return strings.ToLower(strings.TrimSuffix(n, ".")) }

func (r *memResolver) LookupTXT(_ context.Context, name string) ([]string, error) {
	if v, ok := r.txt[memKey(name)]; ok {
		return v, nil
	}
	return nil, spf.ErrNotFound
}

func (r *memResolver) LookupIP(_ context.Context, _, name string) ([]netip.Addr, error) {
	if v, ok := r.a[memKey(name)]; ok {
		return v, nil
	}
	return nil, spf.ErrNotFound
}

func (r *memResolver) LookupMX(_ context.Context, name string) ([]spf.MX, error) {
	if v, ok := r.mx[memKey(name)]; ok {
		return v, nil
	}
	return nil, spf.ErrNotFound
}

func (r *memResolver) LookupPTR(context.Context, netip.Addr) ([]string, error) {
	return nil, spf.ErrNotFound
}

// checkHost times check_host with an in-memory resolver, then over the
// wire through the full MTA resolver stack, where the harness registry
// also yields the stack's cache, single-flight and pipeline ratios.
func (l *ladder) checkHost(ctx context.Context) error {
	mem := &spf.Checker{Resolver: &memResolver{
		txt: map[string][]string{
			"example.com":     {"v=spf1 a mx include:spf.example.net ip4:192.0.2.0/24 exists:%{ir}.rbl.example.org -all"},
			"spf.example.net": {"v=spf1 ip4:198.51.100.0/24 -all"},
		},
		a:  map[string][]netip.Addr{"example.com": {netip.MustParseAddr("203.0.113.9")}},
		mx: map[string][]spf.MX{"example.com": {{Preference: 10, Host: "mail.example.com"}}},
	}}
	ip := netip.MustParseAddr("192.0.2.55")
	if err := l.rung("spf.check_host_ns", 50000, 1, true, func(int) error {
		if r := mem.CheckHost(ctx, ip, "example.com", "user@example.com", "helo.example.com"); r.Result != spf.ResultPass {
			return fmt.Errorf("in-memory check_host = %s", r.Result)
		}
		return nil
	}); err != nil {
		return err
	}

	f := netsim.NewFabric()
	_, srv, err := startZoneServer(ctx, f)
	if err != nil {
		return err
	}
	defer srv.Stop()
	reg := telemetry.New()
	wire := &spf.Checker{Resolver: mta.ResolverAdapter{R: resolverStack(f, reg, 3)}}
	client := netip.MustParseAddr(probeIP)
	names := probeNames("c", l.indices(3000))
	if err := l.rung("spf.check_host_wire_us", 3000, runtime.GOMAXPROCS(0), false, func(i int) error {
		r := wire.CheckHost(ctx, client, names[i], "noreply@"+names[i], "probe.dns-lab.org")
		if r.Result != spf.ResultFail {
			return fmt.Errorf("check_host over the wire = %s (%v)", r.Result, r.Err)
		}
		return nil
	}); err != nil {
		return err
	}
	c := reg.Snapshot().Counters
	ratio := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	l.metrics["dnsclient.cache_hit_ratio"] = ratio(c["dns.cache.hits"], c["dns.cache.hits"]+c["dns.cache.misses"])
	l.metrics["dnsclient.flight_coalesced_ratio"] = ratio(c["dns.flight.coalesced"], c["dns.flight.leaders"]+c["dns.flight.coalesced"])
	l.metrics["dnsclient.pipeline_coalesced_ratio"] = ratio(c["dns.pipeline.coalesced"], c["dns.pipeline.questions"])
	return nil
}

// session times a NoMsg-shaped SMTP dialogue (EHLO, MAIL, RCPT, DATA,
// then drop) against a server that validates nothing.
func (l *ladder) session(ctx context.Context) error {
	f := netsim.NewFabric()
	srv := &smtp.Server{Hostname: "mx.bench.example", Net: f.Host(mxIP), Addr: ":25", Handler: smtp.NopHandler{}}
	if err := srv.Start(ctx); err != nil {
		return err
	}
	defer srv.Stop()
	cli := &smtp.Client{Net: f.Host(probeIP), HELO: "probe.dns-lab.org", IOTimeout: 5 * time.Second}
	return l.rung("smtp.session_us", 3000, 1, false, func(int) error {
		conn, err := cli.Dial(ctx, mxIP+":25")
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := conn.Hello(); err != nil {
			return err
		}
		if err := conn.Mail("noreply@x7k2.s01." + testBase); err != nil {
			return err
		}
		if err := conn.Rcpt("noreply@example.com"); err != nil {
			return err
		}
		return conn.Data()
	})
}

// testIP times one complete probe (Prober.TestIP) against a vulnerable
// MTA validating at MAIL FROM; its cost minus the bare SMTP session is the
// MTA's validation cost.
func (l *ladder) testIP(ctx context.Context) error {
	f := netsim.NewFabric()
	zone := &dnsserver.SPFTestZone{Base: dnsmsg.MustParseName(testBase), Addr4: netip.MustParseAddr("192.0.2.80")}
	collector := core.NewCollector(zone)
	dns := &dnsserver.Server{Net: f.Host(dnsIP), Addr: ":53", Handler: &dnsserver.LoggingHandler{Inner: zone, Sink: collector, Now: time.Now}}
	if err := dns.Start(ctx); err != nil {
		return err
	}
	defer dns.Stop()
	host := mta.New(mta.Config{
		Hostname: "mx", IP: netip.MustParseAddr(mxIP), Net: f.Host(mxIP),
		DNSServer: dnsIP + ":53", DNSTimeout: time.Second,
		Behaviors: []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2}, ValidateAt: mta.ValidateAtMailFrom,
	})
	if err := host.Start(ctx); err != nil {
		return err
	}
	defer host.Stop()
	prober := &core.Prober{
		Net: f.Host(probeIP), HELO: "probe.dns-lab.org", Clock: clock.Real{},
		Zone: zone, Labels: core.NewLabelAllocator(3), Collector: collector,
		Classifier: core.NewClassifier(zone), Suite: "b01", IOTimeout: 5 * time.Second,
	}
	return l.rung("core.testip_us", 2000, 1, false, func(int) error {
		if out := prober.TestIP(ctx, mxIP+":25", "example.com"); !out.Vulnerable() {
			return fmt.Errorf("vulnerable host not detected: %s %v", out.Status, out.Err)
		}
		return nil
	})
}

// verdict times VerdictEvaluator.Evaluate through a rig's resolver over a
// small world carrying every scenario pack, walking its domains in order.
func (l *ladder) verdict(ctx context.Context) error {
	world, err := population.Generate(spoofSpec(1, 0.002))
	if err != nil {
		return err
	}
	rig, err := measure.NewRigFromOptions(ctx, measure.RigOptions{World: world, Clock: clock.Real{}})
	if err != nil {
		return err
	}
	defer rig.Close()
	ev := &core.VerdictEvaluator{Checker: &spf.Checker{Resolver: mta.ResolverAdapter{R: rig.Resolver()}}, HELO: "mx.attacker.example"}
	attacker := netip.MustParseAddr("203.0.113.66")
	return l.rung("core.verdict_us", 3000, 1, false, func(i int) error {
		d := world.Domains[i%len(world.Domains)]
		mailFrom := d.Name
		if pack, ok := population.PackByName(d.Scenario); ok && pack.SpoofMailFromLabel != "" {
			mailFrom = pack.SpoofMailFromLabel + "." + d.Name
		}
		if v := ev.Evaluate(ctx, attacker, d.Name, mailFrom, d.Scenario); v.SPF == spf.ResultTempError {
			return fmt.Errorf("temperror verdict for %s: %s", d.Name, v.SPFErr)
		}
		return nil
	})
}

// campaignTrace measures what the program's own tracer costs a campaign:
// alternating passes of Campaign.MeasureAddrsFunc over the same addresses
// on an untraced and a fully traced rig (spans discarded).
func (l *ladder) campaignTrace(ctx context.Context) error {
	sp := l.rec.start("trace.campaign_overhead_frac", l.root, time.Now())
	campaign := func(tr *trace.Tracer) (*measure.Campaign, []netip.Addr, map[netip.Addr]string, func(), error) {
		spec := population.DefaultSpec()
		spec.Scale = 0.005
		world, err := population.Generate(spec)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		rig, err := measure.NewRigFromOptions(ctx, measure.RigOptions{World: world, Clock: clock.Real{}, Trace: tr})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		// 16 concurrent probes keep the DNS server's inbox from
		// overflowing, whose 1 s retransmits would swamp the difference.
		c, err := measure.NewCampaign(rig, measure.Config{
			Suite: "b01", Concurrency: 16, BatchSize: 500,
			GreylistWait: time.Millisecond, ReconnectWait: time.Millisecond, IOTimeout: 2 * time.Second,
		})
		if err != nil {
			rig.Close()
			return nil, nil, nil, nil, err
		}
		addrs := world.AllAddrs()
		addrs = addrs[:min(len(addrs), l.ops(1500, false)+50)]
		rcpt := map[netip.Addr]string{}
		for _, a := range addrs {
			if ds := world.DomainsOn(a); len(ds) > 0 {
				rcpt[a] = ds[0].Name
			}
		}
		return c, addrs, rcpt, rig.Close, nil
	}
	plain, addrs, rcpt, closePlain, err := campaign(nil)
	if err != nil {
		return err
	}
	defer closePlain()
	traced, _, _, closeTraced, err := campaign(trace.New(io.Discard, trace.Options{Seed: 1}))
	if err != nil {
		return err
	}
	defer closeTraced()
	pass := func(c *measure.Campaign) (float64, error) {
		start := time.Now()
		err := c.MeasureAddrsFunc(ctx, addrs, rcpt, func(netip.Addr, core.Outcome) {})
		return time.Since(start).Seconds(), err
	}
	// Pairs run back to back, alternating which side goes first, and the
	// overhead is the median of the per-pair ratios, so drift in the
	// machine's speed cancels within each pair.
	var ratios []float64
	for p := 0; p < 7; p++ {
		first, second := plain, traced
		if p%2 == 1 {
			first, second = traced, plain
		}
		a, err := pass(first)
		if err != nil {
			return err
		}
		b, err := pass(second)
		if err != nil {
			return err
		}
		if first == traced {
			a, b = b, a
		}
		ratios = append(ratios, b/a)
	}
	l.metrics["trace.campaign_overhead_frac"] = median(ratios) - 1
	l.rec.finish(sp, time.Now(), map[string]any{"addrs": len(addrs), "ratios": ratios})
	return nil
}

// checkpointStore times committing a study-round-sized stage (encode,
// write, fsync, manifest update) and replaying the store (open, read,
// checksum, decode).
func (l *ladder) checkpointStore(context.Context) error {
	dir, err := os.MkdirTemp(l.tmp, "ladder-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.Create(dir, "bench", nil)
	if err != nil {
		return err
	}
	outs := make([]core.Outcome, 500)
	for i := range outs {
		outs[i] = core.Outcome{
			Addr: netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}).String() + ":25", Status: core.StatusSPFMeasured,
			Method: core.MethodNoMsg, NoMsgRan: true, IDs: []string{fmt.Sprintf("l%07d", i)}, Username: "noreply", Attempts: 1,
		}
	}
	st := &checkpoint.Stage{ProbeSeq: uint64(len(outs)), Outcomes: checkpoint.OutcomeRows(outs)}
	n := l.ops(40, false)
	sp := l.rec.start("checkpoint.commit_us", l.root, time.Now())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var bytes int64
	for i := 0; i < n; i++ {
		payload, err := checkpoint.EncodeStage(st)
		if err != nil {
			return err
		}
		if _, err := store.Commit(fmt.Sprintf("round-%03d", i), len(outs), payload); err != nil {
			return err
		}
		bytes += int64(len(payload))
	}
	commit := float64(time.Since(start).Nanoseconds()) / float64(n) / 1e3
	runtime.ReadMemStats(&ms1)
	l.metrics["checkpoint.commit_us"] = commit
	l.metrics["checkpoint.commit_us.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	l.rec.finish(sp, time.Now(), map[string]any{"ops": n, "mean": commit, "segment_bytes": bytes / int64(n)})

	sp = l.rec.start("checkpoint.replay_mib_per_s", l.root, time.Now())
	var rates []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		s, err := checkpoint.Open(dir, "bench", nil)
		if err != nil {
			return err
		}
		for _, meta := range s.Segments() {
			payload, err := s.Read(meta)
			if err != nil {
				return err
			}
			if _, err := checkpoint.DecodeStage(payload); err != nil {
				return err
			}
		}
		rates = append(rates, float64(bytes)/(1<<20)/time.Since(start).Seconds())
	}
	l.metrics["checkpoint.replay_mib_per_s"] = median(rates)
	l.rec.finish(sp, time.Now(), map[string]any{"bytes": bytes, "rates": rates})
	return nil
}
