// Command spfail-scan probes one or more SMTP servers with the SPFail
// NoMsg→BlankMsg detection ladder and classifies each server's SPF macro
// expansion behaviour.
//
// The scanner runs its own measurement DNS zone (like cmd/spfail-dns); the
// probed server must resolve <base> through this process, so in a lab the
// zone is either delegated here or the server's resolver is pointed at
// -dns-listen.
//
//	spfail-scan -dns-listen 10.0.0.1:53 -base spf-test.lab \
//	    -rcpt-domain victim.lab 10.0.0.25:25 10.0.0.26:25
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"time"

	"spfail/cmd/internal/cliflags"
	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/dnsclient"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/measure"
	"spfail/internal/mta"
	"spfail/internal/netsim"
	"spfail/internal/obs"
	"spfail/internal/spf"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

func main() {
	// Flag defaults come from the campaign configuration surface so the
	// CLI and library agree on the paper's operational parameters.
	def := measure.DefaultConfig()
	var (
		dnsListen  = flag.String("dns-listen", "127.0.0.1:5353", "address for the measurement DNS zone")
		base       = flag.String("base", "spf-test.dns-lab.org", "zone apex under our control")
		addr4      = flag.String("addr4", "192.0.2.25", "A record served under the zone")
		rcptDomain = flag.String("rcpt-domain", "", "domain used in RCPT TO (default: target host)")
		helo       = flag.String("helo", "probe.dns-lab.org", "HELO identity")
		suite      = flag.String("suite", "s01", "test-suite label")
		settle     = flag.Duration("settle", 2*time.Second, "wait for trailing DNS queries before classifying")
		timeout    = flag.Duration("timeout", def.IOTimeout, "SMTP I/O timeout")
		reconnect  = flag.Duration("reconnect-wait", def.ReconnectWait, "politeness gap between connections to the same server")
		greylist   = flag.Duration("greylist-wait", def.GreylistWait, "pause before retrying a 450 greylisting")
		spoofFrom  = flag.String("spoof-from", "", "comma-separated From domains to judge for spoofability (SPF check_host + DMARC) instead of probing")
		spoofDNS   = flag.String("spoof-dns", "", "resolver address for -spoof-from lookups, e.g. 127.0.0.1:5353")
		spoofIP    = flag.String("spoof-ip", "203.0.113.66", "forged source address for -spoof-from verdicts")
	)
	common := cliflags.Register(flag.CommandLine, cliflags.Options{
		SeedDefault:      0,
		SeedUsage:        "label-allocator seed for replayable scans (0: derive from the clock)",
		MetricsUsage:     "dump a JSON telemetry snapshot to stdout at exit",
		TraceSampleUsage: "fraction of probes traced, decided deterministically per target index",
	})
	flag.Parse()
	targets := flag.Args()
	if *spoofFrom != "" {
		os.Exit(spoofVerdicts(*spoofFrom, *spoofDNS, *spoofIP, *helo, *timeout))
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "usage: spfail-scan [flags] host:port ...")
		fmt.Fprintln(os.Stderr, "       spfail-scan -spoof-from victim.example -spoof-dns 127.0.0.1:5353")
		os.Exit(2)
	}

	baseName, err := dnsmsg.ParseName(*base)
	if err != nil {
		fatal("bad -base: %v", err)
	}
	a4, err := netip.ParseAddr(*addr4)
	if err != nil {
		fatal("bad -addr4: %v", err)
	}
	clk := clock.Real{}
	if common.Seed == 0 {
		common.Seed = clk.Now().UnixNano()
		fmt.Printf("spfail-scan: -seed %d (pass it back to replay label allocation)\n", common.Seed)
	}
	reg := telemetry.New()
	// Runtime resource telemetry: live runtime.* gauges for the -listen
	// endpoint, and a final reading in the -metrics JSON snapshot.
	runtimeColl := obs.NewCollector(reg, clk, 0)
	runtimeColl.Start()
	// flushTrace is called explicitly before the final os.Exit — deferred
	// flushes would never run and leave the buffered JSONL on the floor.
	tracer, flushTrace, err := common.OpenTrace()
	if err != nil {
		fatal("%v", err)
	}
	zone := &dnsserver.SPFTestZone{Base: baseName, Addr4: a4}
	collector := core.NewCollector(zone)
	handler := &dnsserver.LoggingHandler{Inner: zone, Sink: collector, Now: clk.Now}
	srv := &dnsserver.Server{Net: netsim.Real{}, Addr: *dnsListen, Handler: handler, Metrics: reg, Trace: tracer}
	if err := srv.Start(context.Background()); err != nil {
		fatal("starting DNS zone: %v", err)
	}
	defer srv.Stop()
	fmt.Printf("spfail-scan: measurement zone %s on %s\n", baseName, *dnsListen)

	prober := &core.Prober{
		Net:           netsim.Real{},
		HELO:          *helo,
		Clock:         clk,
		Zone:          zone,
		Labels:        core.NewLabelAllocator(common.Seed),
		Collector:     collector,
		Classifier:    core.NewClassifier(zone),
		Suite:         *suite,
		IOTimeout:     *timeout,
		GreylistWait:  *greylist,
		ReconnectWait: *reconnect,
		Metrics:       reg,
	}
	prober.Retry = common.RetryPolicy()

	var healthMu sync.Mutex
	health := telemetry.Health{OK: true, Stage: "scanning", Total: len(targets)}
	stopServe := common.Serve("spfail-scan", reg, func() telemetry.Health {
		healthMu.Lock()
		defer healthMu.Unlock()
		return health
	})
	defer stopServe()

	exitCode := 0
	outcomeTotals := make(map[core.Status]int)
	for i, target := range targets {
		rd := *rcptDomain
		if rd == "" {
			rd = strings.Split(target, ":")[0]
		}
		fmt.Printf("\n== %s (rcpt domain %s)\n", target, rd)
		out := scanOne(tracer, prober, clk, *suite, uint64(i), target, rd, *settle)
		printOutcome(out)
		outcomeTotals[out.Status]++
		if out.Vulnerable() {
			exitCode = 1
		}
		healthMu.Lock()
		health.Probed = i + 1
		healthMu.Unlock()
	}
	if err := tracer.Err(); err != nil {
		fatal("writing trace: %v", err)
	}
	if err := flushTrace(); err != nil {
		fatal("writing trace: %v", err)
	}
	// Stopped explicitly (not deferred): the takes-no-defers os.Exit below,
	// and the Stop itself folds one last runtime.* reading into the snapshot.
	runtimeColl.Stop()
	if common.Metrics {
		fmt.Printf("\n-- metrics (probe.outcome.* must equal the scan's outcome totals: %v)\n", outcomeTotals)
		if err := reg.Snapshot().WriteJSON(os.Stdout); err != nil {
			fatal("writing metrics: %v", err)
		}
	}
	srv.Stop()
	os.Exit(exitCode)
}

// scanOne probes one target inside its trace buffer (when tracing), then
// waits for trailing DNS queries before classifying. The root span adopts
// the target's host so DNS-zone queries arriving from the target itself
// attribute to this probe.
func scanOne(tracer *trace.Tracer, prober *core.Prober, clk clock.Clock, suite string, index uint64, target, rcptDomain string, settle time.Duration) core.Outcome {
	ctx := context.Background()
	buf := tracer.ProbeBuffer(clk, suite, index)
	if buf == nil {
		out := prober.TestIP(ctx, target, rcptDomain)
		_ = clk.Sleep(ctx, settle)
		return out
	}
	root := buf.Root("probe",
		trace.String("suite", suite),
		trace.Int64("index", int64(index)),
		trace.String("addr", target),
		trace.String("rcpt_domain", rcptDomain),
	)
	host := target
	if h, _, err := net.SplitHostPort(target); err == nil {
		host = h
	}
	release := root.Adopt(host)
	out := prober.TestIP(trace.ContextWithSpan(ctx, root), target, rcptDomain)
	// Give slow validators a moment for trailing lookups, then reclassify
	// with the full evidence; late zone queries still land on the root span.
	_ = clk.Sleep(ctx, settle)
	release()
	out.EndSpan(root)
	tracer.FlushBuffer(buf)
	return out
}

// spoofVerdicts judges each -spoof-from domain through the real
// resolution path: SPF check_host for a forged envelope from spoofIP,
// then DMARC discovery and alignment over the same resolver. Exit code 1
// when any domain's forged message would be delivered.
func spoofVerdicts(fromList, dnsAddr, spoofIP, helo string, timeout time.Duration) int {
	if dnsAddr == "" {
		fatal("-spoof-from requires -spoof-dns (resolver address)")
	}
	ip, err := netip.ParseAddr(spoofIP)
	if err != nil {
		fatal("bad -spoof-ip: %v", err)
	}
	res := dnsclient.NewResolver(&dnsclient.Client{
		Net:     netsim.Real{},
		Server:  dnsAddr,
		Timeout: timeout,
	})
	eval := &core.VerdictEvaluator{
		Checker: &spf.Checker{Resolver: mta.ResolverAdapter{R: res}},
		HELO:    helo,
	}
	code := 0
	ctx := context.Background()
	for _, dom := range strings.Split(fromList, ",") {
		dom = strings.TrimSpace(dom)
		if dom == "" {
			continue
		}
		v := eval.Evaluate(ctx, ip, dom, dom, "")
		fmt.Printf("\n== spoof %s from %s\n", dom, ip)
		fmt.Printf("  spf:      %s", v.SPF)
		if v.SPFMechanism != "" {
			fmt.Printf(" (matched %s)", v.SPFMechanism)
		}
		if v.SPFErr != "" {
			fmt.Printf(" — %s", v.SPFErr)
		}
		fmt.Println()
		switch {
		case v.DMARCErr != "":
			fmt.Printf("  dmarc:    discovery error — %s\n", v.DMARCErr)
		case !v.DMARC.Found:
			fmt.Printf("  dmarc:    no record\n")
		default:
			fmt.Printf("  dmarc:    p=%s at %s, aligned pass: %v\n",
				v.DMARC.Disposition, v.DMARC.Domain, v.DMARC.Pass)
		}
		fmt.Printf("  VERDICT:  %s\n", v.Outcome())
		if v.Delivered() {
			code = 1
		}
	}
	return code
}

func printOutcome(out core.Outcome) {
	fmt.Printf("  status:   %s\n", out.Status)
	if out.Method != "" {
		fmt.Printf("  method:   %s\n", out.Method)
	}
	if out.Err != nil {
		fmt.Printf("  error:    %v (stage %s)\n", out.Err, out.FailStage)
	}
	if out.Attempts > 1 {
		fmt.Printf("  attempts: %d\n", out.Attempts)
	}
	if out.FailReason != "" {
		fmt.Printf("  reason:   %s\n", out.FailReason)
	}
	o := out.Observation
	fmt.Printf("  policy fetched: %v, liveness term resolved: %v\n", o.PolicyFetched, o.LivenessSeen)
	for i, p := range o.Patterns {
		fmt.Printf("  pattern:  %-20s → %s\n", o.Classes[i], p)
	}
	switch {
	case out.Vulnerable():
		fmt.Printf("  VERDICT:  VULNERABLE libSPF2 (CVE-2021-33912/33913)\n")
	case out.Status == core.StatusSPFMeasured:
		fmt.Printf("  VERDICT:  %s\n", o.DominantClass())
	default:
		fmt.Printf("  VERDICT:  inconclusive\n")
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "spfail-scan: "+format+"\n", args...)
	os.Exit(2)
}
