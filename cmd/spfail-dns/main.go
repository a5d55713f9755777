// Command spfail-dns runs the SPFail measurement DNS zone on a real
// socket: the dynamic authoritative server that synthesizes per-probe SPF
// policies (v=spf1 a:%{d1r}.<id>.<suite>.<base> ...) and prints every
// query it receives to stdout, tagging fingerprint-relevant ones.
//
//	spfail-dns -listen 0.0.0.0:5353 -base spf-test.dns-lab.org
//
// In a lab deployment, delegate <base> to the machine running this server,
// then point spfail-scan at the mail servers to be tested.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
	"spfail/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:5353", "UDP+TCP listen address")
		base     = flag.String("base", "spf-test.dns-lab.org", "zone apex under our control")
		addr4    = flag.String("addr4", "192.0.2.25", "A record served for names under the zone")
		addr6    = flag.String("addr6", "", "AAAA record served (optional)")
		zoneFile = flag.String("zone", "", "optional RFC 1035 master file with additional records to serve")
		quiet    = flag.Bool("quiet", false, "suppress per-query output")
	)
	flag.Parse()

	baseName, err := dnsmsg.ParseName(*base)
	if err != nil {
		fatal("bad -base: %v", err)
	}
	a4, err := netip.ParseAddr(*addr4)
	if err != nil {
		fatal("bad -addr4: %v", err)
	}
	zone := &dnsserver.SPFTestZone{Base: baseName, Addr4: a4}
	if *addr6 != "" {
		a6, err := netip.ParseAddr(*addr6)
		if err != nil {
			fatal("bad -addr6: %v", err)
		}
		zone.Addr6 = a6
	}

	// Static records (if any) serve everything outside the test zone.
	var inner dnsserver.Handler = zone
	if *zoneFile != "" {
		data, err := os.ReadFile(*zoneFile)
		if err != nil {
			fatal("reading -zone: %v", err)
		}
		static, err := dnsserver.ParseZoneString(string(data))
		if err != nil {
			fatal("%v", err)
		}
		mux := dnsserver.NewMux(static)
		mux.Handle(baseName, zone)
		inner = mux
	}

	handler := inner
	if !*quiet {
		handler = &dnsserver.LoggingHandler{Inner: inner, Sink: printSink{zone: zone}, Now: clock.Real{}.Now}
	}
	// The exit line counts queries with the server's own counter rather
	// than a log, so a long-running server holds no per-query state.
	metrics := telemetry.New()
	srv := &dnsserver.Server{Net: netsim.Real{}, Addr: *listen, Handler: handler, Metrics: metrics}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := srv.Start(ctx); err != nil {
		fatal("start: %v", err)
	}
	fmt.Printf("spfail-dns: serving %s on %s (policy: %s)\n",
		baseName, *listen, zone.PolicyFor(dnsmsg.MustParseName("ID.SUITE."+*base)))
	<-ctx.Done()
	srv.Stop()
	fmt.Printf("spfail-dns: %d queries observed\n", metrics.Counter("dns.server.queries").Value())
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "spfail-dns: "+format+"\n", args...)
	os.Exit(2)
}

// printSink writes each in-zone query to stdout, flagging the probe id it
// belongs to.
type printSink struct {
	zone *dnsserver.SPFTestZone
}

func (s printSink) Observe(ev dnsserver.QueryEvent) {
	id, suite, ok := s.zone.ExtractIDSuite(ev.Name)
	tag := ""
	if ok {
		tag = fmt.Sprintf("  [id=%s suite=%s]", id, suite)
	}
	fmt.Printf("%s  %-40s %-5s from %s%s\n",
		ev.Time.Format("15:04:05.000"), ev.Name, ev.Type, ev.From, tag)
}
