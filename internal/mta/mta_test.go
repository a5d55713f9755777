package mta

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/netsim"
	"spfail/internal/smtp"
	"spfail/internal/spfimpl"
)

// world bundles a fabric, an authoritative DNS server with the SPF test
// zone, and a query log — the measurement-side infrastructure. Names
// outside the test zone resolve from static, which tests may fill.
type world struct {
	fabric *netsim.Fabric
	log    *dnsserver.QueryLog
	zone   *dnsserver.SPFTestZone
	static *dnsserver.ZoneSet
}

const dnsIP = "192.0.2.53"

func newWorld(t *testing.T) *world { return newWorldClock(t, nil) }

// newWorldClock builds a world whose fabric enforces deadlines against clk
// (nil: the real clock). The clock must be fixed here, before the DNS
// server starts reading from fabric connections.
func newWorldClock(t *testing.T, clk clock.Clock) *world {
	t.Helper()
	w := &world{
		fabric: netsim.NewFabric(),
		log:    &dnsserver.QueryLog{},
		zone: &dnsserver.SPFTestZone{
			Base:  dnsmsg.MustParseName("spf-test.dns-lab.org"),
			Addr4: netip.MustParseAddr("192.0.2.80"),
		},
		static: dnsserver.NewZoneSet(),
	}
	w.fabric.Clock = clk
	mux := dnsserver.NewMux(w.static)
	mux.Handle(w.zone.Base, w.zone)
	handler := &dnsserver.LoggingHandler{
		Inner: mux,
		Sink:  w.log,
		Now:   time.Now,
	}
	srv := &dnsserver.Server{Net: w.fabric.Host(dnsIP), Addr: ":53", Handler: handler}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return w
}

func (w *world) newHost(t *testing.T, ip string, cfg Config) *Host {
	t.Helper()
	cfg.Hostname = "mx." + ip + ".example"
	cfg.IP = netip.MustParseAddr(ip)
	cfg.Net = w.fabric.Host(ip)
	cfg.DNSServer = dnsIP + ":53"
	cfg.DNSTimeout = time.Second
	h := New(cfg)
	if err := h.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return h
}

// probe runs a full BlankMsg-style transaction against the host.
func (w *world) probe(t *testing.T, hostIP, mailDomain string, full bool) error {
	t.Helper()
	return w.probeFrom("198.51.100.9", hostIP, mailDomain, full)
}

// probeFrom is probe from the client address clientIP. It reports failure
// only through its error, so concurrent probes may share a test.
func (w *world) probeFrom(clientIP, hostIP, mailDomain string, full bool) error {
	cli := &smtp.Client{Net: w.fabric.Host(clientIP), HELO: "probe.dns-lab.org"}
	conn, err := cli.Dial(context.Background(), hostIP+":25")
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Hello(); err != nil {
		return err
	}
	if err := conn.Mail("mmj7yzdm0tbk@" + mailDomain); err != nil {
		return err
	}
	if err := conn.Rcpt("noreply@" + hostIP + ".example"); err != nil {
		return err
	}
	if err := conn.Data(); err != nil {
		return err
	}
	if !full {
		return conn.Close() // NoMsg termination
	}
	r, err := conn.SendMessage(nil) // BlankMsg
	if err != nil {
		return err
	}
	if !r.Positive() {
		return &smtp.ReplyError{Reply: *r}
	}
	return nil
}

// queriesFor extracts query names containing the given id label.
func (w *world) queriesFor(id string) []string {
	var out []string
	for _, ev := range w.log.Snapshot() {
		if id2, _, ok := w.zone.ExtractIDSuite(ev.Name); ok && id2 == id {
			out = append(out, ev.Name.String())
		}
	}
	return out
}

// patternsFor reports whether the server saw the vulnerable libSPF2 and
// the compliant expansion of the probe macro for label id.
func (w *world) patternsFor(id string) (vuln, compliant bool) {
	for _, q := range w.queriesFor(id) {
		if strings.HasPrefix(q, "org.org.") {
			vuln = true
		}
		if q == id+"."+id+".t01.spf-test.dns-lab.org." {
			compliant = true
		}
	}
	return vuln, compliant
}

func TestVulnerableHostEmitsFingerprint(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.10", Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt: ValidateAtMailFrom,
	})
	mailDomain := "xk91.t01.spf-test.dns-lab.org"
	if err := w.probe(t, "203.0.113.10", mailDomain, false); err != nil {
		t.Fatalf("probe: %v", err)
	}
	qs := w.queriesFor("xk91")
	// Expect TXT for the mail domain, the vulnerable fingerprint A query,
	// and the liveness A query.
	want := "org.org.dns-lab.spf-test.t01.xk91.xk91.t01.spf-test.dns-lab.org."
	var sawFingerprint, sawLiveness bool
	for _, q := range qs {
		if q == want {
			sawFingerprint = true
		}
		if q == "b.xk91.t01.spf-test.dns-lab.org." {
			sawLiveness = true
		}
	}
	if !sawFingerprint {
		t.Errorf("fingerprint query missing; got %v", qs)
	}
	if !sawLiveness {
		t.Errorf("liveness query missing; got %v", qs)
	}
}

func TestCompliantHostExpandsCorrectly(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.11", Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorCompliant},
		ValidateAt: ValidateAtMailFrom,
	})
	if err := w.probe(t, "203.0.113.11", "ab42.t01.spf-test.dns-lab.org", false); err != nil {
		t.Fatalf("probe: %v", err)
	}
	qs := w.queriesFor("ab42")
	var sawCompliant bool
	for _, q := range qs {
		if q == "ab42.ab42.t01.spf-test.dns-lab.org." {
			sawCompliant = true
		}
		if strings.Contains(q, "org.org.") {
			t.Errorf("compliant host emitted vulnerable pattern: %s", q)
		}
	}
	if !sawCompliant {
		t.Errorf("compliant expansion missing; got %v", qs)
	}
}

func TestValidateAtDataRequiresBlankMsg(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.12", Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt: ValidateAtData,
	})
	// NoMsg probe: no SPF queries.
	if err := w.probe(t, "203.0.113.12", "cd77.t01.spf-test.dns-lab.org", false); err != nil {
		t.Fatalf("NoMsg probe: %v", err)
	}
	if qs := w.queriesFor("cd77"); len(qs) != 0 {
		t.Fatalf("NoMsg probe should trigger nothing at a data-validating host; got %v", qs)
	}
	// BlankMsg probe: queries appear.
	if err := w.probe(t, "203.0.113.12", "cd78.t01.spf-test.dns-lab.org", true); err != nil {
		t.Fatalf("BlankMsg probe: %v", err)
	}
	if qs := w.queriesFor("cd78"); len(qs) == 0 {
		t.Fatal("BlankMsg probe should trigger SPF at a data-validating host")
	}
}

// TestPatchChangesFingerprint probes a host built with the stack a
// population.HostManager gives a vulnerable host after its PatchAt: the
// patched libSPF2 expands the probe macro like a compliant validator.
func TestPatchChangesFingerprint(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.13", Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorPatchedLibSPF2},
		ValidateAt: ValidateAtMailFrom,
	})
	if err := w.probe(t, "203.0.113.13", "ef55.t01.spf-test.dns-lab.org", false); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if vuln, compliant := w.patternsFor("ef55"); vuln || !compliant {
		t.Errorf("patched host patterns: vuln=%v compliant=%v, want only the compliant one; queries %v",
			vuln, compliant, w.queriesFor("ef55"))
	}
}

func TestMultipleBehaviorsEmitMultiplePatterns(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.14", Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2, spfimpl.BehaviorCompliant},
		ValidateAt: ValidateAtMailFrom,
	})
	if err := w.probe(t, "203.0.113.14", "gh33.t01.spf-test.dns-lab.org", false); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if vuln, compliant := w.patternsFor("gh33"); !vuln || !compliant {
		t.Errorf("multi-impl host patterns: vuln=%v compliant=%v queries=%v", vuln, compliant, w.queriesFor("gh33"))
	}
}

// The host's TTL cache is the one DNS layer above the wire: when two
// behaviors validate the same sender, the second reads the probe policy
// from the cache, so the authoritative server sees its TXT query once.
func TestHostCacheServesSecondBehavior(t *testing.T) {
	sim := clock.NewSim(time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC))
	w := newWorldClock(t, sim)
	w.newHost(t, "203.0.113.23", Config{
		Clock:      sim,
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2, spfimpl.BehaviorCompliant},
		ValidateAt: ValidateAtMailFrom,
	})
	mailDomain := "uv55.t01.spf-test.dns-lab.org"
	if err := w.probe(t, "203.0.113.23", mailDomain, false); err != nil {
		t.Fatalf("probe: %v", err)
	}
	// Both behaviors validated: each one's expansion reached the server.
	if vuln, compliant := w.patternsFor("uv55"); !vuln || !compliant {
		t.Fatalf("patterns: vuln=%v compliant=%v, want one per behavior; queries %v",
			vuln, compliant, w.queriesFor("uv55"))
	}
	policy := dnsmsg.MustParseName(mailDomain)
	txt := 0
	for _, ev := range w.log.Snapshot() {
		if ev.Type == dnsmsg.TypeTXT && ev.Name.Equal(policy) {
			txt++
		}
	}
	if txt != 1 {
		t.Fatalf("server saw the policy TXT query %d times, want 1", txt)
	}
}

func TestRefuseSMTPHost(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.15", Config{RefuseSMTP: true})
	err := w.probe(t, "203.0.113.15", "ij11.t01.spf-test.dns-lab.org", false)
	if smtp.ReplyCode(err) != 421 {
		t.Fatalf("probe err = %v, want 421", err)
	}
}

func TestBlacklistActivatesAtTime(t *testing.T) {
	sim := clock.NewSim(time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC))
	// Deadlines on fabric connections are enforced against the fabric
	// clock; a Sim-clocked host needs the fabric on the same timeline.
	w := newWorldClock(t, sim)
	w.newHost(t, "203.0.113.16", Config{
		Clock:             sim,
		Behaviors:         []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt:        ValidateAtMailFrom,
		BlacklistProbesAt: time.Date(2021, 11, 15, 0, 0, 0, 0, time.UTC),
	})
	if err := w.probe(t, "203.0.113.16", "kl22.t01.spf-test.dns-lab.org", false); err != nil {
		t.Fatalf("pre-blacklist probe: %v", err)
	}
	sim.Advance(60 * 24 * time.Hour)
	err := w.probe(t, "203.0.113.16", "kl23.t01.spf-test.dns-lab.org", false)
	if smtp.ReplyCode(err) != 421 {
		t.Fatalf("post-blacklist probe = %v, want 421", err)
	}
}

func TestGreylistFirstAttempt(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.17", Config{Greylist: true, ValidateAt: ValidateNever})
	err := w.probe(t, "203.0.113.17", "mn44.t01.spf-test.dns-lab.org", true)
	if smtp.ReplyCode(err) != 450 {
		t.Fatalf("first attempt = %v, want 450", err)
	}
	if err := w.probe(t, "203.0.113.17", "mn44.t01.spf-test.dns-lab.org", true); err != nil {
		t.Fatalf("retry should succeed: %v", err)
	}
}

func TestRejectOnFailStillMeasurable(t *testing.T) {
	// A host that rejects on SPF fail still performed the lookups —
	// the paper's observation that rejected transactions were often
	// conclusive anyway.
	w := newWorld(t)
	w.newHost(t, "203.0.113.18", Config{
		Behaviors:    []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt:   ValidateAtMailFrom,
		RejectOnFail: true,
	})
	err := w.probe(t, "203.0.113.18", "op66.t01.spf-test.dns-lab.org", false)
	if smtp.ReplyCode(err) != 550 {
		t.Fatalf("probe = %v, want 550 SPF rejection", err)
	}
	if qs := w.queriesFor("op66"); len(qs) == 0 {
		t.Fatal("rejection should not prevent SPF queries from being observed")
	}
}

func TestRcptUserFiltering(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.19", Config{
		AcceptedLocals: map[string]bool{"postmaster": true},
		ValidateAt:     ValidateNever,
	})
	cli := &smtp.Client{Net: w.fabric.Host("198.51.100.9"), HELO: "probe"}
	conn, err := cli.Dial(context.Background(), "203.0.113.19:25")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Hello()
	conn.Mail("probe@x.t.spf-test.dns-lab.org")
	if err := conn.Rcpt("noreply@example.com"); smtp.ReplyCode(err) != 550 {
		t.Fatalf("unknown user = %v, want 550", err)
	}
	if err := conn.Rcpt("postmaster@example.com"); err != nil {
		t.Fatalf("postmaster should be accepted: %v", err)
	}
}

func TestDMARCEnforcementDiscardsBlankProbe(t *testing.T) {
	// A host enforcing DMARC at end-of-data: the probe's SPF queries are
	// still observable, but the blank message itself is rejected because
	// the probe domain publishes p=reject (§6.2) — it never reaches an
	// inbox.
	w := newWorld(t)
	w.newHost(t, "203.0.113.21", Config{
		Behaviors:    []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt:   ValidateAtData,
		EnforceDMARC: true,
	})
	err := w.probe(t, "203.0.113.21", "st99.t01.spf-test.dns-lab.org", true)
	if smtp.ReplyCode(err) != 550 {
		t.Fatalf("blank probe = %v, want 550 DMARC rejection", err)
	}
	if qs := w.queriesFor("st99"); len(qs) == 0 {
		t.Fatal("SPF queries should precede the DMARC rejection")
	}
	// Sanity: without enforcement the same probe is delivered (250 after
	// the message data).
	w.newHost(t, "203.0.113.22", Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt: ValidateAtData,
	})
	if err := w.probe(t, "203.0.113.22", "st98.t01.spf-test.dns-lab.org", true); err != nil {
		t.Fatalf("unenforced probe: %v", err)
	}
}

// TestValidationRecordsAndOverflows checks that a validation judges the
// SMTP client's own address: a RejectOnFail host accepts MAIL FROM from the
// one address the sender policy authorizes and answers 550 to another. A
// policy without URL-encoded macros overflows nothing.
func TestValidationRecordsAndOverflows(t *testing.T) {
	w := newWorld(t)
	w.static.AddTXT(dnsmsg.MustParseName("ipcheck.example"), "v=spf1 ip4:198.51.100.9 -all")
	h := w.newHost(t, "203.0.113.20", Config{
		Behaviors:    []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt:   ValidateAtMailFrom,
		RejectOnFail: true,
	})
	if err := w.probeFrom("198.51.100.9", "203.0.113.20", "ipcheck.example", false); err != nil {
		t.Fatalf("authorized client: %v", err)
	}
	if err := w.probeFrom("198.51.100.10", "203.0.113.20", "ipcheck.example", false); smtp.ReplyCode(err) != 550 {
		t.Fatalf("unauthorized client = %v, want 550 SPF rejection", err)
	}
	if ov := h.Overflows(); len(ov) != 0 {
		t.Errorf("benign policy caused overflows: %v", ov)
	}
}

// TestConcurrentValidationsOnOneHost runs several SMTP sessions at once
// against one two-behavior host. Validations share the host's behaviors
// and checkers without a lock, so every probe label must still show both
// behaviors' expansions at the server (run it under -race).
func TestConcurrentValidationsOnOneHost(t *testing.T) {
	w := newWorld(t)
	w.newHost(t, "203.0.113.24", Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2, spfimpl.BehaviorCompliant},
		ValidateAt: ValidateAtMailFrom,
	})
	const sessions = 8
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := fmt.Sprintf("198.51.100.%d", 20+i)
			mailDomain := fmt.Sprintf("cc%02d.t01.spf-test.dns-lab.org", i)
			errs[i] = w.probeFrom(client, "203.0.113.24", mailDomain, false)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		id := fmt.Sprintf("cc%02d", i)
		if vuln, compliant := w.patternsFor(id); !vuln || !compliant {
			t.Errorf("label %s: vuln=%v compliant=%v; queries %v", id, vuln, compliant, w.queriesFor(id))
		}
	}
}

// udpTracker is a netsim.Network that counts the UDP conns dialed through
// it that are still open.
type udpTracker struct {
	netsim.Network
	mu           sync.Mutex
	dialed, open int
}

func (n *udpTracker) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	c, err := n.Network.DialContext(ctx, network, address)
	if err != nil || network != "udp" {
		return c, err
	}
	n.mu.Lock()
	n.dialed++
	n.open++
	n.mu.Unlock()
	return &trackedConn{Conn: c, n: n}, nil
}

func (n *udpTracker) counts() (dialed, open int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dialed, n.open
}

// trackedConn tells its tracker when it is first closed.
type trackedConn struct {
	net.Conn
	n    *udpTracker
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() {
		c.n.mu.Lock()
		c.n.open--
		c.n.mu.Unlock()
	})
	return c.Conn.Close()
}

// TestStoppedHostClosesItsSockets: a host's DNS client keeps the socket
// its validation's lookups used, and Stop closes it, so no UDP conn dialed
// through the host's Net is left open.
func TestStoppedHostClosesItsSockets(t *testing.T) {
	w := newWorld(t)
	const ip = "203.0.113.31"
	tr := &udpTracker{Network: w.fabric.Host(ip)}
	h := New(Config{
		Hostname:   "mx." + ip + ".example",
		IP:         netip.MustParseAddr(ip),
		Net:        tr,
		DNSServer:  dnsIP + ":53",
		DNSTimeout: time.Second,
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorCompliant},
		ValidateAt: ValidateAtMailFrom,
	})
	if err := h.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	if err := w.probe(t, ip, "st31.t01.spf-test.dns-lab.org", false); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if len(w.queriesFor("st31")) == 0 {
		t.Fatal("the host did not validate: no query for the probe label")
	}
	dialed, open := tr.counts()
	if dialed == 0 || open == 0 {
		t.Fatalf("after the validation: %d UDP conns dialed, %d open; want the client to keep one", dialed, open)
	}
	h.Stop()
	if _, open := tr.counts(); open != 0 {
		t.Fatalf("stopped host left %d of %d UDP conns open", open, dialed)
	}
}
