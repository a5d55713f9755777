package core

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/mta"
	"spfail/internal/netsim"
	"spfail/internal/spfimpl"
)

const (
	dnsIP   = "192.0.2.53"
	probeIP = "198.51.100.9"
)

// rig is a complete measurement rig: fabric, logging DNS server with the
// test zone, collector, classifier, and a prober.
type rig struct {
	fabric     *netsim.Fabric
	zone       *dnsserver.SPFTestZone
	collector  *Collector
	classifier *Classifier
	prober     *Prober
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{
		fabric: netsim.NewFabric(),
		zone: &dnsserver.SPFTestZone{
			Base:  dnsmsg.MustParseName("spf-test.dns-lab.org"),
			Addr4: netip.MustParseAddr("192.0.2.80"),
		},
	}
	r.collector = NewCollector(r.zone)
	r.classifier = NewClassifier(r.zone)
	handler := &dnsserver.LoggingHandler{Inner: r.zone, Sink: r.collector, Now: time.Now}
	srv := &dnsserver.Server{Net: r.fabric.Host(dnsIP), Addr: ":53", Handler: handler}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	r.prober = &Prober{
		Net:           r.fabric.Host(probeIP),
		HELO:          "probe.dns-lab.org",
		Clock:         clock.Real{},
		Zone:          r.zone,
		Labels:        NewLabelAllocator(1),
		Collector:     r.collector,
		Classifier:    r.classifier,
		Suite:         "s01",
		GreylistWait:  10 * time.Millisecond,
		ReconnectWait: time.Millisecond,
		IOTimeout:     2 * time.Second,
	}
	return r
}

func (r *rig) addHost(t *testing.T, ip string, cfg mta.Config) *mta.Host {
	t.Helper()
	cfg.Hostname = "mx." + ip
	cfg.IP = netip.MustParseAddr(ip)
	cfg.Net = r.fabric.Host(ip)
	cfg.DNSServer = dnsIP + ":53"
	cfg.DNSTimeout = time.Second
	h := mta.New(cfg)
	if err := h.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return h
}

func TestDetectVulnerableViaNoMsg(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.30", mta.Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt: mta.ValidateAtMailFrom,
	})
	out := r.prober.TestIP(context.Background(), "203.0.113.30:25", "example.com")
	if out.Status != StatusSPFMeasured {
		t.Fatalf("status = %s (err %v)", out.Status, out.Err)
	}
	if out.Method != MethodNoMsg {
		t.Errorf("method = %s, want NoMsg", out.Method)
	}
	if !out.Vulnerable() {
		t.Errorf("vulnerable = false; observation %+v", out.Observation)
	}
	if out.Observation.DominantClass() != ClassVulnerable {
		t.Errorf("class = %s", out.Observation.DominantClass())
	}
	if out.BlankMsgRan {
		t.Error("BlankMsg should not run after conclusive NoMsg")
	}
}

func TestDetectCompliantHost(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.31", mta.Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorCompliant},
		ValidateAt: mta.ValidateAtMailFrom,
	})
	out := r.prober.TestIP(context.Background(), "203.0.113.31:25", "example.com")
	if out.Status != StatusSPFMeasured || out.Vulnerable() {
		t.Fatalf("out = %+v", out)
	}
	if !out.Observation.Compliant() {
		t.Errorf("observation = %+v", out.Observation)
	}
}

func TestDetectViaBlankMsgEscalation(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.32", mta.Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt: mta.ValidateAtData,
	})
	out := r.prober.TestIP(context.Background(), "203.0.113.32:25", "example.com")
	if out.Status != StatusSPFMeasured {
		t.Fatalf("status = %s (err %v)", out.Status, out.Err)
	}
	if out.Method != MethodBlankMsg || !out.NoMsgRan || !out.BlankMsgRan {
		t.Errorf("ladder = %+v", out)
	}
	if !out.Vulnerable() {
		t.Error("vulnerable not detected via BlankMsg")
	}
}

func TestConnectionRefusedOutcome(t *testing.T) {
	r := newRig(t)
	out := r.prober.TestIP(context.Background(), "203.0.113.99:25", "example.com")
	if out.Status != StatusConnectionRefused {
		t.Fatalf("status = %s", out.Status)
	}
	if out.BlankMsgRan {
		t.Error("refused connections must not be retried with BlankMsg")
	}
}

func TestSMTPFailureOutcome(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.33", mta.Config{RefuseSMTP: true})
	out := r.prober.TestIP(context.Background(), "203.0.113.33:25", "example.com")
	if out.Status != StatusSMTPFailure {
		t.Fatalf("status = %s (err %v)", out.Status, out.Err)
	}
	if out.FailStage != StageBanner {
		t.Errorf("fail stage = %s", out.FailStage)
	}
}

func TestSPFNotMeasuredOutcome(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.34", mta.Config{ValidateAt: mta.ValidateNever})
	out := r.prober.TestIP(context.Background(), "203.0.113.34:25", "example.com")
	if out.Status != StatusSPFNotMeasured {
		t.Fatalf("status = %s (err %v)", out.Status, out.Err)
	}
	if !out.NoMsgRan || !out.BlankMsgRan {
		t.Error("both rungs should have run")
	}
}

func TestGreylistedHostEventuallyMeasured(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.35", mta.Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt: mta.ValidateAtData,
		Greylist:   true,
	})
	out := r.prober.TestIP(context.Background(), "203.0.113.35:25", "example.com")
	if out.Status != StatusSPFMeasured {
		t.Fatalf("status = %s (err %v)", out.Status, out.Err)
	}
	if !out.Vulnerable() {
		t.Error("greylisted vulnerable host not detected")
	}
	if len(out.IDs) < 3 {
		t.Errorf("expected multiple probe ids across greylist retry, got %v", out.IDs)
	}
}

func TestUsernameIterationOnRejectingHost(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.36", mta.Config{
		Behaviors:      []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		ValidateAt:     mta.ValidateAtMailFrom,
		AcceptedLocals: map[string]bool{"postmaster": true},
	})
	out := r.prober.TestIP(context.Background(), "203.0.113.36:25", "example.com")
	if out.Status != StatusSPFMeasured {
		t.Fatalf("status = %s (err %v)", out.Status, out.Err)
	}
	if out.Username != "postmaster" {
		t.Errorf("accepted username = %q", out.Username)
	}
}

func TestMultiImplementationHostObservation(t *testing.T) {
	r := newRig(t)
	r.addHost(t, "203.0.113.37", mta.Config{
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2, spfimpl.BehaviorNoTruncate},
		ValidateAt: mta.ValidateAtMailFrom,
	})
	out := r.prober.TestIP(context.Background(), "203.0.113.37:25", "example.com")
	if out.Status != StatusSPFMeasured {
		t.Fatalf("status = %s", out.Status)
	}
	if !out.Observation.MultiplePatterns() {
		t.Errorf("multiple patterns not observed: %+v", out.Observation)
	}
	if !out.Vulnerable() {
		t.Error("vulnerable pattern should dominate")
	}
}

func TestClassifierTaxonomy(t *testing.T) {
	r := newRig(t)
	behaviors := map[string]struct {
		b    spfimpl.Behavior
		want BehaviorClass
	}{
		"203.0.113.40": {spfimpl.BehaviorCompliant, ClassCompliant},
		"203.0.113.41": {spfimpl.BehaviorVulnLibSPF2, ClassVulnerable},
		"203.0.113.42": {spfimpl.BehaviorNoReverse, ClassNoReverse},
		"203.0.113.43": {spfimpl.BehaviorNoTruncate, ClassNoTruncate},
		"203.0.113.44": {spfimpl.BehaviorRawValue, ClassRawValue},
		"203.0.113.45": {spfimpl.BehaviorNoExpansion, ClassNoExpansion},
		"203.0.113.46": {spfimpl.BehaviorPatchedLibSPF2, ClassCompliant},
	}
	for ip, tc := range behaviors {
		r.addHost(t, ip, mta.Config{
			Behaviors:  []spfimpl.Behavior{tc.b},
			ValidateAt: mta.ValidateAtMailFrom,
		})
	}
	for ip, tc := range behaviors {
		out := r.prober.TestIP(context.Background(), ip+":25", "example.com")
		if out.Status != StatusSPFMeasured {
			t.Errorf("%s (%s): status %s (err %v)", ip, tc.b, out.Status, out.Err)
			continue
		}
		if got := out.Observation.DominantClass(); got != tc.want {
			t.Errorf("%s (%s): class %s, want %s; patterns %v",
				ip, tc.b, got, tc.want, out.Observation.Patterns)
		}
	}
}

// streamAt returns a fresh label stream positioned at probe index.
func streamAt(seed int64, index uint64, fallback *LabelAllocator) *LabelStream {
	s := NewLabelStream(seed, fallback)
	s.Reset(index)
	return s
}

// TestLabelStreamUniqueAndStable checks the campaign label stream: labels
// must be unique across (index, ordinal) pairs by construction, identical
// across two streams with the same inputs, and different under a
// different seed.
func TestLabelStreamUniqueAndStable(t *testing.T) {
	seen := make(map[string]bool)
	for index := uint64(0); index < 500; index++ {
		next := streamAt(7, index, nil)
		again := streamAt(7, index, nil)
		for ord := 0; ord < 8; ord++ {
			l := next.Next()
			if l != again.Next() {
				t.Fatalf("stream for index %d diverged at ordinal %d", index, ord)
			}
			if seen[l] {
				t.Fatalf("duplicate label %q at index %d ordinal %d", l, index, ord)
			}
			seen[l] = true
			if len(l) != 8 || l[0] < 'a' || l[0] > 'z' {
				t.Fatalf("label %q is not 8 chars with an alphabetic lead", l)
			}
		}
	}
	if a, b := streamAt(1, 42, nil).Next(), streamAt(2, 42, nil).Next(); a == b {
		t.Fatalf("seeds 1 and 2 produced the same label %q", a)
	}
}

func TestLabelAllocatorUnique(t *testing.T) {
	a := NewLabelAllocator(7)
	seen := make(map[string]bool)
	for i := 0; i < 20000; i++ {
		l := a.Next()
		if seen[l] {
			t.Fatalf("duplicate label %q at %d", l, i)
		}
		if len(l) < 4 || len(l) > 5 {
			t.Fatalf("label %q has bad length", l)
		}
		seen[l] = true
	}
}

func TestLabelAllocatorDeterministic(t *testing.T) {
	a, b := NewLabelAllocator(42), NewLabelAllocator(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed should produce same labels")
		}
	}
}

func TestCollectorIndexesAndForgets(t *testing.T) {
	zone := &dnsserver.SPFTestZone{Base: dnsmsg.MustParseName("spf-test.dns-lab.org")}
	c := NewCollector(zone)
	ev := dnsserver.QueryEvent{
		Name: dnsmsg.MustParseName("xk.s01.spf-test.dns-lab.org"),
		Type: dnsmsg.TypeTXT,
	}
	c.Observe(ev)
	c.Observe(dnsserver.QueryEvent{ // out of zone: ignored
		Name: dnsmsg.MustParseName("example.com"),
		Type: dnsmsg.TypeTXT,
	})
	if got := len(c.AppendQueriesFor(nil, "xk")); got != 1 {
		t.Fatalf("AppendQueriesFor = %d", got)
	}
	if len(c.byID) != 1 {
		t.Fatalf("collector indexed %d probe ids, want 1 (the out-of-zone query is ignored)", len(c.byID))
	}
	c.Forget("xk")
	if got := len(c.AppendQueriesFor(nil, "xk")); got != 0 {
		t.Fatal("Forget did not clear")
	}
}

func TestBehaviorClassErroneous(t *testing.T) {
	if ClassCompliant.Erroneous() || ClassMacroSkipped.Erroneous() {
		t.Error("compliant/skipped should not be erroneous")
	}
	for _, c := range []BehaviorClass{ClassVulnerable, ClassNoReverse, ClassNoTruncate, ClassRawValue, ClassNoExpansion, ClassOther} {
		if !c.Erroneous() {
			t.Errorf("%s should be erroneous", c)
		}
	}
}
