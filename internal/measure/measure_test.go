package measure

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/population"
)

func tinySpec() population.Spec {
	s := population.DefaultSpec()
	s.Scale = 0.004 // ~1700 Alexa domains, ~90 2-week, enough structure
	s.Seed = 11
	return s
}

func newTestRig(t *testing.T, clk clock.Clock) *Rig {
	t.Helper()
	w := population.MustGenerate(tinySpec())
	rig, err := NewRigFromOptions(context.Background(), RigOptions{World: w, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return rig
}

func fastCampaign(rig *Rig) *Campaign {
	return fastCampaignWith(rig, nil)
}

// fastCampaignWith builds the standard fast test campaign, letting the
// caller tweak the config before construction.
func fastCampaignWith(rig *Rig, mutate func(*Config)) *Campaign {
	cfg := Config{
		Suite:         "t01",
		Concurrency:   64,
		BatchSize:     500,
		GreylistWait:  time.Millisecond,
		ReconnectWait: time.Millisecond,
		IOTimeout:     2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewCampaign(rig, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestResolveTargetsMatchesWorld(t *testing.T) {
	rig := newTestRig(t, clock.Real{})
	var domains []string
	for _, d := range rig.World.Domains[:40] {
		domains = append(domains, d.Name)
	}
	targets := rig.ResolveTargets(context.Background(), domains)
	if len(targets) != len(domains) {
		t.Fatalf("targets = %d", len(targets))
	}
	for _, tgt := range targets {
		d := rig.World.ByName[tgt.Domain]
		if len(tgt.Addrs) != len(d.Hosts) {
			t.Errorf("%s: resolved %d addrs, world has %d", tgt.Domain, len(tgt.Addrs), len(d.Hosts))
			continue
		}
		want := map[netip.Addr]bool{}
		for _, a := range d.Hosts {
			want[a] = true
		}
		for _, a := range tgt.Addrs {
			if !want[a] {
				t.Errorf("%s: unexpected addr %s", tgt.Domain, a)
			}
		}
		if tgt.HasMX != d.HasMX {
			t.Errorf("%s: HasMX = %v, world %v", tgt.Domain, tgt.HasMX, d.HasMX)
		}
	}
}

func TestUniqueAddrs(t *testing.T) {
	a1 := netip.MustParseAddr("100.64.0.1")
	a2 := netip.MustParseAddr("100.64.0.2")
	targets := []Target{
		{Domain: "a.com", Addrs: []netip.Addr{a1, a2}},
		{Domain: "b.com", Addrs: []netip.Addr{a1}},
	}
	addrs, rep := UniqueAddrs(targets)
	if len(addrs) != 2 {
		t.Fatalf("addrs = %v", addrs)
	}
	if rep[a1] != "a.com" || rep[a2] != "a.com" {
		t.Errorf("rep = %v", rep)
	}
}

// TestCampaignDetectsGroundTruth probes a slice of the world and checks
// the detector's verdicts against the generator's ground truth.
func TestCampaignDetectsGroundTruth(t *testing.T) {
	rig := newTestRig(t, clock.Real{})
	c := fastCampaign(rig)

	// Pick addresses with known ground truth: vulnerable, compliant, and
	// refusing hosts.
	var vulnAddr, safeAddr, refusedAddr netip.Addr
	var vulnDom, safeDom, refusedDom string
	for _, d := range rig.World.Domains {
		for _, a := range d.Hosts {
			h := rig.World.Hosts[a]
			switch {
			case !vulnAddr.IsValid() && h.Listens && !h.RefuseSMTP && h.EverVulnerable() && !h.BlankMsgFails &&
				h.FlakyRate == 0 && h.BlacklistProbesAt.IsZero():
				vulnAddr, vulnDom = a, d.Name
			case !safeAddr.IsValid() && h.Listens && !h.RefuseSMTP && !h.BlankMsgFails &&
				h.FlakyRate == 0 && h.BlacklistProbesAt.IsZero() &&
				len(h.Behaviors) == 1 && h.Behaviors[0] == "compliant":
				safeAddr, safeDom = a, d.Name
			case !refusedAddr.IsValid() && !h.Listens:
				refusedAddr, refusedDom = a, d.Name
			}
		}
		if vulnAddr.IsValid() && safeAddr.IsValid() && refusedAddr.IsValid() {
			break
		}
	}
	if !vulnAddr.IsValid() || !safeAddr.IsValid() || !refusedAddr.IsValid() {
		t.Fatal("world too small to find all ground-truth categories")
	}

	addrs := []netip.Addr{vulnAddr, safeAddr, refusedAddr}
	rcpt := map[netip.Addr]string{vulnAddr: vulnDom, safeAddr: safeDom, refusedAddr: refusedDom}
	results, err := c.MeasureAddrs(context.Background(), addrs, rcpt)
	if err != nil {
		t.Fatal(err)
	}

	if got := results[vulnAddr]; !got.Vulnerable() {
		t.Errorf("vulnerable host: %+v", got)
	}
	if got := results[safeAddr]; got.Status != core.StatusSPFMeasured || got.Vulnerable() {
		t.Errorf("compliant host: status %s vuln %v (err %v)", got.Status, got.Vulnerable(), got.Err)
	}
	if got := results[refusedAddr]; got.Status != core.StatusConnectionRefused {
		t.Errorf("refusing host: %+v", got)
	}
}

func TestCampaignOnSimClock(t *testing.T) {
	sim := clock.NewSim(population.TInitial)
	rig := newTestRig(t, sim)
	c, err := NewCampaign(rig, Config{
		Suite:       "t02",
		Concurrency: 16,
		BatchSize:   100,
		IOTimeout:   2 * time.Second,
		// Paper-faithful waits: virtual time makes them free.
		GreylistWait:  8 * time.Minute,
		ReconnectWait: 90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addrs := rig.World.AllAddrs()
	if len(addrs) > 60 {
		addrs = addrs[:60]
	}
	rcpt := map[netip.Addr]string{}
	for _, a := range addrs {
		if ds := rig.World.DomainsOn(a); len(ds) > 0 {
			rcpt[a] = ds[0].Name
		}
	}
	results, err := c.MeasureAddrs(context.Background(), addrs, rcpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(addrs) {
		t.Fatalf("results = %d, want %d", len(results), len(addrs))
	}
	var measured int
	for _, o := range results {
		if o.Status == core.StatusSPFMeasured {
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("no host measured on sim clock")
	}
	// Probe pacing runs on per-probe frame clocks anchored at the pass's
	// asOf, so a measurement pass leaves the shared sim timeline where it
	// found it: trace bytes stay independent of batch geometry.
	if !sim.Now().Equal(population.TInitial) {
		t.Errorf("shared sim clock moved to %v during campaign, want pinned at %v",
			sim.Now(), population.TInitial)
	}
	res := c.Resources()
	if res.Batches == 0 || len(res.Shards) == 0 {
		t.Fatalf("campaign resources not recorded: %+v", res)
	}
	var probes int64
	for _, s := range res.Shards {
		probes += s.Probes
	}
	if probes != int64(len(addrs)) {
		t.Errorf("shard probe total = %d, want %d", probes, len(addrs))
	}
	if res.AllocBytes == 0 {
		t.Error("campaign alloc delta = 0, want > 0")
	}
}

func TestInferSeriesRules(t *testing.T) {
	v, s, i := IPVulnerable, IPSafe, IPInconclusive
	cases := []struct {
		name string
		in   []IPStatus
		want []IPStatus
	}{
		{"backfill-vulnerable", []IPStatus{i, i, v, i}, []IPStatus{v, v, v, i}},
		{"forwardfill-safe", []IPStatus{v, i, s, i}, []IPStatus{v, i, s, s}},
		{"both", []IPStatus{i, v, i, s, i}, []IPStatus{v, v, i, s, s}},
		{"all-inconclusive", []IPStatus{i, i}, []IPStatus{i, i}},
		{"no-change-needed", []IPStatus{v, v, s}, []IPStatus{v, v, s}},
	}
	for _, c := range cases {
		got := InferSeries(c.in)
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("%s[%d] = %s, want %s", c.name, j, got[j], c.want[j])
			}
		}
	}
}

func TestStatusOf(t *testing.T) {
	vulnObs := core.Observation{
		Patterns: []string{"x"},
		Classes:  []core.BehaviorClass{core.ClassVulnerable},
	}
	if StatusOf(core.Outcome{Status: core.StatusSPFMeasured, Observation: vulnObs}) != IPVulnerable {
		t.Error("vulnerable mapping")
	}
	safeObs := core.Observation{
		Patterns: []string{"x"},
		Classes:  []core.BehaviorClass{core.ClassCompliant},
	}
	if StatusOf(core.Outcome{Status: core.StatusSPFMeasured, Observation: safeObs}) != IPSafe {
		t.Error("safe mapping")
	}
	if StatusOf(core.Outcome{Status: core.StatusConnectionRefused}) != IPInconclusive {
		t.Error("refused mapping")
	}
}

func TestDomainAggregation(t *testing.T) {
	a1 := netip.MustParseAddr("100.64.0.1")
	a2 := netip.MustParseAddr("100.64.0.2")
	mkOutcome := func(cls core.BehaviorClass) core.Outcome {
		return core.Outcome{
			Status: core.StatusSPFMeasured,
			Observation: core.Observation{
				Patterns: []string{"p"},
				Classes:  []core.BehaviorClass{cls},
			},
		}
	}
	t0 := time.Date(2021, 10, 26, 0, 0, 0, 0, time.UTC)
	rounds := []Round{
		{Time: t0, Results: map[netip.Addr]core.Outcome{
			a1: mkOutcome(core.ClassVulnerable),
			a2: mkOutcome(core.ClassVulnerable),
		}},
		{Time: t0.Add(48 * time.Hour), Results: map[netip.Addr]core.Outcome{
			a1: mkOutcome(core.ClassCompliant),
			// a2 missing: inconclusive.
		}},
		{Time: t0.Add(96 * time.Hour), Results: map[netip.Addr]core.Outcome{
			a1: mkOutcome(core.ClassCompliant),
			a2: mkOutcome(core.ClassCompliant),
		}},
	}
	an := Analyze(rounds, []netip.Addr{a1, a2})
	domains := map[string][]netip.Addr{"d.example": {a1, a2}}
	series := an.DomainSeries(domains)
	if len(series) != 3 {
		t.Fatalf("series = %d points", len(series))
	}
	if series[0].Vulnerable != 1 || series[0].Measured != 1 {
		t.Errorf("round 0 = %+v", series[0])
	}
	// Round 1: a1 safe, a2 inconclusive (raw) but still vulnerable? No —
	// a2 has no later vulnerable observation, and a later safe one, so
	// inference marks it... safe only from round 2 onward. Round 1 is
	// uncertain.
	if series[1].Vulnerable != 0 || series[1].Patched != 0 || series[1].Uncertain != 1 {
		t.Errorf("round 1 = %+v", series[1])
	}
	if series[1].Measured != 0 || series[1].Inferred != 0 {
		t.Errorf("round 1 conclusiveness = %+v", series[1])
	}
	if series[2].Patched != 1 || series[2].Measured != 1 {
		t.Errorf("round 2 = %+v", series[2])
	}
	if got := series[0].VulnerableRate(); got != 1 {
		t.Errorf("rate round 0 = %f", got)
	}
	if got := series[2].VulnerableRate(); got != 0 {
		t.Errorf("rate round 2 = %f", got)
	}
}
