package measure

import (
	"bytes"
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/faults"
	"spfail/internal/population"
	"spfail/internal/retry"
	"spfail/internal/trace"
)

// TestFaultyCampaignNoLostProbes is the resilience acceptance test: under
// the aggressive fault preset with retries and a circuit breaker enabled,
// every probed address must still appear in the results — with a real
// outcome or an explicit StatusInconclusive — never silently vanish.
func TestFaultyCampaignNoLostProbes(t *testing.T) {
	sim := clock.NewSim(population.TInitial)
	w := population.MustGenerate(tinySpec())
	plan, err := faults.Preset("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 99
	rig, err := NewRigFromOptions(context.Background(), RigOptions{
		World:  w,
		Clock:  sim,
		Faults: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()

	c, err := NewCampaign(rig, Config{
		Suite:       "f01",
		Concurrency: 32,
		BatchSize:   64,
		// Blackholed connections wait out IOTimeout in real time, so keep
		// it small; the politeness waits are virtual and stay paper-sized.
		IOTimeout:     150 * time.Millisecond,
		GreylistWait:  8 * time.Minute,
		ReconnectWait: 90 * time.Second,
		Retry:         retry.Policy{MaxAttempts: 3, BaseDelay: 30 * time.Second, Jitter: 0.2, Seed: 99},
		Breaker:       retry.BreakerConfig{Threshold: 3, Cooldown: 30 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}

	addrs := rig.World.AllAddrs()
	if len(addrs) > 48 {
		addrs = addrs[:48]
	}
	rcpt := map[netip.Addr]string{}
	for _, a := range addrs {
		if ds := rig.World.DomainsOn(a); len(ds) > 0 {
			rcpt[a] = ds[0].Name
		}
	}

	results, err := c.MeasureAddrs(context.Background(), addrs, rcpt)
	if err != nil {
		t.Error(err)
	}
	// Tarpits sleep on each probe's own timeline, never on the shared one.
	if got := sim.Now(); !got.Equal(population.TInitial) {
		t.Errorf("shared sim clock moved to %v during the faulty pass, want %v", got, population.TInitial)
	}

	if len(results) != len(addrs) {
		t.Fatalf("results = %d, want %d (probes lost under faults)", len(results), len(addrs))
	}
	counts := map[core.Status]int{}
	for _, a := range addrs {
		out, ok := results[a]
		if !ok {
			t.Errorf("%s: no outcome recorded", a)
			continue
		}
		counts[out.Status]++
		if out.Status == core.StatusInconclusive && out.FailReason == "" {
			t.Errorf("%s: inconclusive without a failure reason", a)
		}
		if out.Attempts < 1 {
			t.Errorf("%s: Attempts = %d, want ≥1", a, out.Attempts)
		}
	}
	t.Logf("outcomes under faults: %v", counts)

	// The plan must actually have fired, and the retry machinery must have
	// been exercised — otherwise this test proves nothing.
	s := c.metrics().Snapshot()
	var injected int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "faults.injected.") {
			injected += v
		}
	}
	if injected == 0 {
		t.Error("aggressive plan injected no faults")
	}
	if s.Counters["probe.retries"] == 0 {
		t.Error("no probe retries recorded under the aggressive plan")
	}
}

// TestTracedTarpitLandsOnProbeTimeline: under a plan that tarpits every
// SMTP dial, the dial sleeps on the probe's own timeline, so every
// smtp.transaction span lasts at least the tarpit delay.
func TestTracedTarpitLandsOnProbeTimeline(t *testing.T) {
	const delay = 20 * time.Second
	sim := clock.NewSim(population.TInitial)
	plan := faults.Plan{Seed: 5, Rules: []faults.Rule{{Kind: faults.KindSMTPTarpit, Rate: 1, Delay: delay}}}
	var traced bytes.Buffer
	rig, err := NewRigFromOptions(context.Background(), RigOptions{
		World:  population.MustGenerate(tinySpec()),
		Clock:  sim,
		Faults: &plan,
		Trace:  trace.New(&traced, trace.Options{Seed: 5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	c, err := NewCampaign(rig, Config{Suite: "f02", Concurrency: 8, BatchSize: 32, IOTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addrs := rig.World.AllAddrs()
	if len(addrs) > 24 {
		addrs = addrs[:24]
	}
	rcpt := map[netip.Addr]string{}
	for _, a := range addrs {
		if ds := rig.World.DomainsOn(a); len(ds) > 0 {
			rcpt[a] = ds[0].Name
		}
	}
	if _, err := c.MeasureAddrs(context.Background(), addrs, rcpt); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(&traced)
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, r := range recs {
		if r.Name != "smtp.transaction" {
			continue
		}
		spans++
		if d := r.End.Sub(r.Start); d < delay {
			t.Errorf("%s span %d lasted %v, want at least the %v tarpit", r.Trace, r.Span, d, delay)
		}
	}
	if spans == 0 {
		t.Fatal("traced campaign recorded no smtp.transaction spans")
	}
}

// TestStatusOfInconclusive pins the classifier mapping for the retry-
// exhaustion status: it must flow into the longitudinal analysis as an
// inconclusive measurement, exactly like the legacy failure statuses.
func TestStatusOfInconclusive(t *testing.T) {
	out := core.Outcome{Status: core.StatusInconclusive, FailReason: "retry budget exhausted"}
	if got := StatusOf(out); got != IPInconclusive {
		t.Fatalf("StatusOf(StatusInconclusive) = %s, want %s", got, IPInconclusive)
	}
}
