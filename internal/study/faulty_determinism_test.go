package study_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"spfail/internal/faults"
	"spfail/internal/measure"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/retry"
	"spfail/internal/study"
	"spfail/internal/trace"
)

// TestFaultySameSeedProducesIdenticalReports extends the determinism
// regression to the fault-injection path: two same-seed runs under a
// non-trivial fault plan — SERVFAIL bursts, DNS truncation, refused and
// reset connections, SMTP tarpits — with retries and a circuit breaker
// enabled must still render byte-identical reports. Any diff means a fault
// decision, backoff schedule, or breaker transition depends on scheduler
// interleaving or the wall clock.
//
// The plan deliberately omits drop-udp and smtp-blackhole: those wait out
// I/O timeouts in real time (see netsim deadline translation), which at
// study scale would cost minutes of wall clock for no extra coverage —
// TestFaultyCampaignNoLostProbes exercises them at campaign scale.
func TestFaultySameSeedProducesIdenticalReports(t *testing.T) {
	plan := faults.Plan{
		Seed: 13,
		Rules: []faults.Rule{
			{Kind: faults.KindDNSServfail, Burst: 2},
			{Kind: faults.KindDNSTruncate, Rate: 0.2},
			{Kind: faults.KindConnRefuse, Rate: 0.15},
			{Kind: faults.KindConnReset, Rate: 0.1, ResetAfter: 64},
			{Kind: faults.KindSMTPTarpit, Rate: 0.25, Delay: 20 * time.Second},
		},
	}
	render := func() ([]byte, []byte) {
		t.Helper()
		spec := population.DefaultSpec()
		spec.Scale = 0.002
		spec.Seed = 9
		// The scenario mix rides along: with faults injected the spoof
		// survey walks the DNS on one worker, in domain order, and must
		// replay exactly.
		spec.Scenarios = scenarioMix()
		var traceBuf bytes.Buffer
		res, err := study.Run(context.Background(), study.Config{
			Config: measure.Config{
				Concurrency: 64,
				BatchSize:   400,
				IOTimeout:   2 * time.Second,
				Retry:       retry.Policy{MaxAttempts: 3, BaseDelay: 30 * time.Second, Jitter: 0.2},
				Breaker:     retry.BreakerConfig{Threshold: 4},
				Trace:       trace.New(&traceBuf, trace.Options{Seed: spec.Seed}),
			},
			Spec:     spec,
			Interval: 4 * 24 * time.Hour,
			DNSRetry: retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Second, Jitter: 0.2},
			Faults:   &plan,
		})
		if err != nil {
			t.Fatalf("faulty study run: %v", err)
		}
		var buf bytes.Buffer
		report.All(&buf, res)
		return buf.Bytes(), traceBuf.Bytes()
	}

	first, firstTrace := render()
	second, secondTrace := render()
	if !bytes.Contains(firstTrace, []byte(`"fault.injected"`)) {
		t.Error("faulty traced study recorded no fault.injected events")
	}
	if !bytes.Contains(firstTrace, []byte(`"retry.wait"`)) {
		t.Error("faulty traced study recorded no retry.wait events")
	}
	if !bytes.Equal(firstTrace, secondTrace) {
		t.Errorf("same-seed faulty runs emitted different trace JSONL:\n--- first ---\n%s\n--- second ---\n%s",
			firstDiffContext(firstTrace, secondTrace), firstDiffContext(secondTrace, firstTrace))
	}
	if !bytes.Equal(first, second) {
		t.Errorf("same-seed faulty runs rendered different reports:\n--- first ---\n%s\n--- second ---\n%s",
			firstDiffContext(first, second), firstDiffContext(second, first))
	}
}
