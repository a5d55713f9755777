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

// TestBatchGeometryDeterminism pins that batch size and concurrency are
// wall-time concerns only. Probe pacing runs on per-probe frame clocks
// anchored at the pass's asOf, so repartitioning the address list must
// not move a single byte of the report or the trace JSONL. The faulty
// case adds the repository benchmark's fault plan: its tarpits sleep on
// the tarpitted probe's own timeline, so they must not either.
func TestBatchGeometryDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name      string
		configure func(*study.Config)
	}{
		{"plain", func(*study.Config) {}},
		{"faulty", func(cfg *study.Config) {
			cfg.IOTimeout = 2 * time.Second
			cfg.Retry = retry.Policy{MaxAttempts: 3, BaseDelay: 30 * time.Second, Jitter: 0.2}
			cfg.Breaker = retry.BreakerConfig{Threshold: 4}
			cfg.DNSRetry = retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Second, Jitter: 0.2}
			cfg.Faults = &faults.Plan{Rules: []faults.Rule{
				{Kind: faults.KindDNSServfail, Burst: 2},
				{Kind: faults.KindDNSTruncate, Rate: 0.2},
				{Kind: faults.KindConnRefuse, Rate: 0.15},
				{Kind: faults.KindConnReset, Rate: 0.1, ResetAfter: 64},
				{Kind: faults.KindSMTPTarpit, Rate: 0.25, Delay: 20 * time.Second},
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(batch, concurrency int) ([]byte, []byte) {
				t.Helper()
				spec := population.DefaultSpec()
				spec.Scale = 0.003
				spec.Seed = 7
				var traceBuf bytes.Buffer
				cfg := study.Config{
					Config: measure.Config{
						Concurrency: concurrency,
						BatchSize:   batch,
						Trace:       trace.New(&traceBuf, trace.Options{Seed: spec.Seed}),
					},
					Spec:     spec,
					Interval: 4 * 24 * time.Hour,
				}
				tc.configure(&cfg)
				res, err := study.Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("study run (batch=%d conc=%d): %v", batch, concurrency, err)
				}
				var buf bytes.Buffer
				report.All(&buf, res)
				return buf.Bytes(), traceBuf.Bytes()
			}
			refReport, refTrace := render(400, 64)
			for _, alt := range []struct {
				name               string
				batch, concurrency int
			}{
				{"quartered-batch", 100, 64},
				{"degraded-batch-low-concurrency", 25, 8},
			} {
				gotReport, gotTrace := render(alt.batch, alt.concurrency)
				if !bytes.Equal(refReport, gotReport) {
					t.Errorf("%s: report bytes differ from batch=400 run", alt.name)
				}
				if !bytes.Equal(refTrace, gotTrace) {
					t.Errorf("%s: trace bytes differ from batch=400 run", alt.name)
				}
			}
		})
	}
}
