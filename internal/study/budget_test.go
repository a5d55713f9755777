package study_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"spfail/internal/measure"
	"spfail/internal/obs"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/study"
	"spfail/internal/trace"
)

func budgetRun(t *testing.T, hardRSS int64) (*study.Results, []byte, []byte) {
	t.Helper()
	spec := population.DefaultSpec()
	spec.Scale = 0.003
	spec.Seed = 11
	var traceBuf bytes.Buffer
	res, err := study.Run(context.Background(), study.Config{
		Config: measure.Config{
			Concurrency: 32,
			BatchSize:   200,
			Trace:       trace.New(&traceBuf, trace.Options{Seed: spec.Seed}),
		},
		Spec:     spec,
		Interval: 4 * 24 * time.Hour,
		HardRSS:  hardRSS,
	})
	if err != nil {
		t.Fatalf("study run: %v", err)
	}
	var rep bytes.Buffer
	report.All(&rep, res)
	return res, rep.Bytes(), traceBuf.Bytes()
}

// TestSoftMemoryLimitDeterminism runs a study under a runtime memory
// limit no higher than its live heap, so the GC runs about thirty times
// as often, with a hard limit armed that it never reaches. Its report
// and trace must be byte-identical to the same-seed unbudgeted run's,
// and the collector must report the limit in force.
func TestSoftMemoryLimitDeterminism(t *testing.T) {
	refRes, refReport, refTrace := budgetRun(t, 0)

	const tight = 8 << 20
	prev := debug.SetMemoryLimit(tight)
	defer debug.SetMemoryLimit(prev)
	gotRes, gotReport, gotTrace := budgetRun(t, 1<<50)

	if !bytes.Equal(refReport, gotReport) {
		t.Error("report bytes differ between budgeted and unbudgeted runs")
	}
	if !bytes.Equal(refTrace, gotTrace) {
		t.Error("trace bytes differ between budgeted and unbudgeted runs")
	}
	if got := gotRes.Metrics.Gauge("runtime.mem.limit_bytes").Value(); got != tight {
		t.Errorf("budgeted runtime.mem.limit_bytes = %d, want %d", got, tight)
	}
	if got := refRes.Metrics.Gauge("runtime.mem.limit_bytes").Value(); got != prev {
		t.Errorf("unbudgeted runtime.mem.limit_bytes = %d, want %d", got, prev)
	}
	if got := gotRes.Metrics.Counter("budget.hard_breaches").Value(); got != 0 {
		t.Errorf("budget.hard_breaches = %d under an unreachable hard limit", got)
	}
}

// TestBudgetHardBreachFailsRun checks that a hard breach stops the run
// with a structured error instead of an OOM kill.
func TestBudgetHardBreachFailsRun(t *testing.T) {
	spec := population.DefaultSpec()
	spec.Scale = 0.003
	spec.Seed = 11
	res, err := study.Run(context.Background(), study.Config{
		Config:   measure.Config{Concurrency: 32, BatchSize: 200},
		Spec:     spec,
		Interval: 4 * 24 * time.Hour,
		HardRSS:  1, // any live process exceeds this
	})
	if !errors.Is(err, obs.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want wrap of obs.ErrBudgetExceeded", err)
	}
	var be *obs.BudgetError
	if !errors.As(err, &be) || be.Limit != 1 {
		t.Errorf("err = %#v, want *obs.BudgetError with Limit 1", err)
	}
	if got := res.Metrics.Counter("budget.hard_breaches").Value(); got != 1 {
		t.Errorf("budget.hard_breaches = %d, want 1", got)
	}
}

// TestStageResourceTable checks the per-stage accounting surface: every
// executed stage contributes a row with non-zero deltas, and the
// renderer emits them.
func TestStageResourceTable(t *testing.T) {
	res, _, _ := budgetRun(t, 0)
	if len(res.Resources) == 0 {
		t.Fatal("no stage resource rows recorded")
	}
	stages := map[string]bool{}
	for _, sr := range res.Resources {
		stages[sr.Stage] = true
		if sr.Replayed {
			t.Errorf("stage %s marked replayed in a live run", sr.Stage)
		}
		if sr.AllocBytes == 0 || sr.AllocObjects == 0 {
			t.Errorf("stage %s: zero alloc delta (%d bytes / %d objects)",
				sr.Stage, sr.AllocBytes, sr.AllocObjects)
		}
		if sr.Wall <= 0 {
			t.Errorf("stage %s: wall duration %v, want > 0", sr.Stage, sr.Wall)
		}
		if sr.PeakRSS <= 0 {
			t.Errorf("stage %s: peak RSS %d, want > 0", sr.Stage, sr.PeakRSS)
		}
	}
	for _, want := range []string{"resolve", "initial", "round-000", "snapshot"} {
		if !stages[want] {
			t.Errorf("no resource row for stage %q (have %v)", want, stages)
		}
	}
	if len(res.CampaignResources.Shards) == 0 {
		t.Error("campaign shard stats empty")
	}

	var buf bytes.Buffer
	report.ResourceTable(&buf, res)
	out := buf.String()
	for _, want := range []string{"Resource usage by stage", "resolve", "snapshot", "total", "Probe work by shard"} {
		if !strings.Contains(out, want) {
			t.Errorf("ResourceTable output missing %q", want)
		}
	}
}

// TestBudgetResumeAcrossBudgetChange checks that HardRSS stays outside
// the checkpoint fingerprint: a store written under a hard limit resumes
// cleanly in an unlimited run, and replayed stages surface their
// originally-recorded resource rows flagged as replayed.
func TestBudgetResumeAcrossBudgetChange(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	spec := population.DefaultSpec()
	spec.Scale = 0.003
	spec.Seed = 11
	cfg := study.Config{
		Config:        measure.Config{Concurrency: 32, BatchSize: 200},
		Spec:          spec,
		Interval:      4 * 24 * time.Hour,
		CheckpointDir: ckpt,
		HardRSS:       1 << 50,
		Kill: func(point string) bool {
			return point == "commit:initial"
		},
	}
	if _, err := study.Run(context.Background(), cfg); !errors.Is(err, study.ErrKilled) {
		t.Fatalf("first run err = %v, want ErrKilled", err)
	}

	cfg.HardRSS = 0
	cfg.Kill = nil
	cfg.Resume = true
	res, err := study.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	replayed := 0
	for _, sr := range res.Resources {
		if sr.Replayed {
			replayed++
			if sr.AllocBytes == 0 {
				t.Errorf("replayed stage %s lost its recorded alloc delta", sr.Stage)
			}
		}
	}
	if replayed == 0 {
		t.Error("resume surfaced no replayed resource rows")
	}
}
