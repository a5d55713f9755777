package study_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"spfail/internal/measure"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/study"
	"spfail/internal/trace"
)

// scenarioMix is the ≥6-pack mix the scenario regressions run under.
func scenarioMix() []population.ScenarioPackRef {
	return []population.ScenarioPackRef{
		{Name: "plus-all", Weight: 0.08},
		{Name: "dangling-include", Weight: 0.08},
		{Name: "nested-include", Weight: 0.08},
		{Name: "lookup-limit-buster", Weight: 0.08},
		{Name: "void-lookup-heavy", Weight: 0.08},
		{Name: "dmarc-none-relaxed", Weight: 0.08},
		{Name: "alignment-gap", Weight: 0.08},
	}
}

// TestScenarioSameSeedProducesIdenticalReports extends the determinism
// regression to scenario-enabled runs: the spoof survey's fanned-out DNS
// walk, merged in domain order, the scenario prevalence table, and the
// per-domain scenario trace attributes must all replay byte-identically
// for the same seed.
func TestScenarioSameSeedProducesIdenticalReports(t *testing.T) {
	render := func() ([]byte, []byte, *study.Results) {
		t.Helper()
		spec := population.DefaultSpec()
		spec.Scale = 0.003
		spec.Seed = 7
		spec.Scenarios = scenarioMix()
		var traceBuf bytes.Buffer
		res, err := study.Run(context.Background(), study.Config{
			Config: measure.Config{
				Concurrency: 64,
				BatchSize:   400,
				Trace:       trace.New(&traceBuf, trace.Options{Seed: spec.Seed}),
			},
			Spec:     spec,
			Interval: 4 * 24 * time.Hour,
		})
		if err != nil {
			t.Fatalf("study run: %v", err)
		}
		var buf bytes.Buffer
		report.All(&buf, res)
		return buf.Bytes(), traceBuf.Bytes(), res
	}

	first, firstTrace, res := render()
	second, secondTrace, _ := render()
	if !bytes.Equal(first, second) {
		t.Errorf("same-seed scenario runs rendered different reports:\n--- first ---\n%s\n--- second ---\n%s",
			firstDiffContext(first, second), firstDiffContext(second, first))
	}
	if !bytes.Equal(firstTrace, secondTrace) {
		t.Errorf("same-seed scenario runs emitted different trace JSONL:\n%s",
			firstDiffContext(firstTrace, secondTrace))
	}

	// The scenario survey actually ran and its table is in the report.
	if len(res.Spoof) != len(res.World.Domains) {
		t.Fatalf("spoof verdicts = %d, want %d", len(res.Spoof), len(res.World.Domains))
	}
	if !bytes.Contains(first, []byte("Scenario prevalence")) {
		t.Error("report missing scenario prevalence table")
	}
	covered := map[string]bool{}
	for _, st := range res.ScenarioStats {
		covered[st.Scenario] = true
	}
	for _, ref := range scenarioMix() {
		if !covered[ref.Name] {
			t.Errorf("pack %s got no domains in the study world", ref.Name)
		}
	}
	if !covered["baseline"] {
		t.Error("no baseline domains left at this mix")
	}

	// Trace stream carries the new spans and attributes.
	for _, want := range []string{`"spoof.verdict"`, `"dmarc.evaluate"`, `"scenario"`} {
		if !strings.Contains(string(firstTrace), want) {
			t.Errorf("trace JSONL missing %s", want)
		}
	}

	// The scenario-off world must be byte-identical to the base: the
	// plain-run regression in determinism_test.go pins that; here we pin
	// that the scenario run keeps the same domain population.
	base := population.MustGenerate(func() population.Spec {
		s := population.DefaultSpec()
		s.Scale = 0.003
		s.Seed = 7
		return s
	}())
	if len(base.Domains) != len(res.World.Domains) {
		t.Fatalf("scenario world has %d domains, base %d", len(res.World.Domains), len(base.Domains))
	}
	for i := range base.Domains {
		if base.Domains[i].Name != res.World.Domains[i].Name {
			t.Fatalf("domain %d: %s vs %s", i, base.Domains[i].Name, res.World.Domains[i].Name)
		}
	}
}
