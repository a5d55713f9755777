//go:build !race

package dnsserver_test

import (
	"testing"

	"spfail/internal/dnsserver"
	"spfail/internal/population"
)

// TestWireAnswersMatchReferenceOnSpoofWorld checks the server's answers
// against the reference zone on the world of the repository benchmark's
// spoof workload at seed 1 (scale 0.05, every scenario pack at 8%): every
// query type and qtype ANY for every owner, over UDP and TCP, under four
// spellings (its own, two mixed-case ones and an NXDOMAIN child), 2,913,696
// queries. Skipped under -race, where it takes minutes; the smaller
// reference tests run there.
func TestWireAnswersMatchReferenceOnSpoofWorld(t *testing.T) {
	spec := population.DefaultSpec()
	spec.Seed, spec.Scale = 1, 0.05
	for _, pack := range population.PackNames() {
		spec.Scenarios = append(spec.Scenarios, population.ScenarioPackRef{Name: pack, Weight: 0.08})
	}
	w, err := population.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d queries, each over UDP and TCP", dnsserver.CheckEveryOwner(t, w.BuildZones()))
}
