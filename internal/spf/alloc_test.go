//go:build !race

package spf

import (
	"context"
	"net/netip"
	"testing"
)

// Expanding the probe policy's macro allocates only the result string: the
// output buffer and the transformer's label scratch live on Expand's stack.
// The race detector instruments allocations, so this assertion is compiled
// out under -race.
func TestExpandProbeMacroAllocatesOnlyResult(t *testing.T) {
	const domain = "x7k2.s01.spf-test.dns-lab.org"
	env := &MacroEnv{
		Sender: "mmj7yzdm0tbk@" + domain,
		Domain: domain,
		IP:     netip.MustParseAddr("192.0.2.200"),
		HELO:   "probe.example",
	}
	ctx := context.Background()
	spec := "%{d1r}." + domain
	allocs := testing.AllocsPerRun(200, func() {
		got, err := (Expander{}).Expand(ctx, spec, env, false)
		if err != nil || got != "x7k2."+domain {
			t.Fatalf("Expand(%q) = %q, %v", spec, got, err)
		}
	})
	if allocs != 1 {
		t.Errorf("Expand(%q) allocates %.1f objects/op, want 1 (the result string)", spec, allocs)
	}
}
