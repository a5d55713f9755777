package population

import (
	"strings"
	"testing"

	"spfail/internal/dnsmsg"
)

func scenarioSpec(refs ...ScenarioPackRef) Spec {
	s := testSpec()
	s.Scenarios = refs
	return s
}

func TestParseScenarioRefs(t *testing.T) {
	refs, err := ParseScenarioRefs("plus-all:0.1, dangling-include:0.05 ,no-dmarc")
	if err != nil {
		t.Fatal(err)
	}
	want := []ScenarioPackRef{
		{Name: "plus-all", Weight: 0.1},
		{Name: "dangling-include", Weight: 0.05},
		{Name: "no-dmarc"},
	}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("ref %d = %+v, want %+v", i, refs[i], want[i])
		}
	}
	if refs, err := ParseScenarioRefs(""); err != nil || refs != nil {
		t.Errorf("empty string: refs=%v err=%v, want nil/nil", refs, err)
	}
	for _, bad := range []string{
		"plus-all:zero",
		"plus-all:0",
		"plus-all:-0.3",
		"plus-all:1.5",
		"plus-all,,no-dmarc",
	} {
		if _, err := ParseScenarioRefs(bad); err == nil {
			t.Errorf("ParseScenarioRefs(%q) = nil error, want error", bad)
		}
	}
}

func TestSpecValidateScenarios(t *testing.T) {
	if err := scenarioSpec(ScenarioPackRef{Name: "plus-all"}).Validate(); err != nil {
		t.Errorf("valid ref rejected: %v", err)
	}
	cases := []struct {
		name string
		spec Spec
		frag string
	}{
		{"unknown pack", scenarioSpec(ScenarioPackRef{Name: "not-a-pack"}), "unknown"},
		{"duplicate pack", scenarioSpec(
			ScenarioPackRef{Name: "plus-all"}, ScenarioPackRef{Name: "plus-all"}), "twice"},
		{"weight too big", scenarioSpec(ScenarioPackRef{Name: "plus-all", Weight: 1.5}), "weight"},
		{"weights sum past 1", scenarioSpec(
			ScenarioPackRef{Name: "plus-all", Weight: 0.6},
			ScenarioPackRef{Name: "no-dmarc", Weight: 0.6}), "exceed"},
		{"empty name", scenarioSpec(ScenarioPackRef{}), "name"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate = nil, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}
	bad := testSpec()
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Error("Scale=0 accepted")
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	if _, err := Generate(scenarioSpec(ScenarioPackRef{Name: "not-a-pack"})); err == nil {
		t.Fatal("Generate accepted an invalid spec")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate accepted an invalid spec")
		}
	}()
	MustGenerate(scenarioSpec(ScenarioPackRef{Name: "not-a-pack"}))
}

// TestScenarioBaseWorldUnchanged: enabling scenarios must leave the base
// world bit-identical — same domains, sets, hosts, and patch plans — with
// only policy fields added on assigned domains.
func TestScenarioBaseWorldUnchanged(t *testing.T) {
	base := MustGenerate(testSpec())
	scen := MustGenerate(scenarioSpec(
		ScenarioPackRef{Name: "plus-all", Weight: 0.2},
		ScenarioPackRef{Name: "alignment-gap", Weight: 0.2},
	))
	if len(base.Domains) != len(scen.Domains) || len(base.Hosts) != len(scen.Hosts) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(base.Domains), len(base.Hosts), len(scen.Domains), len(scen.Hosts))
	}
	for i := range base.Domains {
		a, b := base.Domains[i], scen.Domains[i]
		if a.Name != b.Name || a.Sets != b.Sets || a.Rank != b.Rank || len(a.Hosts) != len(b.Hosts) {
			t.Fatalf("domain %d base fields differ: %+v vs %+v", i, a, b)
		}
	}
	for addr, ha := range base.Hosts {
		hb := scen.Hosts[addr]
		if hb == nil {
			t.Fatalf("host %s missing in scenario world", addr)
		}
		if !ha.PatchAt.Equal(hb.PatchAt) || ha.PatchVia != hb.PatchVia {
			t.Fatalf("host %s patch plan differs", addr)
		}
	}
}

// TestScenarioAssignmentDeterministicAndStable: same seed+mix → identical
// assignments, and adding a pack to the mix never reshuffles which
// domains the existing packs got (cumulative hash-slot walk).
func TestScenarioAssignmentDeterministicAndStable(t *testing.T) {
	mixA := scenarioSpec(ScenarioPackRef{Name: "plus-all", Weight: 0.15})
	w1 := MustGenerate(mixA)
	w2 := MustGenerate(mixA)
	assigned := func(w *World, pack string) map[string]bool {
		m := map[string]bool{}
		for _, d := range w.Domains {
			if d.Scenario == pack {
				m[d.Name] = true
			}
		}
		return m
	}
	a1, a2 := assigned(w1, "plus-all"), assigned(w2, "plus-all")
	if len(a1) == 0 {
		t.Fatal("no domains assigned plus-all at weight 0.15")
	}
	if len(a1) != len(a2) {
		t.Fatalf("same-seed assignment differs: %d vs %d", len(a1), len(a2))
	}
	for name := range a1 {
		if !a2[name] {
			t.Fatalf("%s assigned in run 1 only", name)
		}
	}
	// Growing the mix appends a slot; plus-all's slice of the hash space
	// is untouched.
	w3 := MustGenerate(scenarioSpec(
		ScenarioPackRef{Name: "plus-all", Weight: 0.15},
		ScenarioPackRef{Name: "void-lookup-heavy", Weight: 0.15},
	))
	a3 := assigned(w3, "plus-all")
	if len(a3) != len(a1) {
		t.Fatalf("adding a pack reshuffled plus-all: %d vs %d domains", len(a3), len(a1))
	}
	for name := range a1 {
		if !a3[name] {
			t.Fatalf("%s lost plus-all after mix growth", name)
		}
	}
	if len(assigned(w3, "void-lookup-heavy")) == 0 {
		t.Fatal("second pack got no domains")
	}
}

func TestTopProvidersExemptFromScenarios(t *testing.T) {
	w := MustGenerate(scenarioSpec(ScenarioPackRef{Name: "plus-all", Weight: 1}))
	for _, d := range w.Domains {
		if d.Sets.Has(SetTopProviders) {
			if d.Scenario != "" {
				t.Errorf("top provider %s got scenario %s", d.Name, d.Scenario)
			}
			continue
		}
		if d.Scenario != "plus-all" {
			t.Errorf("%s unassigned at weight 1", d.Name)
		}
	}
}

// TestBuildZonesServesScenarioRecords: pack-published policies are real
// zone data — apex SPF TXT, _dmarc TXT, and extra include-target records
// all resolve through the authoritative ZoneSet.
func TestBuildZonesServesScenarioRecords(t *testing.T) {
	w := MustGenerate(scenarioSpec(
		ScenarioPackRef{Name: "lookup-limit-buster", Weight: 0.5},
		ScenarioPackRef{Name: "alignment-gap", Weight: 0.5},
	))
	z := w.BuildZones()
	txtAt := func(owner string) string {
		rrs, ok := z.Lookup(dnsmsg.MustParseName(owner), dnsmsg.TypeTXT)
		if !ok || len(rrs) == 0 {
			return ""
		}
		return rrs[0].Data.(dnsmsg.TXT).Joined()
	}
	var busters, gaps int
	for _, d := range w.Domains {
		switch d.Scenario {
		case "lookup-limit-buster":
			busters++
			apex := txtAt(d.Name)
			if !strings.HasPrefix(apex, "v=spf1 include:") || strings.Count(apex, "include:") != 11 {
				t.Fatalf("%s apex = %q, want 11 includes", d.Name, apex)
			}
			// The long policy crosses the 255-byte TXT chunk limit and
			// must round-trip through SplitTXT/Joined.
			if len(apex) <= 255 {
				t.Fatalf("%s: policy %d bytes, expected >255", d.Name, len(apex))
			}
			for _, sub := range []string{"spf-c0", "spf-c10"} {
				if got := txtAt(sub + "." + d.Name); got != "v=spf1 -all" {
					t.Fatalf("%s.%s = %q, want include target record", sub, d.Name, got)
				}
			}
		case "alignment-gap":
			gaps++
			if got := txtAt("_dmarc." + d.Name); !strings.Contains(got, "p=reject") {
				t.Fatalf("_dmarc.%s = %q, want p=reject", d.Name, got)
			}
			if got := txtAt("outbound." + d.Name); got != "v=spf1 +all" {
				t.Fatalf("outbound.%s = %q", d.Name, got)
			}
		}
		if busters > 3 && gaps > 3 {
			return
		}
	}
	if busters == 0 || gaps == 0 {
		t.Fatalf("assignment empty: busters=%d gaps=%d", busters, gaps)
	}
}

// packProblem says what is wrong with pack p as the table entry after a
// pack named prev, or returns "" when nothing is.
func packProblem(p ScenarioPack, prev string) string {
	switch {
	case p.Name == "":
		return "empty name"
	case prev != "" && p.Name <= prev:
		return "name duplicate or out of order"
	case len(p.Mutators) == 0:
		return "no mutators"
	case p.Description == "":
		return "no description"
	case p.Weight <= 0:
		return "no weight"
	}
	return ""
}

// TestRegisterPackRejectsBadPacks checks that the table check used by
// TestPackRegistryInventory refuses every pack the old RegisterPack
// panicked on (empty name, no mutators, duplicate) and the entries a
// sorted table must also refuse, and passes a well-formed pack.
func TestRegisterPackRejectsBadPacks(t *testing.T) {
	good := PlusAll()
	if why := packProblem(good, ""); why != "" {
		t.Fatalf("good pack rejected: %s", why)
	}
	bad := func(edit func(*ScenarioPack)) ScenarioPack {
		p := good
		edit(&p)
		return p
	}
	for _, tc := range []struct {
		name string
		p    ScenarioPack
		prev string
	}{
		{"empty name", bad(func(p *ScenarioPack) { p.Name = "" }), ""},
		{"no mutators", bad(func(p *ScenarioPack) { p.Mutators = nil }), ""},
		{"duplicate", good, good.Name},
		{"out of order", good, "void-lookup-heavy"},
		{"no description", bad(func(p *ScenarioPack) { p.Description = "" }), ""},
		{"no weight", bad(func(p *ScenarioPack) { p.Weight = 0 }), ""},
	} {
		if packProblem(tc.p, tc.prev) == "" {
			t.Errorf("%s: pack accepted", tc.name)
		}
	}
}

// TestPackRegistryInventory checks the built-in table: nine packs sorted
// by unique, non-empty name, each with mutators, a description and a
// weight, and each found by PackByName.
func TestPackRegistryInventory(t *testing.T) {
	want := []string{
		"alignment-gap", "alignment-strict", "dangling-include", "dmarc-none-relaxed",
		"lookup-limit-buster", "nested-include", "no-dmarc", "plus-all", "void-lookup-heavy",
	}
	names := PackNames()
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("PackNames() = %v, want %v", names, want)
	}
	prev := ""
	for _, p := range builtinPacks {
		if why := packProblem(p, prev); why != "" {
			t.Errorf("pack %q: %s: %+v", p.Name, why, p)
		}
		prev = p.Name
		if got, ok := PackByName(p.Name); !ok || got.Name != p.Name {
			t.Errorf("PackByName(%q) = %q, %v", p.Name, got.Name, ok)
		}
	}
	if _, ok := PackByName("not-a-pack"); ok {
		t.Error("PackByName found an unknown pack")
	}
}
