package population

import (
	"fmt"
	"net/netip"
	"strings"
)

// A ScenarioPack is a declarative, seed-deterministic misconfiguration
// class: a named bundle of mutators that rewrites a domain's SPF record
// set, DMARC record and DNS zone content after base generation. Packs are
// pure data in, deterministic world mutation out — applying the same pack
// mix to the same seed yields byte-identical worlds, which is what the
// study's same-seed determinism regressions assert end to end.
type ScenarioPack struct {
	// Name identifies the pack in Spec.Scenarios refs, report rows, and
	// trace attributes. Lowercase kebab-case by convention.
	Name string
	// Weight is the default fraction of eligible domains that receive
	// this pack when a ScenarioPackRef does not override it.
	Weight float64
	// Description is a one-line summary for docs and inventories.
	Description string
	// Mutators run in order against each assigned domain.
	Mutators []Mutator
	// SpoofMailFromLabel, when non-empty, names the subdomain label a
	// spoofing-verdict survey should use as the RFC5321.MailFrom domain
	// (<label>.<domain>) instead of the domain apex — the attacker's
	// best move against alignment-gap style configurations.
	SpoofMailFromLabel string
}

// A Mutator applies one deterministic rewrite to a domain: its output is a
// function of the domain alone.
type Mutator func(*Mutation)

// Mutation is the context handed to a pack's mutators for one domain.
// All helpers write only that Domain's policy fields and extra zone
// records, so mutation order across domains never matters.
type Mutation struct {
	// Domain is the domain being rewritten.
	Domain *Domain
}

// SetSPF replaces the SPF policy TXT records published at the apex.
func (m *Mutation) SetSPF(policies ...string) {
	m.Domain.SPF = append([]string(nil), policies...)
}

// SetDMARC sets the record published at _dmarc.<domain>.
func (m *Mutation) SetDMARC(record string) { m.Domain.DMARC = record }

// Sub returns label.<domain>.
func (m *Mutation) Sub(label string) string { return label + "." + m.Domain.Name }

// AddTXT publishes an extra TXT record in the domain's zone.
func (m *Mutation) AddTXT(owner, text string) {
	m.Domain.Extra = append(m.Domain.Extra, ZoneRecord{Owner: owner, TXT: text})
}

// AddA publishes an extra address record in the domain's zone.
func (m *Mutation) AddA(owner string, addr netip.Addr) {
	m.Domain.Extra = append(m.Domain.Extra, ZoneRecord{Owner: owner, Addr: addr})
}

// HostMechanisms renders ip4:/ip6: terms authorizing the domain's real
// mail hosts, so a "legitimate" policy passes for traffic from them.
func (m *Mutation) HostMechanisms() string {
	var b strings.Builder
	for i, a := range m.Domain.Hosts {
		if i > 0 {
			b.WriteByte(' ')
		}
		if a.Is4() {
			b.WriteString("ip4:")
		} else {
			b.WriteString("ip6:")
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// ScenarioPackRef selects a built-in pack for a world mix.
type ScenarioPackRef struct {
	// Name of a built-in pack (see PackNames).
	Name string
	// Weight overrides the pack's default weight when > 0.
	Weight float64
}

// refWeight resolves the effective weight of a ref.
func (r ScenarioPackRef) refWeight(p ScenarioPack) float64 {
	if r.Weight > 0 {
		return r.Weight
	}
	return p.Weight
}

// ParseScenarioRefs parses a cmd-line scenario mix of the form
// "pack1:0.1,pack2:0.05,pack3" (weight omitted = pack default).
func ParseScenarioRefs(s string) ([]ScenarioPackRef, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var refs []ScenarioPackRef
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("population: empty scenario ref in %q", s)
		}
		ref := ScenarioPackRef{Name: part}
		if name, w, ok := strings.Cut(part, ":"); ok {
			var weight float64
			if _, err := fmt.Sscanf(w, "%g", &weight); err != nil {
				return nil, fmt.Errorf("population: scenario ref %q: bad weight %q", part, w)
			}
			if weight <= 0 || weight > 1 {
				return nil, fmt.Errorf("population: scenario ref %q: weight must be in (0,1]", part)
			}
			ref = ScenarioPackRef{Name: name, Weight: weight}
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// ---- built-in table ----

// builtinPacks is the fixed taxonomy, sorted by name. Spec.Validate
// accepts exactly these names.
var builtinPacks = []ScenarioPack{
	AlignmentGap(),
	AlignmentStrict(),
	DanglingInclude(),
	DMARCNoneRelaxed(),
	LookupLimitBuster(),
	NestedIncludeChain(4),
	NoDMARC(),
	PlusAll(),
	VoidLookupHeavy(),
}

// PackByName looks up a built-in pack.
func PackByName(name string) (ScenarioPack, bool) {
	for _, p := range builtinPacks {
		if p.Name == name {
			return p, true
		}
	}
	return ScenarioPack{}, false
}

// PackNames returns the built-in pack names, sorted.
func PackNames() []string {
	out := make([]string, len(builtinPacks))
	for i, p := range builtinPacks {
		out[i] = p.Name
	}
	return out
}

// ---- deterministic assignment ----

// scenarioHash mixes the world seed and a string with FNV-1a. Assignment
// hashes by domain name rather than consuming the generator's rng stream,
// so enabling scenarios leaves the base world bit-identical and adding a
// pack to the mix never reshuffles which domains the other packs got.
func scenarioHash(seed int64, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// scenarioFloat maps a hash to [0,1).
func scenarioFloat(seed int64, s string) float64 {
	return float64(scenarioHash(seed, s)>>11) / (1 << 53)
}

// applyScenarios assigns packs to eligible domains and runs their
// mutators. Top-provider domains (gmail.com etc.) are exempt: the paper's
// notable providers keep their real-world posture.
func (g *generator) applyScenarios() {
	refs := g.spec.Scenarios
	if len(refs) == 0 {
		return
	}
	type slot struct {
		pack ScenarioPack
		cum  float64
	}
	slots := make([]slot, 0, len(refs))
	acc := 0.0
	for _, ref := range refs {
		p, ok := PackByName(ref.Name)
		if !ok {
			// Validate rejects unknown names; Generate panics there first.
			panic("population: unknown scenario pack " + ref.Name)
		}
		acc += ref.refWeight(p)
		slots = append(slots, slot{pack: p, cum: acc})
	}
	for _, d := range g.w.Domains {
		if d.Sets.Has(SetTopProviders) {
			continue
		}
		r := scenarioFloat(g.spec.Seed, d.Name)
		for _, s := range slots {
			if r < s.cum {
				g.applyPack(s.pack, d)
				break
			}
		}
	}
}

func (g *generator) applyPack(p ScenarioPack, d *Domain) {
	d.Scenario = p.Name
	m := &Mutation{Domain: d}
	for _, mut := range p.Mutators {
		mut(m)
	}
}

// ---- built-in packs ----

// The built-in taxonomy follows the misconfiguration classes catalogued
// by the Lazy Gatekeepers and Weak Links lines of work: policies that
// authorize everyone, broken include graphs that evaluate to permerror
// through the RFC 7208 §4.6.4 processing limits, and DMARC postures that
// leave an SPF-passing spoof deliverable. Every effect is realized
// through real DNS zone data served by the sim — the SPF evaluator's
// lookup and void budgets are genuinely consumed over the wire.

// PlusAll publishes "v=spf1 +all": any source address passes.
func PlusAll() ScenarioPack {
	return ScenarioPack{
		Name:        "plus-all",
		Weight:      0.05,
		Description: "apex policy authorizes the entire Internet (+all)",
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF("v=spf1 +all")
		}},
	}
}

// DanglingInclude publishes an include of a name with no SPF record;
// RFC 7208 §5.2 makes an include whose target evaluates to none a
// permerror, so the domain's mail is unverifiable.
func DanglingInclude() ScenarioPack {
	return ScenarioPack{
		Name:        "dangling-include",
		Weight:      0.05,
		Description: "include: points at a name with no SPF record (permerror)",
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF("v=spf1 include:" + m.Sub("spf-ghost") + " -all")
		}},
	}
}

// NestedIncludeChain publishes a working include chain of the given
// depth ending in a policy that authorizes the real mail hosts. The
// chain resolves — legitimate mail passes — but each hop consumes one
// of the 10-lookup budget.
func NestedIncludeChain(depth int) ScenarioPack {
	if depth < 1 {
		depth = 1
	}
	if depth > 9 {
		depth = 9
	}
	return ScenarioPack{
		Name:        "nested-include",
		Weight:      0.05,
		Description: fmt.Sprintf("%d-level include chain that still resolves", depth),
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF("v=spf1 include:" + m.Sub("spf-l0") + " -all")
			for i := 0; i < depth-1; i++ {
				m.AddTXT(m.Sub(fmt.Sprintf("spf-l%d", i)),
					"v=spf1 include:"+m.Sub(fmt.Sprintf("spf-l%d", i+1))+" -all")
			}
			m.AddTXT(m.Sub(fmt.Sprintf("spf-l%d", depth-1)),
				strings.TrimSpace("v=spf1 "+m.HostMechanisms()+" -all"))
		}},
	}
}

// LookupLimitBuster publishes 11 resolvable includes; the evaluator's
// 10-lookup budget (RFC 7208 §4.6.4) trips on the 11th mechanism and
// every evaluation is a permerror, even though each include target has
// a perfectly valid record.
func LookupLimitBuster() ScenarioPack {
	return ScenarioPack{
		Name:        "lookup-limit-buster",
		Weight:      0.05,
		Description: "11 resolvable includes overrun the 10-lookup budget (permerror)",
		Mutators: []Mutator{func(m *Mutation) {
			terms := make([]string, 0, 12)
			terms = append(terms, "v=spf1")
			for i := 0; i < 11; i++ {
				sub := m.Sub(fmt.Sprintf("spf-c%d", i))
				terms = append(terms, "include:"+sub)
				m.AddTXT(sub, "v=spf1 -all")
			}
			terms = append(terms, "-all")
			m.SetSPF(strings.Join(terms, " "))
		}},
	}
}

// VoidLookupHeavy publishes a policy whose first three mechanisms point
// at names that do not exist; the two-void-lookup budget (RFC 7208
// §4.6.4) trips on the third and the policy is a permerror.
func VoidLookupHeavy() ScenarioPack {
	return ScenarioPack{
		Name:        "void-lookup-heavy",
		Weight:      0.05,
		Description: "three nonexistent a: targets overrun the void-lookup budget (permerror)",
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF("v=spf1 a:" + m.Sub("void-a") + " a:" + m.Sub("void-b") +
				" a:" + m.Sub("void-c") + " ~all")
		}},
	}
}

// NoDMARC publishes a strict, correct SPF policy but no DMARC record:
// SPF rejects spoofed MAIL FROM, but nothing binds the RFC5322.From
// header, and receivers get no disposition advice.
func NoDMARC() ScenarioPack {
	return ScenarioPack{
		Name:        "no-dmarc",
		Weight:      0.05,
		Description: "strict SPF, no DMARC record published",
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF(strings.TrimSpace("v=spf1 " + m.HostMechanisms() + " -all"))
		}},
	}
}

// DMARCNoneRelaxed publishes strict SPF plus a monitoring-only DMARC
// record (p=none): failures are reported, never acted on.
func DMARCNoneRelaxed() ScenarioPack {
	return ScenarioPack{
		Name:        "dmarc-none-relaxed",
		Weight:      0.05,
		Description: "strict SPF with p=none DMARC (monitoring only)",
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF(strings.TrimSpace("v=spf1 " + m.HostMechanisms() + " -all"))
			m.SetDMARC("v=DMARC1; p=none; aspf=r; sp=none")
		}},
	}
}

// AlignmentGap publishes a strict apex policy and p=reject DMARC with
// relaxed SPF alignment — but an "outbound" subdomain publishes +all.
// An attacker using MAIL FROM outbound.<domain> gets an SPF pass that
// relaxed alignment accepts for the apex From header, so DMARC passes
// and the spoof is deliverable despite p=reject.
func AlignmentGap() ScenarioPack {
	return ScenarioPack{
		Name:               "alignment-gap",
		Weight:             0.05,
		Description:        "p=reject with relaxed alignment defeated by a +all subdomain",
		SpoofMailFromLabel: "outbound",
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF(strings.TrimSpace("v=spf1 " + m.HostMechanisms() + " -all"))
			m.SetDMARC("v=DMARC1; p=reject; aspf=r")
			m.AddTXT(m.Sub("outbound"), "v=spf1 +all")
		}},
	}
}

// AlignmentStrict is the hardened twin of AlignmentGap: the same +all
// subdomain exists, but aspf=s means the subdomain pass does not align
// with the apex From header and the spoof is rejected.
func AlignmentStrict() ScenarioPack {
	return ScenarioPack{
		Name:               "alignment-strict",
		Weight:             0.05,
		Description:        "p=reject with strict alignment: subdomain pass does not align",
		SpoofMailFromLabel: "outbound",
		Mutators: []Mutator{func(m *Mutation) {
			m.SetSPF(strings.TrimSpace("v=spf1 " + m.HostMechanisms() + " -all"))
			m.SetDMARC("v=DMARC1; p=reject; aspf=s; sp=reject")
			m.AddTXT(m.Sub("outbound"), "v=spf1 +all")
		}},
	}
}
