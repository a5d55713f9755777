// Package core implements SPFail's primary contribution: benign remote
// detection of the libSPF2 vulnerabilities. A Prober drives the NoMsg →
// BlankMsg SMTP probe ladder against a target mail server; a Collector
// gathers the DNS queries the target makes against the measurement zone;
// and the classifier maps each observed macro expansion onto the behaviour
// taxonomy of paper §4.2 / §7.9 — compliant, the unique vulnerable-libSPF2
// fingerprint, or one of the non-compliant variants.
package core

import (
	"context"
	"sort"
	"strings"

	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/spf"
	"spfail/internal/spfimpl"
)

// BehaviorClass is the detector's verdict about one observed expansion
// pattern.
type BehaviorClass string

// The fingerprint taxonomy (Table 7).
const (
	// ClassCompliant is the RFC 7208 expansion.
	ClassCompliant BehaviorClass = "compliant"
	// ClassVulnerable is the unique expansion of unpatched libSPF2.
	ClassVulnerable BehaviorClass = "vulnerable-libspf2"
	// ClassNoReverse truncated but did not reverse.
	ClassNoReverse BehaviorClass = "no-reverse"
	// ClassNoTruncate reversed but did not truncate.
	ClassNoTruncate BehaviorClass = "no-truncate"
	// ClassRawValue substituted the raw domain, no transformers.
	ClassRawValue BehaviorClass = "raw-value"
	// ClassNoExpansion sent the macro text literally.
	ClassNoExpansion BehaviorClass = "no-expansion"
	// ClassMacroSkipped only resolved the macro-free liveness term.
	ClassMacroSkipped BehaviorClass = "macro-skipped"
	// ClassOther is an expansion matching no modeled behavior.
	ClassOther BehaviorClass = "other-erroneous"
)

// Erroneous reports whether the class deviates from RFC 7208 (the paper's
// "incorrect macro expansion" population, which includes the vulnerable
// pattern).
func (c BehaviorClass) Erroneous() bool {
	switch c {
	case ClassCompliant, ClassMacroSkipped:
		return false
	}
	return true
}

// probeMacroSpec is the macro portion of the policy the test zone serves.
const probeMacroSpec = "%{d1r}"

// Classifier maps observed expansion prefixes onto behaviour classes by
// running each modeled behaviour's expander over the probe macro — the
// same code the simulated hosts run, so predictions and observations can
// never drift apart.
type Classifier struct {
	zone *dnsserver.SPFTestZone
}

// NewClassifier builds a classifier for the given test zone.
func NewClassifier(zone *dnsserver.SPFTestZone) *Classifier {
	return &Classifier{zone: zone}
}

// expectations returns the map from expected expansion prefix to class for
// a probe with the given id and suite.
func (c *Classifier) expectations(id, suite string) map[string]BehaviorClass {
	md, err := c.zone.MailDomain(id, suite)
	if err != nil {
		return nil
	}
	domain := strings.TrimSuffix(md.String(), ".")
	env := &spf.MacroEnv{Sender: "probe@" + domain, Domain: domain}
	out := make(map[string]BehaviorClass)
	add := func(b spfimpl.Behavior, cls BehaviorClass) {
		exp, err := spfimpl.ExpanderFor(b).Expand(context.Background(), probeMacroSpec, env, false)
		if err == nil && exp != "" {
			if _, taken := out[exp]; !taken {
				out[exp] = cls
			}
		}
	}
	// Order matters only for identical expansions; vulnerable first so it
	// is never shadowed.
	add(spfimpl.BehaviorVulnLibSPF2, ClassVulnerable)
	add(spfimpl.BehaviorCompliant, ClassCompliant)
	add(spfimpl.BehaviorNoReverse, ClassNoReverse)
	add(spfimpl.BehaviorNoTruncate, ClassNoTruncate)
	add(spfimpl.BehaviorRawValue, ClassRawValue)
	add(spfimpl.BehaviorNoExpansion, ClassNoExpansion)
	return out
}

// Observation is the classified evidence from one probe's DNS queries.
type Observation struct {
	// PolicyFetched reports whether the TXT policy was retrieved at all.
	PolicyFetched bool
	// LivenessSeen reports whether the macro-free a:b.<id> term was
	// resolved, proving the policy was parsed past the macro term.
	LivenessSeen bool
	// Patterns are the distinct non-liveness expansion prefixes observed,
	// sorted.
	Patterns []string
	// Classes are the classified verdicts for Patterns (same order).
	Classes []BehaviorClass
}

// Vulnerable reports whether any observed pattern is the libSPF2
// fingerprint.
func (o *Observation) Vulnerable() bool {
	for _, c := range o.Classes {
		if c == ClassVulnerable {
			return true
		}
	}
	return false
}

// Compliant reports whether the host expanded compliantly and nothing else.
func (o *Observation) Compliant() bool {
	return len(o.Classes) == 1 && o.Classes[0] == ClassCompliant
}

// MultiplePatterns reports hosts running more than one SPF implementation
// (paper §7.9: 6% of measurable IPs).
func (o *Observation) MultiplePatterns() bool { return len(o.Patterns) > 1 }

// Conclusive reports whether macro behaviour was determined.
func (o *Observation) Conclusive() bool {
	return len(o.Patterns) > 0 || o.LivenessSeen
}

// DominantClass summarizes the observation for taxonomy tables: the most
// severe class observed (vulnerable > erroneous > compliant), or
// macro-skipped when only the liveness term resolved.
func (o *Observation) DominantClass() BehaviorClass {
	if len(o.Classes) == 0 {
		if o.LivenessSeen {
			return ClassMacroSkipped
		}
		return ""
	}
	best := o.Classes[0]
	rank := func(c BehaviorClass) int {
		switch c {
		case ClassVulnerable:
			return 3
		case ClassCompliant:
			return 0
		default:
			return 2
		}
	}
	for _, c := range o.Classes[1:] {
		if rank(c) > rank(best) {
			best = c
		}
	}
	return best
}

// Classify analyses the queries recorded for a probe id. A transaction
// that logged no query, as every one that ends at a 421 banner, observed
// nothing, and costs nothing to classify.
func (c *Classifier) Classify(id, suite string, events []dnsserver.QueryEvent) Observation {
	if len(events) == 0 {
		return Observation{}
	}
	md, err := c.zone.MailDomain(id, suite)
	if err != nil {
		return Observation{}
	}
	var obs Observation
	var seen map[string]bool
	for _, ev := range events {
		prefix, ok := expansionPrefix(ev.Name, md)
		if !ok {
			continue
		}
		switch {
		case prefix == "":
			if ev.Type == dnsmsg.TypeTXT || ev.Type == dnsmsg.TypeSPF {
				obs.PolicyFetched = true
			}
		case prefix == "b":
			if ev.Type == dnsmsg.TypeA || ev.Type == dnsmsg.TypeAAAA {
				obs.LivenessSeen = true
			}
		default:
			if ev.Type != dnsmsg.TypeA && ev.Type != dnsmsg.TypeAAAA {
				continue
			}
			if seen == nil {
				seen = make(map[string]bool, 4)
			}
			if !seen[prefix] {
				seen[prefix] = true
				obs.Patterns = append(obs.Patterns, prefix)
			}
		}
	}
	if len(obs.Patterns) == 0 {
		return obs
	}
	sort.Strings(obs.Patterns)
	// The expectation table (six modeled expansions) is only needed once a
	// pattern was actually observed; most transactions observe none.
	expect := c.expectations(id, suite)
	for _, p := range obs.Patterns {
		cls, ok := expect[p]
		if !ok {
			cls = ClassOther
		}
		obs.Classes = append(obs.Classes, cls)
	}
	return obs
}

// expansionPrefix strips the mail-domain suffix from a query name and
// returns the leading expansion labels joined with dots. ok is false when
// the name is not under the probe's mail domain.
func expansionPrefix(qname, mailDomain dnsmsg.Name) (string, bool) {
	if !qname.HasSuffix(mailDomain) {
		return "", false
	}
	extra := qname.NumLabels() - mailDomain.NumLabels()
	if extra == 0 {
		return "", true
	}
	return strings.Join(qname.Labels()[:extra], "."), true
}
