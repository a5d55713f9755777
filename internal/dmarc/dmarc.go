// Package dmarc implements the subset of DMARC (RFC 7489) the SPFail
// study touches: record discovery and parsing, organizational-domain
// fallback, and the SPF-identifier alignment check a receiver applies
// before honoring a policy. The measurement's probe source domains publish
// "v=DMARC1; p=reject" so that blank probe emails are discarded rather
// than delivered (paper §6.2); simulated receivers use this package to
// honor that request.
package dmarc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"spfail/internal/spf"
	"spfail/internal/trace"
)

// Policy is a requested message disposition.
type Policy string

// The three dispositions of RFC 7489 §6.3.
const (
	PolicyNone       Policy = "none"
	PolicyQuarantine Policy = "quarantine"
	PolicyReject     Policy = "reject"
)

// Alignment is the identifier-alignment mode.
type Alignment byte

// Alignment modes.
const (
	AlignRelaxed Alignment = 'r'
	AlignStrict  Alignment = 's'
)

// Record is a parsed DMARC policy record.
type Record struct {
	// Policy is the p= disposition.
	Policy Policy
	// SubdomainPolicy is sp=, falling back to Policy when absent.
	SubdomainPolicy Policy
	// SPFAlignment is aspf= (default relaxed).
	SPFAlignment Alignment
	// DKIMAlignment is adkim= (default relaxed).
	DKIMAlignment Alignment
	// Percent is pct= (default 100).
	Percent int
	// RUA holds aggregate-report URIs (rua=), unvalidated.
	RUA []string
}

// IsDMARCRecord reports whether a TXT string is a DMARC record: it must
// begin with "v=DMARC1" followed by end or a separator.
func IsDMARCRecord(txt string) bool {
	t := strings.TrimSpace(txt)
	if len(t) < 8 || !strings.EqualFold(t[:8], "v=DMARC1") {
		return false
	}
	rest := t[8:]
	return rest == "" || strings.HasPrefix(strings.TrimSpace(rest), ";")
}

// Parse parses a DMARC record's tag-value list. A record without a valid
// p= tag, or with an invalid sp= tag, parses as p=none when its rua= tag
// holds a syntactically valid URI, and fails otherwise (RFC 7489 §6.6.3).
func Parse(txt string) (*Record, error) {
	if !IsDMARCRecord(txt) {
		return nil, errors.New("dmarc: missing v=DMARC1 tag")
	}
	rec := &Record{
		SPFAlignment:  AlignRelaxed,
		DKIMAlignment: AlignRelaxed,
		Percent:       100,
	}
	var badPolicy error // the first invalid p= or sp= value
	for i, field := range strings.Split(txt, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		eq := strings.IndexByte(field, '=')
		if eq < 0 {
			return nil, fmt.Errorf("dmarc: bad tag %q", field)
		}
		tag := strings.ToLower(strings.TrimSpace(field[:eq]))
		val := strings.TrimSpace(field[eq+1:])
		if i == 0 {
			continue // the v=DMARC1 tag itself
		}
		switch tag {
		case "p", "sp":
			p, err := parsePolicy(val)
			switch {
			case err != nil:
				if badPolicy == nil {
					badPolicy = err
				}
			case tag == "p":
				rec.Policy = p
			default:
				rec.SubdomainPolicy = p
			}
		case "aspf":
			a, err := parseAlignment(val)
			if err != nil {
				return nil, err
			}
			rec.SPFAlignment = a
		case "adkim":
			a, err := parseAlignment(val)
			if err != nil {
				return nil, err
			}
			rec.DKIMAlignment = a
		case "pct":
			// One to three digits (RFC 7489 §6.3), so no sign.
			n, err := strconv.Atoi(val)
			if err != nil || len(val) > 3 || val[0] < '0' || val[0] > '9' || n > 100 {
				return nil, fmt.Errorf("dmarc: bad pct %q", val)
			}
			rec.Percent = n
		case "rua":
			rec.RUA = strings.Split(val, ",")
		default:
			// Unknown tags are ignored per RFC 7489 §6.3.
		}
	}
	if rec.Policy == "" && badPolicy == nil {
		badPolicy = errors.New("dmarc: missing required p= tag")
	}
	if badPolicy != nil {
		if !slices.ContainsFunc(rec.RUA, validReportURI) {
			return nil, badPolicy
		}
		rec.Policy, rec.SubdomainPolicy = PolicyNone, PolicyNone
	}
	if rec.SubdomainPolicy == "" {
		rec.SubdomainPolicy = rec.Policy
	}
	return rec, nil
}

// validReportURI reports whether u is a syntactically valid reporting URI
// (RFC 7489 §6.4): an RFC 3986 scheme, a colon, and a non-empty rest made
// of URI characters and well-formed percent-escapes. An optional "!size"
// suffix is made of such characters too.
func validReportURI(u string) bool {
	u = strings.TrimSpace(u)
	colon := strings.IndexByte(u, ':')
	if colon < 1 || colon == len(u)-1 {
		return false
	}
	for i := 0; i < len(u); i++ {
		c := u[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case i == 0:
			return false
		case '0' <= c && c <= '9', c == '+', c == '-', c == '.':
		case i < colon:
			return false
		case strings.IndexByte("_~:/?#[]@!$&'()*=", c) >= 0:
		case c == '%' && i+2 < len(u) && isHex(u[i+1]) && isHex(u[i+2]):
			i += 2
		default:
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func parsePolicy(v string) (Policy, error) {
	switch strings.ToLower(v) {
	case "none":
		return PolicyNone, nil
	case "quarantine":
		return PolicyQuarantine, nil
	case "reject":
		return PolicyReject, nil
	}
	return "", fmt.Errorf("dmarc: unknown policy %q", v)
}

func parseAlignment(v string) (Alignment, error) {
	switch strings.ToLower(v) {
	case "r":
		return AlignRelaxed, nil
	case "s":
		return AlignStrict, nil
	}
	return 0, fmt.Errorf("dmarc: unknown alignment %q", v)
}

// twoLabel holds the two-label public suffixes the study's TLD profiles
// can generate (see population's ccSecondLevel) plus common real-world
// ones; every suffix the generator registers under must appear here or
// relaxed-alignment verdicts for those worlds come out wrong. (A full
// PSL is out of scope.)
var twoLabel = map[string]bool{
	"co.uk": true, "ac.uk": true, "org.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.jp": true, "ne.jp": true, "or.jp": true,
	"com.br": true, "net.br": true, "org.br": true,
	"co.za": true, "org.za": true, "web.za": true,
	"co.il": true, "org.il": true,
	"com.cn": true, "com.tr": true, "com.tw": true,
	"com.mx": true, "com.ar": true,
	"co.in": true, "co.kr": true,
}

// OrganizationalDomain approximates the org domain: the registrable
// two-label suffix, with a small table of common multi-label public
// suffixes.
func OrganizationalDomain(domain string) string {
	domain = strings.ToLower(strings.TrimSuffix(domain, "."))
	labels := strings.Split(domain, ".")
	if len(labels) <= 2 {
		return domain
	}
	suffix2 := strings.Join(labels[len(labels)-2:], ".")
	if twoLabel[suffix2] && len(labels) >= 3 {
		return strings.Join(labels[len(labels)-3:], ".")
	}
	return suffix2
}

// SPFAligned reports whether the SPF-authenticated domain (the MAIL FROM
// domain that produced an SPF pass) aligns with the RFC5322.From domain
// under the record's aspf mode.
func (r *Record) SPFAligned(fromDomain, spfDomain string) bool {
	f := strings.ToLower(strings.TrimSuffix(fromDomain, "."))
	s := strings.ToLower(strings.TrimSuffix(spfDomain, "."))
	if f == s {
		return true
	}
	if r.SPFAlignment == AlignStrict {
		return false
	}
	return OrganizationalDomain(f) == OrganizationalDomain(s)
}

// Result is the outcome of a DMARC evaluation.
type Result struct {
	// Found reports whether any policy record was discovered.
	Found bool
	// Domain is where the record was found (the From domain or its
	// organizational domain).
	Domain string
	// Record is the parsed policy.
	Record *Record
	// Disposition is the applicable policy for this message.
	Disposition Policy
	// Pass reports whether DMARC passed (aligned SPF pass; DKIM is out
	// of scope here).
	Pass bool
}

// Evaluate discovers the policy for fromDomain and applies the SPF-only
// DMARC check: pass when SPF passed and the SPF domain aligns. When the
// context carries a trace, the evaluation is recorded as a
// "dmarc.evaluate" span with the discovery and disposition outcome.
func Evaluate(ctx context.Context, resolver spf.Resolver, fromDomain string, spfResult spf.Result, spfDomain string) (Result, error) {
	ctx, sp := trace.StartSpan(ctx, "dmarc.evaluate")
	if sp != nil {
		sp.SetAttrs(trace.String("from_domain", fromDomain),
			trace.String("spf_result", string(spfResult)))
	}
	out, err := evaluate(ctx, resolver, fromDomain, spfResult, spfDomain)
	if sp != nil {
		sp.SetAttrs(trace.Bool("found", out.Found))
		if err != nil {
			sp.SetAttrs(trace.String("error", err.Error()))
		} else if out.Found {
			sp.SetAttrs(trace.String("policy_domain", out.Domain),
				trace.String("disposition", string(out.Disposition)),
				trace.Bool("pass", out.Pass))
		}
		sp.End()
	}
	return out, err
}

func evaluate(ctx context.Context, resolver spf.Resolver, fromDomain string, spfResult spf.Result, spfDomain string) (Result, error) {
	rec, where, err := Discover(ctx, resolver, fromDomain)
	if err != nil {
		return Result{}, err
	}
	if rec == nil {
		return Result{Found: false, Disposition: PolicyNone}, nil
	}
	out := Result{Found: true, Domain: where, Record: rec}
	out.Pass = spfResult == spf.ResultPass && rec.SPFAligned(fromDomain, spfDomain)
	if out.Pass {
		out.Disposition = PolicyNone
		return out, nil
	}
	if strings.EqualFold(where, fromDomain) || strings.EqualFold(where, strings.TrimSuffix(fromDomain, ".")) {
		out.Disposition = rec.Policy
	} else {
		out.Disposition = rec.SubdomainPolicy
	}
	return out, nil
}

// Discover fetches the DMARC record for a domain: _dmarc.<domain>, then
// _dmarc.<orgdomain> (RFC 7489 §6.6.3).
func Discover(ctx context.Context, resolver spf.Resolver, domain string) (*Record, string, error) {
	candidates := []string{domain}
	if org := OrganizationalDomain(domain); !strings.EqualFold(org, strings.TrimSuffix(strings.ToLower(domain), ".")) {
		candidates = append(candidates, org)
	}
	for _, d := range candidates {
		txts, err := resolver.LookupTXT(ctx, "_dmarc."+strings.TrimSuffix(d, "."))
		if err != nil {
			if errors.Is(err, spf.ErrNotFound) {
				continue
			}
			return nil, "", fmt.Errorf("dmarc: lookup for %s: %w", d, err)
		}
		var found *Record
		for _, t := range txts {
			if !IsDMARCRecord(t) {
				continue
			}
			rec, err := Parse(t)
			if err != nil {
				continue // unparsable records are ignored
			}
			if found != nil {
				return nil, "", errors.New("dmarc: multiple records")
			}
			found = rec
		}
		if found != nil {
			return found, d, nil
		}
	}
	return nil, "", nil
}
