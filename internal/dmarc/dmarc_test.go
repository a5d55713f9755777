package dmarc

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"spfail/internal/spf"
)

func TestIsDMARCRecord(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"v=DMARC1; p=reject", true},
		{"v=DMARC1", true},
		{"V=dmarc1; p=none", true},
		{"v=DMARC1;p=none", true},
		{"v=DMARC12; p=none", false},
		{"v=spf1 -all", false},
		{"", false},
	}
	for _, c := range cases {
		if got := IsDMARCRecord(c.in); got != c.want {
			t.Errorf("IsDMARCRecord(%q) = %v", c.in, got)
		}
	}
}

func TestParseFull(t *testing.T) {
	rec, err := Parse("v=DMARC1; p=quarantine; sp=reject; aspf=s; adkim=r; pct=50; rua=mailto:agg@example.com,mailto:b@example.org")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Policy != PolicyQuarantine || rec.SubdomainPolicy != PolicyReject {
		t.Errorf("policies = %s/%s", rec.Policy, rec.SubdomainPolicy)
	}
	if rec.SPFAlignment != AlignStrict || rec.DKIMAlignment != AlignRelaxed {
		t.Errorf("alignments = %c/%c", rec.SPFAlignment, rec.DKIMAlignment)
	}
	if rec.Percent != 50 || len(rec.RUA) != 2 {
		t.Errorf("pct=%d rua=%v", rec.Percent, rec.RUA)
	}
}

func TestParseDefaults(t *testing.T) {
	rec, err := Parse("v=DMARC1; p=reject")
	if err != nil {
		t.Fatal(err)
	}
	if rec.SubdomainPolicy != PolicyReject || rec.Percent != 100 ||
		rec.SPFAlignment != AlignRelaxed {
		t.Errorf("defaults = %+v", rec)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"v=DMARC1",                // missing p=
		"v=DMARC1; p=bogus",       // unknown policy
		"v=DMARC1; p=none; pct=x", // bad pct
		"v=DMARC1; p=none; pct=101",
		"v=DMARC1; p=none; pct=50abc",
		"v=DMARC1; p=none; pct=+50",
		"v=DMARC1; p=none; pct=0100",
		"v=DMARC1; p=none; pct=",
		"v=DMARC1; p=none; aspf=q", // bad alignment
		"v=DMARC1; p=none; junk",   // tag without value
		"not dmarc",
		// No valid p= and no valid rua= URI to fall back on.
		"v=DMARC1; rua=agg@example.com",
		"v=DMARC1; p=bogus; rua=mailto:",
		"v=DMARC1; p=bogus; rua=mailto:agg@example.com%zz",
		"v=DMARC1; p=bogus; rua=mailto:agg @example.com",
		"v=DMARC1; p=reject; sp=bogus; rua=1mailto:agg@example.com",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParsePercentBounds(t *testing.T) {
	for in, want := range map[string]int{"0": 0, "007": 7, "50": 50, "100": 100} {
		rec, err := Parse("v=DMARC1; p=reject; pct=" + in)
		if err != nil || rec.Percent != want {
			t.Errorf("pct=%s: %+v, %v; want %d", in, rec, err, want)
		}
	}
}

// TestParseReportOnlyFallback: a record without a valid p=, or with an
// invalid sp=, whose rua= holds a valid URI acts as p=none (RFC 7489
// §6.6.3).
func TestParseReportOnlyFallback(t *testing.T) {
	for _, s := range []string{
		"v=DMARC1; rua=mailto:agg@example.com",
		"v=DMARC1; p=bogus; rua=mailto:agg@example.com!10m",
		"v=DMARC1; p=reject; sp=bogus; rua=junk, https://reports.example/dmarc?x=%2F",
	} {
		rec, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if rec.Policy != PolicyNone || rec.SubdomainPolicy != PolicyNone {
			t.Errorf("Parse(%q) policies = %s/%s, want none/none", s, rec.Policy, rec.SubdomainPolicy)
		}
	}
}

// FuzzParse: Parse must not panic, must keep an accepted pct= in range,
// and must parse an accepted record written back in canonical form to
// the same Record.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"v=DMARC1; p=quarantine; sp=reject; aspf=s; adkim=r; pct=50; rua=mailto:agg@example.com,mailto:b@example.org",
		"v=DMARC1; p=reject",
		"v=DMARC1; p=none; pct=50abc",
		"v=DMARC1; rua=mailto:agg@example.com",
		"v=DMARC1; p=bogus; rua= mailto:a@b.example!10m , x",
		"V=dmarc1;P=Reject;SP=none;pct=007",
		"v=DMARC1; p=reject; rua=%41:x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, txt string) {
		rec, err := Parse(txt)
		if err != nil {
			return
		}
		if rec.Percent < 0 || rec.Percent > 100 {
			t.Fatalf("accepted pct %d", rec.Percent)
		}
		canon := fmt.Sprintf("v=DMARC1; p=%s; sp=%s; aspf=%c; adkim=%c; pct=%d",
			rec.Policy, rec.SubdomainPolicy, rec.SPFAlignment, rec.DKIMAlignment, rec.Percent)
		if rec.RUA != nil {
			canon += "; rua=" + strings.Join(rec.RUA, ",")
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q rejected: %v", canon, txt, err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("canonical form %q parsed as %+v, want %+v", canon, again, rec)
		}
	})
}

func TestOrganizationalDomain(t *testing.T) {
	cases := map[string]string{
		"example.com":          "example.com",
		"mail.example.com":     "example.com",
		"a.b.c.example.com":    "example.com",
		"example.co.uk":        "example.co.uk",
		"mail.example.co.uk":   "example.co.uk",
		"www.site.com.au":      "site.com.au",
		"com":                  "com",
		"Sub.EXAMPLE.ORG.":     "example.org",
		"deep.mail.corp.co.za": "corp.co.za",
		// Multi-label public suffixes the population generator emits.
		"mail.loja.com.br":   "loja.com.br",
		"mx.assoc.org.br":    "assoc.org.br",
		"smtp.isp.net.br":    "isp.net.br",
		"www.shop.web.za":    "shop.web.za",
		"mail.firm.co.il":    "firm.co.il",
		"mx.ngo.org.il":      "ngo.org.il",
		"smtp.tienda.com.mx": "tienda.com.mx",
		"mail.pyme.com.ar":   "pyme.com.ar",
		"co.za":              "co.za",
		"x.co.za":            "x.co.za",
	}
	for in, want := range cases {
		if got := OrganizationalDomain(in); got != want {
			t.Errorf("OrganizationalDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSPFAlignment(t *testing.T) {
	relaxed := &Record{SPFAlignment: AlignRelaxed}
	strict := &Record{SPFAlignment: AlignStrict}
	if !relaxed.SPFAligned("example.com", "example.com") {
		t.Error("exact match should align")
	}
	if !relaxed.SPFAligned("example.com", "bounce.example.com") {
		t.Error("relaxed org-domain match should align")
	}
	if strict.SPFAligned("example.com", "bounce.example.com") {
		t.Error("strict subdomain should not align")
	}
	if relaxed.SPFAligned("example.com", "other.net") {
		t.Error("cross-domain should not align")
	}
}

// dmarcResolver serves TXT from a map.
type dmarcResolver struct {
	txt map[string][]string
}

func (r dmarcResolver) LookupTXT(_ context.Context, name string) ([]string, error) {
	if v, ok := r.txt[strings.TrimSuffix(name, ".")]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %s", spf.ErrNotFound, name)
}

func (dmarcResolver) LookupIP(context.Context, string, string) ([]netip.Addr, error) {
	return nil, spf.ErrNotFound
}

func (dmarcResolver) LookupMX(context.Context, string) ([]spf.MX, error) {
	return nil, spf.ErrNotFound
}

func (dmarcResolver) LookupPTR(context.Context, netip.Addr) ([]string, error) {
	return nil, spf.ErrNotFound
}

func TestDiscoverDirect(t *testing.T) {
	r := dmarcResolver{txt: map[string][]string{
		"_dmarc.example.com": {"v=DMARC1; p=reject"},
	}}
	rec, where, err := Discover(context.Background(), r, "example.com")
	if err != nil || rec == nil || where != "example.com" {
		t.Fatalf("Discover = %+v, %q, %v", rec, where, err)
	}
	if rec.Policy != PolicyReject {
		t.Errorf("policy = %s", rec.Policy)
	}
}

func TestDiscoverOrgFallback(t *testing.T) {
	r := dmarcResolver{txt: map[string][]string{
		"_dmarc.example.com": {"v=DMARC1; p=quarantine; sp=none"},
	}}
	rec, where, err := Discover(context.Background(), r, "deep.mail.example.com")
	if err != nil || rec == nil {
		t.Fatalf("Discover = %v, %v", rec, err)
	}
	if where != "example.com" {
		t.Errorf("found at %q", where)
	}
}

func TestDiscoverNothing(t *testing.T) {
	r := dmarcResolver{txt: map[string][]string{}}
	rec, _, err := Discover(context.Background(), r, "example.com")
	if err != nil || rec != nil {
		t.Fatalf("Discover = %v, %v", rec, err)
	}
}

func TestDiscoverIgnoresNonDMARCAndUnparsable(t *testing.T) {
	r := dmarcResolver{txt: map[string][]string{
		"_dmarc.example.com": {"verification=xyz", "v=DMARC1; p=bogus", "v=DMARC1; p=none"},
	}}
	rec, _, err := Discover(context.Background(), r, "example.com")
	if err != nil || rec == nil || rec.Policy != PolicyNone {
		t.Fatalf("Discover = %+v, %v", rec, err)
	}
}

func TestEvaluateRejectUnaligned(t *testing.T) {
	// The SPFail probe scenario (§6.2): SPF fails, DMARC says reject —
	// blank probe emails are discarded.
	r := dmarcResolver{txt: map[string][]string{
		"_dmarc.x7.s01.spf-test.dns-lab.org": {"v=DMARC1; p=reject; aspf=s"},
	}}
	res, err := Evaluate(context.Background(), r,
		"x7.s01.spf-test.dns-lab.org", spf.ResultFail, "x7.s01.spf-test.dns-lab.org")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Pass || res.Disposition != PolicyReject {
		t.Fatalf("res = %+v", res)
	}
}

func TestEvaluatePassAligned(t *testing.T) {
	r := dmarcResolver{txt: map[string][]string{
		"_dmarc.example.com": {"v=DMARC1; p=reject"},
	}}
	res, err := Evaluate(context.Background(), r, "example.com", spf.ResultPass, "bounce.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || res.Disposition != PolicyNone {
		t.Fatalf("res = %+v", res)
	}
}

func TestEvaluateSubdomainPolicy(t *testing.T) {
	r := dmarcResolver{txt: map[string][]string{
		"_dmarc.example.com": {"v=DMARC1; p=reject; sp=quarantine"},
	}}
	res, err := Evaluate(context.Background(), r, "sub.example.com", spf.ResultFail, "sub.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != PolicyQuarantine {
		t.Fatalf("subdomain disposition = %s", res.Disposition)
	}
}

func TestEvaluateNoRecord(t *testing.T) {
	r := dmarcResolver{txt: map[string][]string{}}
	res, err := Evaluate(context.Background(), r, "example.com", spf.ResultFail, "example.com")
	if err != nil || res.Found || res.Disposition != PolicyNone {
		t.Fatalf("res = %+v, %v", res, err)
	}
}
