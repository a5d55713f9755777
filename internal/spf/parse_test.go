package spf

import (
	"strings"
	"testing"
)

func TestIsSPFRecord(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"v=spf1 -all", true},
		{"v=spf1", true},
		{"V=SPF1 -all", true},
		{"v=spf10 -all", false},
		{"v=spf1-all", false},
		{"spf1 -all", false},
		{"", false},
		{"some verification token", false},
	}
	for _, c := range cases {
		if got := IsSPFRecord(c.in); got != c.want {
			t.Errorf("IsSPFRecord(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParsePaperExamplePolicy(t *testing.T) {
	// The example policy from SPFail §2.2.
	rec, err := Parse("v=spf1 a:foo.example.com ip4:192.0.2.1 include:bar.org -all")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Mechanisms) != 4 {
		t.Fatalf("mechanisms = %d", len(rec.Mechanisms))
	}
	m := rec.Mechanisms
	if m[0].Kind != MechA || m[0].Domain != "foo.example.com" || m[0].Qualifier != QPass {
		t.Errorf("m0 = %+v", m[0])
	}
	if m[1].Kind != MechIP4 || m[1].IP.String() != "192.0.2.1" || m[1].Prefix4 != -1 {
		t.Errorf("m1 = %+v", m[1])
	}
	if m[2].Kind != MechInclude || m[2].Domain != "bar.org" {
		t.Errorf("m2 = %+v", m[2])
	}
	if m[3].Kind != MechAll || m[3].Qualifier != QFail {
		t.Errorf("m3 = %+v", m[3])
	}
}

func TestParseMacroMechanism(t *testing.T) {
	// The probe policy served by the SPFail test zone.
	rec, err := Parse("v=spf1 a:%{d1r}.x.s.spf-test.dns-lab.org a:b.x.s.spf-test.dns-lab.org -all")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mechanisms[0].Domain != "%{d1r}.x.s.spf-test.dns-lab.org" {
		t.Errorf("macro domain = %q", rec.Mechanisms[0].Domain)
	}
}

func TestParseQualifiers(t *testing.T) {
	rec, err := Parse("v=spf1 +a -mx ~ptr ?exists:%{i}.rbl.example.org")
	if err != nil {
		t.Fatal(err)
	}
	want := []Qualifier{QPass, QFail, QSoftFail, QNeutral}
	for i, q := range want {
		if rec.Mechanisms[i].Qualifier != q {
			t.Errorf("mechanism %d qualifier = %c, want %c", i, rec.Mechanisms[i].Qualifier, q)
		}
	}
}

func TestParseDualCIDR(t *testing.T) {
	rec, err := Parse("v=spf1 a/24 mx:example.org/24//64 a:host.example.com//48")
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Mechanisms
	if m[0].Prefix4 != 24 || m[0].Prefix6 != -1 || m[0].Domain != "" {
		t.Errorf("a/24 = %+v", m[0])
	}
	if m[1].Domain != "example.org" || m[1].Prefix4 != 24 || m[1].Prefix6 != 64 {
		t.Errorf("mx dual = %+v", m[1])
	}
	if m[2].Domain != "host.example.com" || m[2].Prefix4 != -1 || m[2].Prefix6 != 48 {
		t.Errorf("a//48 = %+v", m[2])
	}
}

func TestParseIPMechanisms(t *testing.T) {
	rec, err := Parse("v=spf1 ip4:192.0.2.0/24 ip6:2001:db8::/32 ip4:198.51.100.7")
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Mechanisms
	if m[0].Prefix4 != 24 || m[1].Prefix6 != 32 || m[2].Prefix4 != -1 {
		t.Errorf("prefixes = %d %d %d", m[0].Prefix4, m[1].Prefix6, m[2].Prefix4)
	}
}

func TestParseCIDRBoundaries(t *testing.T) {
	rec, err := Parse("v=spf1 ip4:0.0.0.0/0 ip4:192.0.2.1/32 ip6:::/0 ip6:2001:db8::1/128 a/9//100")
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Mechanisms
	if m[0].Prefix4 != 0 || m[1].Prefix4 != 32 || m[2].Prefix6 != 0 || m[3].Prefix6 != 128 ||
		m[4].Prefix4 != 9 || m[4].Prefix6 != 100 {
		t.Errorf("prefixes = %d %d %d %d %d/%d", m[0].Prefix4, m[1].Prefix4, m[2].Prefix6, m[3].Prefix6, m[4].Prefix4, m[4].Prefix6)
	}
}

func TestParseModifiers(t *testing.T) {
	rec, err := Parse("v=spf1 mx redirect=_spf.example.com exp=explain.%{d} custom=x foo=%{d}")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Redirect != "_spf.example.com" {
		t.Errorf("redirect = %q", rec.Redirect)
	}
	if rec.Exp != "explain.%{d}" {
		t.Errorf("exp = %q", rec.Exp)
	}
	if len(rec.Unknown) != 2 || rec.Unknown[0].Name != "custom" || rec.Unknown[1].Value != "%{d}" {
		t.Errorf("unknown = %v", rec.Unknown)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"not spf at all",
		"v=spf1 bogus",
		"v=spf1 all:arg",
		"v=spf1 include",
		"v=spf1 include:",
		"v=spf1 exists",
		"v=spf1 ip4:999.1.1.1",
		"v=spf1 ip4:2001:db8::1",
		"v=spf1 ip6:192.0.2.1",
		"v=spf1 ip4:192.0.2.1/33",
		"v=spf1 ip6:2001:db8::/129",
		"v=spf1 a/xx",
		"v=spf1 a:/24",
		"v=spf1 redirect= mx",
		"v=spf1 redirect=a redirect=b",
		"v=spf1 exp=a exp=b",
		"v=spf1 ptr:",
		"v=spf1 ptrx",
		// RFC 7208 §5.6: CIDR lengths take no sign and no leading zero.
		"v=spf1 ip4:192.0.2.0/024",
		"v=spf1 ip4:192.0.2.0/+24",
		"v=spf1 ip4:192.0.2.0/-0",
		"v=spf1 a/024",
		"v=spf1 ip6:2001:db8::/064",
		// RFC 7208 §4.6.1: an unknown modifier's value is a macro-string.
		"v=spf1 foo=%{z} -all",
		"v=spf1 foo=50% -all",
		// RFC 7208 §7.1: a domain-spec ends in a macro-expand or in
		// "." toplabel, and a toplabel is not all digits, does not start
		// or end with a hyphen, and needs a dot before it.
		"v=spf1 a:foo.123 -all",
		"v=spf1 include:foo.123.",
		"v=spf1 mx:example.-com",
		"v=spf1 exists:%{i}.foo.123",
		"v=spf1 redirect=foo.123",
		"v=spf1 a:localhost",
		"v=spf1 ptr:foo.123",
		"v=spf1 exp=explain.123",
		"v=spf1 a:foo.com-",
		"v=spf1 include:foo.com..",
		"v=spf1 include:%{z}.example.com",
		// A macro-literal is visible ASCII other than '%'.
		"v=spf1 a:foo\x01.example.com",
		"v=spf1 include:f\xc3\xa9.example.com",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// TestParseDomainSpecEnds covers the domain-ends RFC 7208 §7.1 accepts:
// a toplabel with a letter, hyphen-joined alphanumerics, an optional
// trailing dot, and a closing macro-expand.
func TestParseDomainSpecEnds(t *testing.T) {
	for _, s := range []string{
		"v=spf1 a:foo.1-2 -all",
		"v=spf1 include:%{d}",
		"v=spf1 mx:example.com. -all",
		"v=spf1 exists:%{i}.x1.example -all",
		"v=spf1 ptr:%{d}.a-1 -all",
		"v=spf1 a:mail.%{d1r} -all",
		"v=spf1 include:_spf.%{d}.%%",
		"v=spf1 redirect=%{d}._spf.example.com exp=why.%{d}",
	} {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
	}
}

func TestRecordStringRoundTrip(t *testing.T) {
	in := "v=spf1 a:foo.example.com/24//64 ip4:192.0.2.0/24 ip6:2001:db8::1 include:bar.org ~all redirect=_spf.example.net"
	rec, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	out := rec.String()
	rec2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if rec2.String() != out {
		t.Errorf("String not stable: %q vs %q", out, rec2.String())
	}
	if !strings.Contains(out, "~all") || !strings.Contains(out, "redirect=_spf.example.net") {
		t.Errorf("String dropped terms: %q", out)
	}
}

func TestLookupTermsCount(t *testing.T) {
	rec, err := Parse("v=spf1 ip4:192.0.2.1 a mx include:x.org exists:%{i}.e.org ptr -all redirect=y.org")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.LookupTerms(); got != 6 {
		t.Errorf("LookupTerms = %d, want 6 (a mx include exists ptr redirect)", got)
	}
}
