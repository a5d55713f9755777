package spf

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

func TestCheckHostSkipMacroMechanisms(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 a:%{d1r}.t.example a:static.example.com -all"}
	f.a["static.example.com"] = []netip.Addr{ip1}
	c := &Checker{Resolver: f, SkipMacroMechanisms: true}
	res := c.CheckHost(context.Background(), ip1, "example.com", "u@example.com", "h")
	if res.Result != ResultPass {
		t.Fatalf("result = %s (%v); macro term should be skipped, static term matched", res.Result, res.Err)
	}
	// The macro target must never have been resolved.
	for k := range f.a {
		if k != "static.example.com" && k != "example.com" {
			t.Errorf("unexpected resolution of %q", k)
		}
	}
}

func TestCheckHostCaseInsensitiveTerms(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"V=SPF1 IP4:192.0.2.0/24 -ALL"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("uppercase record = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostSenderWithoutLocalPart(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 exists:%{l}.users.example.com -all"}
	f.a["postmaster.users.example.com"] = []netip.Addr{netip.MustParseAddr("127.0.0.2")}
	c := &Checker{Resolver: f}
	// HELO check form: sender is the bare domain.
	res := c.CheckHost(context.Background(), ip1, "example.com", "example.com", "example.com")
	if res.Result != ResultPass {
		t.Fatalf("postmaster default = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostMXLimitExceeded(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 mx -all"}
	var mxs []MX
	for i := 0; i < 11; i++ {
		mxs = append(mxs, MX{Preference: uint16(i), Host: fmt.Sprintf("mx%d.example.com", i)})
	}
	f.mx["example.com"] = mxs
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPermError {
		t.Fatalf("11 MX records = %s, want permerror", res.Result)
	}
}

func TestCheckHostRedirectSelfLoopHitsBudget(t *testing.T) {
	f := newFakeResolver()
	f.txt["loop.example"] = []string{"v=spf1 redirect=loop.example"}
	if res := check(t, f, ip1, "loop.example"); res.Result != ResultPermError {
		t.Fatalf("redirect self-loop = %s, want permerror via lookup budget", res.Result)
	}
}

func TestCheckHostIncludeSelfLoopHitsBudget(t *testing.T) {
	f := newFakeResolver()
	f.txt["loop.example"] = []string{"v=spf1 include:loop.example -all"}
	if res := check(t, f, ip1, "loop.example"); res.Result != ResultPermError {
		t.Fatalf("include self-loop = %s, want permerror", res.Result)
	}
}

func TestCheckHostIPv6AMechanism(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 a -all"}
	f.a["example.com"] = []netip.Addr{ip6}
	if res := check(t, f, ip6, "example.com"); res.Result != ResultPass {
		t.Fatalf("v6 a = %s (%v)", res.Result, res.Err)
	}
	// v4 client against a v6-only host list fails.
	if res := check(t, f, ip1, "example.com"); res.Result != ResultFail {
		t.Fatalf("v4-vs-v6 a = %s", res.Result)
	}
}

func TestCheckHostDualCIDRIPv6(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 a//64 -all"}
	f.a["example.com"] = []netip.Addr{netip.MustParseAddr("2001:db8::99")}
	// Same /64 as 2001:db8::1.
	if res := check(t, f, ip6, "example.com"); res.Result != ResultPass {
		t.Fatalf("a//64 = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostExistsUsesAEvenForV6Client(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 exists:flag.example.com -all"}
	// Only an A record exists; per RFC 7208 §5.7 exists always queries A.
	f.a["flag.example.com"] = []netip.Addr{netip.MustParseAddr("127.0.0.2")}
	if res := check(t, f, ip6, "example.com"); res.Result != ResultPass {
		t.Fatalf("v6 exists = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostSPFRecordAmongOtherTXT(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{
		"google-site-verification=abc123",
		"v=spf1 ip4:192.0.2.1 -all",
		"some other junk",
	}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("mixed TXT = %s", res.Result)
	}
}

func TestCheckHostExplanationFailuresAreSilent(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 -all exp=missing.example.com"}
	res := check(t, f, ip1, "example.com")
	if res.Result != ResultFail {
		t.Fatalf("result = %s", res.Result)
	}
	if res.Explanation != "" {
		t.Errorf("explanation from missing record = %q", res.Explanation)
	}
	// Multiple TXT at the exp target also yields no explanation.
	f.txt["example.com"] = []string{"v=spf1 -all exp=two.example.com"}
	f.txt["two.example.com"] = []string{"a", "b"}
	res = check(t, f, ip1, "example.com")
	if res.Explanation != "" {
		t.Errorf("explanation from ambiguous record = %q", res.Explanation)
	}
}

// TestCheckHostCustomLimits pins the RFC 7208 §4.6.4 limits at their
// boundaries: each pair of policies sits one term either side of a limit,
// so the verdict must flip from neutral to permerror exactly there.
func TestCheckHostCustomLimits(t *testing.T) {
	terms := func(n int, format string) string {
		var b strings.Builder
		b.WriteString("v=spf1")
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, " "+format, i)
		}
		return b.String() + " ?all"
	}
	for _, tc := range []struct {
		name   string
		policy string
		mxs    int
		want   Result
	}{
		{"10 include terms", terms(10, "include:i%d.example"), 0, ResultNeutral},
		{"11 include terms", terms(11, "include:i%d.example"), 0, ResultPermError},
		{"2 void lookups", terms(2, "a:v%d.example"), 0, ResultNeutral},
		{"3 void lookups", terms(3, "a:v%d.example"), 0, ResultPermError},
		{"10 MX names", "v=spf1 mx ?all", 10, ResultNeutral},
		{"11 MX names", "v=spf1 mx ?all", 11, ResultPermError},
	} {
		f := newFakeResolver()
		f.txt["example.com"] = []string{tc.policy}
		for i := 1; i <= 11; i++ {
			f.txt[fmt.Sprintf("i%d.example", i)] = []string{"v=spf1 -all"}
		}
		for i := 0; i < tc.mxs; i++ {
			f.mx["example.com"] = append(f.mx["example.com"],
				MX{Preference: uint16(i), Host: fmt.Sprintf("mx%d.example.com", i)})
		}
		if res := check(t, f, ip1, "example.com"); res.Result != tc.want {
			t.Errorf("%s: %s (%v), want %s", tc.name, res.Result, res.Err, tc.want)
		}
	}
}

func TestCheckHostMacroExpandedTargetTruncation(t *testing.T) {
	f := newFakeResolver()
	// An expansion longer than 253 chars must drop left-most labels.
	longLocal := ""
	for i := 0; i < 30; i++ {
		longLocal += "aaaaaaaaa."
	}
	longLocal += "x"
	f.txt["example.com"] = []string{"v=spf1 exists:%{l}.check.example -all"}
	c := &Checker{Resolver: f}
	res := c.CheckHost(context.Background(), ip1, "example.com", longLocal+"@example.com", "h")
	// NXDOMAIN on the (truncated) target is just no-match → -all fail;
	// the point is that no over-length name reached the resolver.
	if res.Result != ResultFail {
		t.Fatalf("result = %s (%v)", res.Result, res.Err)
	}
	for name := range f.a {
		if len(name) > 253 {
			t.Errorf("over-length lookup reached resolver: %d chars", len(name))
		}
	}
}

func TestCheckHostMXTargetOverride(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 mx:other.example -all"}
	f.mx["other.example"] = []MX{{10, "mail.other.example"}}
	f.a["mail.other.example"] = []netip.Addr{ip1}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("mx:domain = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostPTRWithTargetDomain(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ptr:trusted.example -all"}
	f.ptr[ip1.String()] = []string{"host.trusted.example."}
	f.a["host.trusted.example"] = []netip.Addr{ip1}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("ptr:domain = %s (%v)", res.Result, res.Err)
	}
}

func TestQualifierResults(t *testing.T) {
	cases := map[Qualifier]Result{
		QPass: ResultPass, QFail: ResultFail,
		QSoftFail: ResultSoftFail, QNeutral: ResultNeutral,
	}
	for q, want := range cases {
		if got := q.Result(); got != want {
			t.Errorf("%c.Result() = %s, want %s", q, got, want)
		}
	}
}
