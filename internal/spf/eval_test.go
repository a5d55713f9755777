package spf

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// fakeResolver serves lookups from maps, counting calls.
type fakeResolver struct {
	txt   map[string][]string
	a     map[string][]netip.Addr
	mx    map[string][]MX
	ptr   map[string][]string
	temp  map[string]bool // names that SERVFAIL
	calls int
}

func newFakeResolver() *fakeResolver {
	return &fakeResolver{
		txt:  map[string][]string{},
		a:    map[string][]netip.Addr{},
		mx:   map[string][]MX{},
		ptr:  map[string][]string{},
		temp: map[string]bool{},
	}
}

func (f *fakeResolver) key(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

func (f *fakeResolver) LookupTXT(_ context.Context, name string) ([]string, error) {
	f.calls++
	k := f.key(name)
	if f.temp[k] {
		return nil, fmt.Errorf("%w: injected", ErrTemporary)
	}
	if v, ok := f.txt[k]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
}

func (f *fakeResolver) LookupIP(_ context.Context, network, name string) ([]netip.Addr, error) {
	f.calls++
	k := f.key(name)
	if f.temp[k] {
		return nil, fmt.Errorf("%w: injected", ErrTemporary)
	}
	v, ok := f.a[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	match := func(a netip.Addr) bool {
		switch network {
		case "ip4":
			return a.Is4()
		case "ip6":
			return a.Is6() && !a.Is4In6()
		}
		return true
	}
	all := true
	for _, a := range v {
		if !match(a) {
			all = false
			break
		}
	}
	if all {
		return v, nil
	}
	var out []netip.Addr
	for _, a := range v {
		if match(a) {
			out = append(out, a)
		}
	}
	return out, nil
}

func (f *fakeResolver) LookupMX(_ context.Context, name string) ([]MX, error) {
	f.calls++
	k := f.key(name)
	if f.temp[k] {
		return nil, fmt.Errorf("%w: injected", ErrTemporary)
	}
	if v, ok := f.mx[k]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
}

func (f *fakeResolver) LookupPTR(_ context.Context, addr netip.Addr) ([]string, error) {
	f.calls++
	if v, ok := f.ptr[addr.String()]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, addr)
}

var (
	ip1 = netip.MustParseAddr("192.0.2.1")
	ip2 = netip.MustParseAddr("192.0.2.200")
	ip6 = netip.MustParseAddr("2001:db8::1")
)

func check(t *testing.T, r Resolver, ip netip.Addr, domain string) CheckResult {
	t.Helper()
	c := &Checker{Resolver: r}
	return c.CheckHost(context.Background(), ip, domain, "user@"+domain, "helo."+domain)
}

func TestCheckHostPassIP4(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ip4:192.0.2.0/24 -all"}
	res := check(t, f, ip1, "example.com")
	if res.Result != ResultPass {
		t.Fatalf("result = %s (%v)", res.Result, res.Err)
	}
	if res.Mechanism != "ip4:192.0.2.0/24" {
		t.Errorf("mechanism = %q", res.Mechanism)
	}
}

func TestCheckHostFailAll(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ip4:198.51.100.0/24 -all"}
	res := check(t, f, ip1, "example.com")
	if res.Result != ResultFail || res.Mechanism != "-all" {
		t.Fatalf("result = %s via %q", res.Result, res.Mechanism)
	}
}

func TestCheckHostNoneWithoutRecord(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"unrelated txt"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultNone {
		t.Fatalf("result = %s", res.Result)
	}
	// NXDOMAIN is also none.
	if res := check(t, f, ip1, "missing.example"); res.Result != ResultNone {
		t.Fatalf("nxdomain result = %s", res.Result)
	}
}

func TestCheckHostMultipleRecordsPermError(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 -all", "v=spf1 +all"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPermError {
		t.Fatalf("result = %s", res.Result)
	}
}

func TestCheckHostSyntaxPermError(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 bogus:mech"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPermError {
		t.Fatalf("result = %s", res.Result)
	}
}

// TestCheckHostABNFPermError: records the RFC 7208 ABNF rejects give
// permerror, even where a lenient parse would match or fail.
func TestCheckHostABNFPermError(t *testing.T) {
	for _, rec := range []string{
		"v=spf1 ip4:192.0.2.0/024 -all", // §5.6: no leading zero
		"v=spf1 foo=%{z} -all",          // §4.6.1: value must be a macro-string
		"v=spf1 a:foo.123 -all",         // §7.1: a toplabel is not all digits
	} {
		f := newFakeResolver()
		f.txt["example.com"] = []string{rec}
		if res := check(t, f, ip1, "example.com"); res.Result != ResultPermError {
			t.Errorf("%q: result = %s, want permerror", rec, res.Result)
		}
	}
}

func TestCheckHostTempError(t *testing.T) {
	f := newFakeResolver()
	f.temp["example.com"] = true
	if res := check(t, f, ip1, "example.com"); res.Result != ResultTempError {
		t.Fatalf("result = %s", res.Result)
	}
}

func TestCheckHostAMechanism(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 a -all"}
	f.a["example.com"] = []netip.Addr{ip1}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("a self = %s (%v)", res.Result, res.Err)
	}
	if res := check(t, f, ip2, "example.com"); res.Result != ResultFail {
		t.Fatalf("a mismatch = %s", res.Result)
	}
}

func TestCheckHostATargetAndCIDR(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 a:hosts.example.com/24 -all"}
	f.a["hosts.example.com"] = []netip.Addr{netip.MustParseAddr("192.0.2.99")}
	// 192.0.2.1 is inside 192.0.2.99/24.
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("a/24 = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostMX(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 mx -all"}
	f.mx["example.com"] = []MX{{10, "mail.example.com."}}
	f.a["mail.example.com"] = []netip.Addr{ip1}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("mx = %s (%v)", res.Result, res.Err)
	}
	if res := check(t, f, ip2, "example.com"); res.Result != ResultFail {
		t.Fatalf("mx mismatch = %s", res.Result)
	}
}

func TestCheckHostIP6(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ip6:2001:db8::/32 -all"}
	if res := check(t, f, ip6, "example.com"); res.Result != ResultPass {
		t.Fatalf("ip6 = %s", res.Result)
	}
	// IPv4 client never matches ip6.
	if res := check(t, f, ip1, "example.com"); res.Result != ResultFail {
		t.Fatalf("ip4-vs-ip6 = %s", res.Result)
	}
}

func TestCheckHostInclude(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 include:bar.org -all"}
	f.txt["bar.org"] = []string{"v=spf1 ip4:192.0.2.1 -all"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("include pass = %s (%v)", res.Result, res.Err)
	}
	// Fail inside include does not match; outer -all applies.
	if res := check(t, f, ip2, "example.com"); res.Result != ResultFail {
		t.Fatalf("include fail = %s", res.Result)
	}
}

func TestCheckHostIncludeMissingIsPermError(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 include:absent.org -all"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPermError {
		t.Fatalf("include none = %s", res.Result)
	}
}

func TestCheckHostIncludeTempError(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 include:flaky.org -all"}
	f.temp["flaky.org"] = true
	if res := check(t, f, ip1, "example.com"); res.Result != ResultTempError {
		t.Fatalf("include temperror = %s", res.Result)
	}
}

func TestCheckHostRedirect(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 redirect=_spf.example.com"}
	f.txt["_spf.example.com"] = []string{"v=spf1 ip4:192.0.2.1 -all"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("redirect = %s (%v)", res.Result, res.Err)
	}
	if res := check(t, f, ip2, "example.com"); res.Result != ResultFail {
		t.Fatalf("redirect fail = %s", res.Result)
	}
}

func TestCheckHostRedirectToNothingIsPermError(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 redirect=void.example.net"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPermError {
		t.Fatalf("redirect none = %s", res.Result)
	}
}

func TestCheckHostRedirectIgnoredWhenMechanismMatches(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ip4:192.0.2.1 redirect=void.example.net"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("result = %s", res.Result)
	}
}

func TestCheckHostExists(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 exists:%{ir}.rbl.example.org -all"}
	f.a["1.2.0.192.rbl.example.org"] = []netip.Addr{netip.MustParseAddr("127.0.0.2")}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("exists = %s (%v)", res.Result, res.Err)
	}
	if res := check(t, f, ip2, "example.com"); res.Result != ResultFail {
		t.Fatalf("exists miss = %s", res.Result)
	}
}

func TestCheckHostPTR(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ptr -all"}
	f.ptr[ip1.String()] = []string{"mail.example.com."}
	f.a["mail.example.com"] = []netip.Addr{ip1}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultPass {
		t.Fatalf("ptr = %s (%v)", res.Result, res.Err)
	}
	// PTR exists but forward confirmation fails → no match.
	f2 := newFakeResolver()
	f2.txt["example.com"] = []string{"v=spf1 ptr -all"}
	f2.ptr[ip1.String()] = []string{"mail.example.com."}
	f2.a["mail.example.com"] = []netip.Addr{ip2}
	if res := check(t, f2, ip1, "example.com"); res.Result != ResultFail {
		t.Fatalf("unconfirmed ptr = %s", res.Result)
	}
	// PTR for a different domain → no match.
	f3 := newFakeResolver()
	f3.txt["example.com"] = []string{"v=spf1 ptr -all"}
	f3.ptr[ip1.String()] = []string{"mail.other.net."}
	f3.a["mail.other.net"] = []netip.Addr{ip1}
	if res := check(t, f3, ip1, "example.com"); res.Result != ResultFail {
		t.Fatalf("foreign ptr = %s", res.Result)
	}
}

func TestCheckHostLookupLimit(t *testing.T) {
	f := newFakeResolver()
	// Chain of 12 includes exceeds the 10-term budget.
	for i := 0; i < 12; i++ {
		f.txt[fmt.Sprintf("d%d.example", i)] = []string{
			fmt.Sprintf("v=spf1 include:d%d.example -all", i+1)}
	}
	res := check(t, f, ip1, "d0.example")
	if res.Result != ResultPermError {
		t.Fatalf("deep include chain = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostVoidLookupLimit(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 a:v1.example a:v2.example a:v3.example +all"}
	// All three targets are NXDOMAIN: third void lookup exceeds limit 2.
	res := check(t, f, ip1, "example.com")
	if res.Result != ResultPermError {
		t.Fatalf("void limit = %s (%v)", res.Result, res.Err)
	}
}

func TestCheckHostNeutralDefault(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ip4:198.51.100.1"}
	res := check(t, f, ip1, "example.com")
	if res.Result != ResultNeutral || res.Mechanism != "default" {
		t.Fatalf("default = %s via %q", res.Result, res.Mechanism)
	}
}

func TestCheckHostSoftFailAndNeutralQualifiers(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 ~all"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultSoftFail {
		t.Fatalf("~all = %s", res.Result)
	}
	f.txt["example.com"] = []string{"v=spf1 ?all"}
	if res := check(t, f, ip1, "example.com"); res.Result != ResultNeutral {
		t.Fatalf("?all = %s", res.Result)
	}
}

func TestCheckHostExplanation(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 -all exp=why.example.com"}
	f.txt["why.example.com"] = []string{"%{i} is not allowed to send for %{d}"}
	c := &Checker{Resolver: f}
	res := c.CheckHost(context.Background(), ip1, "example.com", "u@example.com", "h.example.com")
	if res.Result != ResultFail {
		t.Fatalf("result = %s", res.Result)
	}
	if res.Explanation != "192.0.2.1 is not allowed to send for example.com" {
		t.Errorf("explanation = %q", res.Explanation)
	}
}

func TestCheckHostInvalidDomain(t *testing.T) {
	f := newFakeResolver()
	for _, d := range []string{"", "com", strings.Repeat("a", 300), "a..b"} {
		if res := check(t, f, ip1, d); res.Result != ResultNone {
			t.Errorf("CheckHost(%q) = %s, want none", d, res.Result)
		}
	}
}

func TestCheckHostMacroTargetUsesDetectionPolicy(t *testing.T) {
	// End-to-end over the evaluator: the SPFail probe policy triggers a
	// compliant %{d1r} lookup.
	f := newFakeResolver()
	domain := "x7k2.s01.spf-test.dns-lab.org"
	policy := "v=spf1 a:%{d1r}." + domain + " a:b." + domain + " -all"
	f.txt[domain] = []string{policy}
	f.a["x7k2."+domain] = []netip.Addr{} // compliant expansion target
	f.a["b."+domain] = []netip.Addr{}    // liveness target
	c := &Checker{Resolver: f}
	res := c.CheckHost(context.Background(), ip2, domain, "mmj7yzdm0tbk@"+domain, "probe.example")
	if res.Result != ResultFail {
		t.Fatalf("probe policy = %s (%v)", res.Result, res.Err)
	}
	// The compliant expansion must have been queried.
	if _, ok := f.a["x7k2."+domain]; !ok {
		t.Fatal("test setup broken")
	}
}

func TestCheckResultErrSurfacesForPermError(t *testing.T) {
	f := newFakeResolver()
	f.txt["example.com"] = []string{"v=spf1 include:absent.org -all"}
	res := check(t, f, ip1, "example.com")
	if res.Err == nil {
		t.Fatal("permerror should carry an explanatory error")
	}
}

// One Checker serves many evaluations and memoizes parsed policies, so
// back-to-back checks of different policies on a shared Checker must each
// get their own verdict, every time.
func TestCheckHostSharedCheckerAcrossPolicies(t *testing.T) {
	f := newFakeResolver()
	f.txt["pass.example"] = []string{"v=spf1 ip4:192.0.2.0/24 -all"}
	f.txt["fail.example"] = []string{"v=spf1 -all"}
	c := &Checker{Resolver: f}

	for i := 0; i < 8; i++ {
		if r := c.CheckHost(context.Background(), ip1, "pass.example", "a@pass.example", "h1"); r.Result != ResultPass {
			t.Fatalf("iteration %d: pass.example = %s (%v)", i, r.Result, r.Err)
		}
		if r := c.CheckHost(context.Background(), ip1, "fail.example", "b@fail.example", "h2"); r.Result != ResultFail {
			t.Fatalf("iteration %d: fail.example = %s (%v)", i, r.Result, r.Err)
		}
	}
}
