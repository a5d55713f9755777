package spf

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"spfail/internal/trace"
)

// Evaluation limits from RFC 7208 §4.6.4.
const (
	// maxLookups is the budget of DNS-querying terms per check.
	maxLookups = 10
	// maxVoidLookups is the budget of lookups returning no data.
	maxVoidLookups = 2
	// maxMXAddrs caps the MX hosts resolved per mx mechanism.
	maxMXAddrs = 10
	// maxPTRNames caps the PTR targets validated per ptr/%{p}.
	maxPTRNames = 10
	// maxDomainLen is the presentation-format limit for expanded targets.
	maxDomainLen = 253
)

// MX is a mail exchanger as returned by a Resolver, in preference order.
type MX struct {
	Preference uint16
	Host       string
}

// Resolver performs the DNS lookups the evaluator needs. Implementations
// signal nonexistent names with errors matching ErrNotFound and transient
// failures with errors matching ErrTemporary (use errors.Is-compatible
// wrapping).
type Resolver interface {
	LookupTXT(ctx context.Context, name string) ([]string, error)
	// LookupIP resolves addresses; network is "ip", "ip4", or "ip6".
	LookupIP(ctx context.Context, network, name string) ([]netip.Addr, error)
	LookupMX(ctx context.Context, name string) ([]MX, error)
	LookupPTR(ctx context.Context, addr netip.Addr) ([]string, error)
}

// Checker evaluates SPF policies. The zero value is not usable; populate
// Resolver. All other fields have working defaults.
//
// A Checker is safe for concurrent use and memoizes parsed policy records
// (see cache.go), so callers on hot paths should reuse one Checker per
// resolver/behavior pair instead of constructing one per evaluation.
type Checker struct {
	Resolver Resolver
	// Expander performs macro expansion; nil means the RFC-compliant
	// Expander. The SPFail vulnerability study swaps this for the buggy
	// implementations in internal/spfimpl.
	Expander MacroExpander
	// Receiver is this host's domain, used in %{r} explanation text.
	Receiver string
	// Now supplies %{t}; nil means time.Now.
	Now func() time.Time
	// SkipMacroMechanisms makes mechanisms whose domain-spec contains a
	// macro never match and consume no lookup — modeling the partial
	// implementations §7.9 observed that resolve only macro-free terms.
	SkipMacroMechanisms bool

	// records memoizes Parse results keyed by policy text (bounded; see
	// cache.go). Parsing is pure, so sharing cached records across
	// concurrent evaluations is safe — records are immutable after parse.
	records recordCache

	// ptrOnce/ptrFn cache the Resolver.LookupPTR method value so building
	// the per-evaluation MacroEnv does not allocate a closure per check.
	ptrOnce sync.Once
	ptrFn   func(ctx context.Context, addr netip.Addr) ([]string, error)
}

// CheckResult is the outcome of CheckHost.
type CheckResult struct {
	Result Result
	// Mechanism is the matched mechanism's text, "default" when no
	// mechanism matched, or "" for none/temperror/permerror.
	Mechanism string
	// Explanation carries expanded exp= text on fail, when available.
	Explanation string
	// Err explains temperror/permerror results.
	Err error
}

func (c *Checker) expander() MacroExpander {
	if c.Expander != nil {
		return c.Expander
	}
	return Expander{}
}

// CheckHost implements check_host() (RFC 7208 §4): it evaluates the policy
// of domain for a message from sender arriving from ip, with helo as the
// SMTP HELO/EHLO identity.
//
//spfail:hotpath
func (c *Checker) CheckHost(ctx context.Context, ip netip.Addr, domain, sender, helo string) CheckResult {
	if !validDomain(domain) {
		//spfail:allow hotpathalloc terminal validation failure; the evaluation never starts
		return CheckResult{Result: ResultNone, Err: fmt.Errorf("spf: invalid domain %q", domain)}
	}
	//spfail:allow hotpathalloc sync.Once initialization closure runs once per Checker lifetime
	c.ptrOnce.Do(func() {
		if c.Resolver != nil {
			c.ptrFn = c.Resolver.LookupPTR
		}
	})
	s := &session{}
	s.c, s.ctx = c, ctx
	s.env = MacroEnv{
		Sender:    sender,
		IP:        ip,
		HELO:      helo,
		Receiver:  c.Receiver,
		Now:       c.Now,
		LookupPTR: c.ptrFn,
	}
	return s.check(domain)
}

// session carries per-check state shared across include/redirect recursion.
// It never outlives its CheckHost call, so escape analysis keeps it on the
// stack.
type session struct {
	c       *Checker
	ctx     context.Context
	lookups int
	voids   int
	depth   int // include/redirect recursion depth, for tracing
	env     MacroEnv
}

// errBudget marks lookup-limit exhaustion (maps to permerror).
var errBudget = errors.New("spf: DNS lookup limit exceeded")

func (s *session) countLookup() error {
	s.lookups++
	if s.lookups > maxLookups {
		return errBudget
	}
	return nil
}

// countVoid records a returned-no-data lookup.
func (s *session) countVoid() error {
	s.voids++
	if s.voids > maxVoidLookups {
		return fmt.Errorf("%w: void lookup limit exceeded", errBudget)
	}
	return nil
}

// check wraps checkInner with the per-evaluation trace span. Include and
// redirect recursion re-enters here, so nested policies produce nested
// spf.check_host spans with increasing depth; s.ctx is swapped for the
// span-carrying context for the duration so DNS-layer events nest underneath.
func (s *session) check(domain string) CheckResult {
	prevCtx := s.ctx
	ctx, sp := trace.StartSpan(s.ctx, "spf.check_host")
	if sp != nil {
		sp.SetAttrs(trace.String("domain", domain), trace.Int("depth", s.depth))
		s.ctx = ctx
	}
	s.depth++
	out := s.checkInner(domain)
	s.depth--
	if sp != nil {
		sp.SetAttrs(trace.String("result", string(out.Result)))
		if out.Mechanism != "" {
			sp.SetAttrs(trace.String("mechanism", out.Mechanism))
		}
		if out.Err != nil {
			sp.SetAttrs(trace.String("error", out.Err.Error()))
		}
		sp.End()
		s.ctx = prevCtx
	}
	return out
}

func (s *session) checkInner(domain string) CheckResult {
	rec, res := s.fetchRecord(domain)
	if rec == nil {
		return res
	}
	s.env.Domain = domain

	for i := range rec.Mechanisms {
		m := &rec.Mechanisms[i]
		prevCtx := s.ctx
		mctx, msp := trace.StartSpan(s.ctx, "spf.mechanism")
		if msp != nil {
			msp.SetAttrs(trace.String("term", m.String()))
			s.ctx = mctx
		}
		matched, err := s.matches(m, domain)
		if msp != nil {
			msp.SetAttrs(trace.Bool("matched", matched))
			if err != nil {
				msp.SetAttrs(trace.String("error", err.Error()))
			}
			msp.End()
			s.ctx = prevCtx
		}
		if err != nil {
			return s.errorResult(err)
		}
		if matched {
			out := CheckResult{Result: m.Qualifier.Result(), Mechanism: m.String()}
			if out.Result == ResultFail && rec.Exp != "" {
				out.Explanation = s.explanation(rec.Exp, domain)
			}
			return out
		}
	}

	if rec.Redirect != "" {
		if err := s.countLookup(); err != nil {
			return s.errorResult(err)
		}
		target, err := s.expandDomain(rec.Redirect, domain)
		if err != nil {
			return s.errorResult(err)
		}
		out := s.check(target)
		if out.Result == ResultNone {
			out = CheckResult{Result: ResultPermError,
				Err: fmt.Errorf("spf: redirect target %q has no policy", target)}
		}
		return out
	}
	return CheckResult{Result: ResultNeutral, Mechanism: "default"}
}

// fetchRecord retrieves and parses the policy for domain. A nil record
// means the returned CheckResult is final. Parsed records are memoized on
// the Checker keyed by policy text, so repeated evaluations of stable
// policies (the common real-world shape) skip Parse entirely.
func (s *session) fetchRecord(domain string) (*Record, CheckResult) {
	txts, err := s.c.Resolver.LookupTXT(s.ctx, domain)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, CheckResult{Result: ResultNone}
		}
		return nil, CheckResult{Result: ResultTempError, Err: err}
	}
	policy, npolicies := "", 0
	for _, t := range txts {
		if IsSPFRecord(t) {
			if npolicies++; npolicies == 1 {
				policy = t
			}
		}
	}
	switch npolicies {
	case 0:
		return nil, CheckResult{Result: ResultNone}
	case 1:
	default:
		return nil, CheckResult{Result: ResultPermError,
			Err: fmt.Errorf("spf: %d SPF records for %q", npolicies, domain)}
	}
	rec, err := s.c.records.parse(policy)
	if err != nil {
		return nil, CheckResult{Result: ResultPermError, Err: err}
	}
	return rec, CheckResult{}
}

// errorResult maps an evaluation error onto temperror/permerror.
func (s *session) errorResult(err error) CheckResult {
	if errors.Is(err, ErrTemporary) {
		return CheckResult{Result: ResultTempError, Err: err}
	}
	return CheckResult{Result: ResultPermError, Err: err}
}

// expandDomain expands a domain-spec macro-string against the current
// domain and applies the RFC 7208 §7.3 length truncation. Macro-free specs
// under the compliant expander short-circuit: the RFC expander is the
// identity on strings without '%', so no tokenization or scratch is needed.
// Swapped-in expanders (internal/spfimpl's buggy variants) always run, as
// their divergence from the RFC is exactly what the study measures.
func (s *session) expandDomain(spec, current string) (string, error) {
	var out string
	if s.c.Expander == nil && !strings.Contains(spec, "%") {
		out = spec
	} else {
		env := s.env
		env.Domain = current
		expanded, err := s.c.expander().Expand(s.ctx, spec, &env, false)
		if err != nil {
			return "", err
		}
		out = expanded
	}
	out = strings.TrimSuffix(out, ".")
	for len(out) > maxDomainLen {
		dot := strings.IndexByte(out, '.')
		if dot < 0 {
			break
		}
		out = out[dot+1:]
	}
	if strings.Contains(spec, "%") {
		if sp := trace.SpanFromContext(s.ctx); sp != nil {
			sp.Event("spf.macro_expand", trace.String("spec", spec), trace.String("expanded", out))
		}
	}
	return out, nil
}

// matches evaluates one mechanism.
func (s *session) matches(m *Mechanism, domain string) (bool, error) {
	if s.c.SkipMacroMechanisms && strings.Contains(m.Domain, "%") {
		return false, nil
	}
	switch m.Kind {
	case MechAll:
		return true, nil
	case MechIP4, MechIP6:
		return matchIP(s.env.IP, m), nil
	case MechInclude:
		return s.matchInclude(m, domain)
	case MechA:
		return s.matchA(m, domain)
	case MechMX:
		return s.matchMX(m, domain)
	case MechExists:
		return s.matchExists(m, domain)
	case MechPTR:
		return s.matchPTR(m, domain)
	}
	return false, fmt.Errorf("spf: unknown mechanism kind %q", m.Kind)
}

func (s *session) matchInclude(m *Mechanism, domain string) (bool, error) {
	if err := s.countLookup(); err != nil {
		return false, err
	}
	target, err := s.expandDomain(m.Domain, domain)
	if err != nil {
		return false, err
	}
	sub := s.check(target)
	switch sub.Result {
	case ResultPass:
		return true, nil
	case ResultFail, ResultSoftFail, ResultNeutral:
		return false, nil
	case ResultTempError:
		return false, fmt.Errorf("%w: include %q", ErrTemporary, target)
	default: // none, permerror
		return false, fmt.Errorf("spf: include %q evaluated to %s", target, sub.Result)
	}
}

// targetDomain resolves a mechanism's effective domain.
func (s *session) targetDomain(m *Mechanism, domain string) (string, error) {
	if m.Domain == "" {
		return domain, nil
	}
	return s.expandDomain(m.Domain, domain)
}

func (s *session) matchA(m *Mechanism, domain string) (bool, error) {
	if err := s.countLookup(); err != nil {
		return false, err
	}
	target, err := s.targetDomain(m, domain)
	if err != nil {
		return false, err
	}
	addrs, err := s.lookupIPCounted(target)
	if err != nil {
		return false, err
	}
	return anyPrefixMatch(s.env.IP, addrs, m), nil
}

func (s *session) matchMX(m *Mechanism, domain string) (bool, error) {
	if err := s.countLookup(); err != nil {
		return false, err
	}
	target, err := s.targetDomain(m, domain)
	if err != nil {
		return false, err
	}
	mxs, err := s.c.Resolver.LookupMX(s.ctx, target)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			if verr := s.countVoid(); verr != nil {
				return false, verr
			}
			return false, nil
		}
		return false, fmt.Errorf("%w: MX %q: %v", ErrTemporary, target, err)
	}
	if len(mxs) > maxMXAddrs {
		return false, fmt.Errorf("spf: more than %d MX records for %q", maxMXAddrs, target)
	}
	for _, mx := range mxs {
		addrs, err := s.lookupIPNoVoid(strings.TrimSuffix(mx.Host, "."))
		if err != nil {
			return false, err
		}
		if anyPrefixMatch(s.env.IP, addrs, m) {
			return true, nil
		}
	}
	return false, nil
}

func (s *session) matchExists(m *Mechanism, domain string) (bool, error) {
	if err := s.countLookup(); err != nil {
		return false, err
	}
	target, err := s.expandDomain(m.Domain, domain)
	if err != nil {
		return false, err
	}
	// exists: always queries A regardless of the client address family.
	addrs, err := s.c.Resolver.LookupIP(s.ctx, "ip4", target)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			if verr := s.countVoid(); verr != nil {
				return false, verr
			}
			return false, nil
		}
		return false, fmt.Errorf("%w: exists %q: %v", ErrTemporary, target, err)
	}
	if len(addrs) == 0 {
		if verr := s.countVoid(); verr != nil {
			return false, verr
		}
		return false, nil
	}
	return true, nil
}

func (s *session) matchPTR(m *Mechanism, domain string) (bool, error) {
	if err := s.countLookup(); err != nil {
		return false, err
	}
	target := domain
	if m.Domain != "" {
		var err error
		if target, err = s.expandDomain(m.Domain, domain); err != nil {
			return false, err
		}
	}
	names, err := s.c.Resolver.LookupPTR(s.ctx, s.env.IP)
	if err != nil {
		// Any PTR failure means no match, not an error (RFC 7208 §5.5).
		return false, nil
	}
	if len(names) > maxPTRNames {
		names = names[:maxPTRNames]
	}
	for _, n := range names {
		host := strings.TrimSuffix(n, ".")
		addrs, err := s.c.Resolver.LookupIP(s.ctx, ipNetwork(s.env.IP), host)
		if err != nil {
			continue
		}
		var confirmed bool
		for _, a := range addrs {
			if a == s.env.IP {
				confirmed = true
				break
			}
		}
		if !confirmed {
			continue
		}
		if domainIsSuffix(host, target) {
			return true, nil
		}
	}
	return false, nil
}

// lookupIPCounted resolves addresses in the client's family, counting void
// results against the void-lookup budget.
func (s *session) lookupIPCounted(target string) ([]netip.Addr, error) {
	addrs, err := s.c.Resolver.LookupIP(s.ctx, ipNetwork(s.env.IP), target)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			if verr := s.countVoid(); verr != nil {
				return nil, verr
			}
			return nil, nil
		}
		return nil, fmt.Errorf("%w: A/AAAA %q: %v", ErrTemporary, target, err)
	}
	if len(addrs) == 0 {
		if verr := s.countVoid(); verr != nil {
			return nil, verr
		}
	}
	return addrs, nil
}

// lookupIPNoVoid resolves MX target hosts; empty answers are not void
// lookups per §4.6.4 (the MX lookup itself was counted).
func (s *session) lookupIPNoVoid(target string) ([]netip.Addr, error) {
	addrs, err := s.c.Resolver.LookupIP(s.ctx, ipNetwork(s.env.IP), target)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: A/AAAA %q: %v", ErrTemporary, target, err)
	}
	return addrs, nil
}

// explanation fetches and expands the exp= text; failures yield "".
func (s *session) explanation(spec, domain string) string {
	target, err := s.expandDomain(spec, domain)
	if err != nil {
		return ""
	}
	txts, err := s.c.Resolver.LookupTXT(s.ctx, target)
	if err != nil || len(txts) != 1 {
		return ""
	}
	env := s.env
	env.Domain = domain
	out, err := s.c.expander().Expand(s.ctx, txts[0], &env, true)
	if err != nil {
		return ""
	}
	return out
}

// matchIP implements ip4/ip6 prefix matching.
func matchIP(client netip.Addr, m *Mechanism) bool {
	if !client.IsValid() || !m.IP.IsValid() {
		return false
	}
	client = client.Unmap()
	if client.Is4() != m.IP.Is4() {
		return false
	}
	bits := m.Prefix4
	full := 32
	if m.Kind == MechIP6 {
		bits = m.Prefix6
		full = 128
	}
	if bits < 0 {
		bits = full
	}
	p, err := m.IP.Prefix(bits)
	if err != nil {
		return false
	}
	return p.Contains(client)
}

// anyPrefixMatch applies the dual-CIDR comparison of a/mx mechanisms.
func anyPrefixMatch(client netip.Addr, addrs []netip.Addr, m *Mechanism) bool {
	if !client.IsValid() {
		return false
	}
	client = client.Unmap()
	bits := m.Prefix4
	full := 32
	if client.Is6() {
		bits = m.Prefix6
		full = 128
	}
	if bits < 0 {
		bits = full
	}
	for _, a := range addrs {
		a = a.Unmap()
		if a.Is4() != client.Is4() {
			continue
		}
		p, err := a.Prefix(bits)
		if err != nil {
			continue
		}
		if p.Contains(client) {
			return true
		}
	}
	return false
}

// ipNetwork returns the LookupIP network selector for the client family.
func ipNetwork(a netip.Addr) string {
	if a.Unmap().Is4() {
		return "ip4"
	}
	return "ip6"
}

// domainIsSuffix reports whether child equals parent or is a subdomain of
// it (case-insensitive, ignoring trailing dots).
func domainIsSuffix(child, parent string) bool {
	c := strings.ToLower(strings.TrimSuffix(child, "."))
	p := strings.ToLower(strings.TrimSuffix(parent, "."))
	if c == p {
		return true
	}
	return strings.HasSuffix(c, "."+p)
}

// validDomain applies the sanity checks of RFC 7208 §4.3. It scans labels
// in place rather than splitting, so the per-evaluation entry check never
// allocates.
func validDomain(domain string) bool {
	domain = strings.TrimSuffix(domain, ".")
	if domain == "" || len(domain) > maxDomainLen {
		return false
	}
	labels, start := 0, 0
	for i := 0; i <= len(domain); i++ {
		if i < len(domain) && domain[i] != '.' {
			continue
		}
		if l := i - start; l == 0 || l > 63 {
			return false
		}
		labels++
		start = i + 1
	}
	return labels >= 2 // must have at least two labels to be checkable
}
