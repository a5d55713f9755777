// Package population generates the synthetic Internet the SPFail
// reproduction measures: the domain sets (Alexa Top List, Alexa Top 1000,
// 2-Week MX, Top Email Providers) with the overlaps and TLD mixes of
// Tables 1–2, the mail-host population behind them with the reachability
// and SPF-behaviour mix of Tables 3–4, rank-dependent vulnerability
// (Figure 4), per-TLD patch propensities (Table 5), and the event-driven
// patch/notification/blacklist plans that shape the longitudinal series
// (Figures 5–8).
//
// Per the substitution rule in DESIGN.md, the generator is calibrated to
// the paper's observed marginals; the measurement pipeline never reads
// generator internals — it probes the resulting hosts over the wire.
package population

import (
	"fmt"
	"strings"
	"time"
)

// Study timeline (paper §5.3/§6.4). All midnight UTC.
var (
	TInitial      = time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC)
	TLongitudinal = time.Date(2021, 10, 26, 0, 0, 0, 0, time.UTC)
	TNotification = time.Date(2021, 11, 15, 0, 0, 0, 0, time.UTC)
	TPause        = time.Date(2021, 11, 30, 0, 0, 0, 0, time.UTC)
	TResume       = time.Date(2022, 1, 15, 0, 0, 0, 0, time.UTC)
	TDisclosure   = time.Date(2022, 1, 19, 0, 0, 0, 0, time.UTC)
	TEnd          = time.Date(2022, 2, 14, 0, 0, 0, 0, time.UTC)
)

// SetFunnel holds the per-address outcome rates for one domain set,
// matching the funnel of Table 3.
type SetFunnel struct {
	// RefuseTCP is the fraction of addresses accepting no connection.
	RefuseTCP float64
	// SMTPFailure is the fraction of *connected* addresses that fail the
	// dialogue outright (421 at banner).
	SMTPFailure float64
	// ValidateAtMailFrom is the fraction of connected addresses whose SPF
	// runs at MAIL FROM (measurable by NoMsg).
	ValidateAtMailFrom float64
	// ValidateAtData is the fraction of the *remaining* connected
	// addresses (those reaching the BlankMsg rung) that validate at
	// end-of-data.
	ValidateAtData float64
	// BlankMsgFailure is the fraction of BlankMsg-rung addresses that
	// fail at the message stage.
	BlankMsgFailure float64
}

// BehaviorMix describes the macro-expansion behaviour mix among
// SPF-validating addresses in a set (Table 4 / Table 7).
type BehaviorMix struct {
	// Vulnerable is the fraction running unpatched libSPF2.
	Vulnerable float64
	// ErroneousOther is the fraction with some other non-compliant
	// expansion; the remainder is compliant.
	ErroneousOther float64
	// MultiImpl is the fraction running a second, different SPF
	// implementation on the same box (≥2 expansion patterns).
	MultiImpl float64
	// SkipMacros is the fraction that resolve only macro-free terms
	// (observable solely through the probe policy's liveness mechanism).
	SkipMacros float64
	// ErroneousSplit apportions ErroneousOther across the non-vulnerable
	// error classes; must sum to 1.
	NoExpansion float64
	NoTruncate  float64
	NoReverse   float64
	RawValue    float64
}

// TLDShare is one row of a TLD frequency table.
type TLDShare struct {
	TLD   string
	Share float64
}

// PatchProfile captures a TLD's patching behaviour (Table 5).
type PatchProfile struct {
	// Rate is the probability an initially vulnerable host patches by
	// the study's end.
	Rate float64
	// ProactiveShare is, of patching hosts, the fraction patching in the
	// pre-notification window (za: ~98%).
	ProactiveShare float64
}

// Spec parameterizes world generation. DefaultSpec returns values
// calibrated to the paper; Scale shrinks all set sizes proportionally.
// Call Validate before handing a hand-built Spec to Generate: Generate
// panics on an invalid spec rather than silently fixing it up.
type Spec struct {
	// Seed drives every random draw; same seed, same world.
	Seed int64
	// Scale multiplies all set sizes (1.0 = the paper's population).
	// Must be positive; per-set minimum floors keep tiny worlds usable.
	Scale float64

	// Scenarios is the misconfiguration mix applied after base
	// generation: each ref assigns its pack to a deterministic,
	// weight-sized fraction of eligible domains (top providers are
	// exempt). Empty means a pure baseline world. The base world is
	// bit-identical with and without scenarios; packs only add policy
	// records and zone content on top.
	Scenarios []ScenarioPackRef

	// Set sizes at Scale = 1.0 (Table 1 diagonal).
	AlexaTopListSize int
	Alexa1000Size    int
	TwoWeekMXSize    int
	TopProviderSize  int

	// Overlaps at Scale = 1.0 (Table 1 off-diagonal).
	OverlapAlexaTwoWeek     int // domains in both Alexa Top List and 2-Week MX
	OverlapAlexa1000TwoWeek int // domains in both Alexa 1000 and 2-Week MX

	// DedicatedHostShare is the fraction of domains hosted on their own
	// address; the rest share provider infrastructure (calibrates the
	// domains-per-address ratio of Table 3).
	DedicatedHostShare float64
	// SharedProvidersPerDomain scales the shared-provider pool size.
	SharedProvidersPerDomain float64

	// Funnels per set.
	AlexaFunnel   SetFunnel
	TwoWeekFunnel SetFunnel

	// Behaviour mixes per set.
	AlexaMix   BehaviorMix
	TwoWeekMix BehaviorMix

	// RankEffect is the multiplicative vulnerability spread across ranks:
	// the bottom of the list is RankEffect× more likely vulnerable than
	// the top (Figure 4a shows ≈2).
	RankEffect float64

	// TLD shares per set (Table 2); remainders spread over a long tail.
	AlexaTLDs   []TLDShare
	TwoWeekTLDs []TLDShare

	// PatchProfiles keyed by TLD; "" is the default profile.
	PatchProfiles map[string]PatchProfile

	// PatchTimingDisclosureShare is, for non-proactive patchers, the
	// fraction patching after public disclosure (vs. during the
	// notification window).
	PatchTimingDisclosureShare float64
	// TwoWeekRateBoost and TwoWeekProactiveBoost raise the patch rate
	// and its proactive share for hosts serving only 2-Week MX domains —
	// operationally active mail domains patched earlier and more
	// (Figure 6: −10% in window 1 vs Alexa's −4%).
	TwoWeekRateBoost      float64
	TwoWeekProactiveBoost float64

	// BlacklistShare is the fraction of initially vulnerable hosts that
	// begin rejecting probe sessions partway through the study
	// (Figure 5's inconclusive growth).
	BlacklistShare float64
	// Alexa1000BlacklistShare is the same for Alexa Top 1000 hosts,
	// which went dark much more aggressively (Figure 8).
	Alexa1000BlacklistShare float64
	// Alexa1000PatchRate caps patching among Alexa 1000 domains (<10%,
	// and effectively invisible until the final snapshot — §7.5).
	Alexa1000PatchRate float64

	// NotificationBounceRate is the fraction of notification emails
	// returned undelivered (31.6%).
	NotificationBounceRate float64
	// NotificationOpenRate is the fraction of delivered notifications
	// opened (12%).
	NotificationOpenRate float64
	// GreylistShare is the fraction of hosts that greylist first
	// delivery attempts.
	GreylistShare float64
	// DMARCEnforceShare is the fraction of validating hosts that honor
	// sender DMARC policies at end-of-data (these reject the study's
	// blank probes rather than delivering them, per §6.2).
	DMARCEnforceShare float64
	// FlakyShare is the fraction of hosts with intermittent availability
	// (sessions randomly answered 421) — the source of the fluctuating
	// conclusiveness in Figure 5.
	FlakyShare float64
	// FlakyRate is the per-session failure probability of flaky hosts.
	FlakyRate float64
	// RejectOnFailShare is the fraction of validating hosts rejecting
	// the transaction when SPF fails.
	RejectOnFailShare float64
}

// DefaultSpec returns the paper-calibrated specification.
func DefaultSpec() Spec {
	return Spec{
		Seed:  1,
		Scale: 0.05,

		AlexaTopListSize: 418842,
		Alexa1000Size:    1000,
		TwoWeekMXSize:    22911,
		TopProviderSize:  20,

		OverlapAlexaTwoWeek:     2922,
		OverlapAlexa1000TwoWeek: 135,

		DedicatedHostShare:       0.40,
		SharedProvidersPerDomain: 0.02,

		// Alexa Top List address funnel (Table 3): 47% refused; of the
		// 93,164 connected — 37% SMTP failure, 13% SPF at NoMsg; of the
		// 46,469 reaching BlankMsg — 58% measured, 4.8% failed.
		AlexaFunnel: SetFunnel{
			RefuseTCP:          0.47,
			SMTPFailure:        0.367,
			ValidateAtMailFrom: 0.134,
			ValidateAtData:     0.584,
			BlankMsgFailure:    0.048,
		},
		// 2-Week MX funnel: 25% refused; of connected — 24% failure,
		// 23% at MAIL FROM; of BlankMsg rung — 53% measured, 7.9% failed.
		TwoWeekFunnel: SetFunnel{
			RefuseTCP:          0.25,
			SMTPFailure:        0.241,
			ValidateAtMailFrom: 0.232,
			ValidateAtData:     0.526,
			BlankMsgFailure:    0.079,
		},

		// Table 4: ~1 in 6 measured Alexa IPs vulnerable; 1 in 10 for
		// 2-Week MX; ~6% other-erroneous; ~6% multi-implementation.
		AlexaMix: BehaviorMix{
			Vulnerable:     0.175,
			ErroneousOther: 0.062,
			MultiImpl:      0.06,
			SkipMacros:     0.02,
			NoExpansion:    0.40,
			NoTruncate:     0.25,
			NoReverse:      0.15,
			RawValue:       0.20,
		},
		TwoWeekMix: BehaviorMix{
			Vulnerable:     0.10,
			ErroneousOther: 0.065,
			MultiImpl:      0.06,
			SkipMacros:     0.02,
			NoExpansion:    0.40,
			NoTruncate:     0.25,
			NoReverse:      0.15,
			RawValue:       0.20,
		},

		RankEffect: 2.0,

		AlexaTLDs: []TLDShare{
			{"com", 0.5511}, {"ru", 0.0474}, {"ir", 0.0411}, {"net", 0.0398},
			{"org", 0.0344}, {"in", 0.0188}, {"io", 0.0122}, {"au", 0.0112},
			{"vn", 0.0103}, {"co", 0.0101}, {"ua", 0.0099}, {"tr", 0.0098},
			{"uk", 0.0082}, {"id", 0.0072}, {"ca", 0.0068},
			// Long tail including the patch-rate table's TLDs.
			{"de", 0.0062}, {"br", 0.0060}, {"pl", 0.0055}, {"fr", 0.0050},
			{"it", 0.0048}, {"jp", 0.0045}, {"nl", 0.0040}, {"es", 0.0038},
			{"cz", 0.0035}, {"kr", 0.0032}, {"cn", 0.0030}, {"tw", 0.0026},
			{"il", 0.0024}, {"gr", 0.0022}, {"mx", 0.0022}, {"ar", 0.0020},
			{"by", 0.0015}, {"za", 0.0035}, {"eu", 0.0018}, {"us", 0.0090},
		},
		TwoWeekTLDs: []TLDShare{
			{"com", 0.4880}, {"org", 0.1722}, {"edu", 0.0920}, {"net", 0.0629},
			{"us", 0.0361}, {"gov", 0.0111}, {"uk", 0.0105}, {"cam", 0.0101},
			{"ca", 0.0075}, {"de", 0.0065}, {"work", 0.0062}, {"cn", 0.0043},
			{"au", 0.0040}, {"it", 0.0039}, {"top", 0.0038},
			{"ru", 0.0035}, {"ir", 0.0030}, {"tr", 0.0028}, {"za", 0.0012},
			{"gr", 0.0010}, {"tw", 0.0012}, {"il", 0.0012}, {"by", 0.0008},
			{"eu", 0.0010}, {"fr", 0.0020}, {"jp", 0.0015},
		},

		// Table 5 plus the com benchmark; "" is the long-tail default.
		PatchProfiles: map[string]PatchProfile{
			"za":  {Rate: 0.79, ProactiveShare: 0.98},
			"gr":  {Rate: 0.75, ProactiveShare: 0.30},
			"de":  {Rate: 0.46, ProactiveShare: 0.25},
			"eu":  {Rate: 0.29, ProactiveShare: 0.20},
			"tr":  {Rate: 0.28, ProactiveShare: 0.20},
			"com": {Rate: 0.20, ProactiveShare: 0.35},
			"ir":  {Rate: 0.03, ProactiveShare: 0.10},
			"il":  {Rate: 0.03, ProactiveShare: 0.10},
			"by":  {Rate: 0.02, ProactiveShare: 0.10},
			"ru":  {Rate: 0.02, ProactiveShare: 0.10},
			"tw":  {Rate: 0.00, ProactiveShare: 0},
			"":    {Rate: 0.16, ProactiveShare: 0.35},
		},
		PatchTimingDisclosureShare: 0.85,
		TwoWeekRateBoost:           1.4,
		TwoWeekProactiveBoost:      2.0,

		BlacklistShare:          0.07,
		Alexa1000BlacklistShare: 0.55,
		Alexa1000PatchRate:      0.08,

		NotificationBounceRate: 0.316,
		NotificationOpenRate:   0.12,
		GreylistShare:          0.05,
		DMARCEnforceShare:      0.40,
		FlakyShare:             0.15,
		FlakyRate:              0.35,
		RejectOnFailShare:      0.30,
	}
}

// Validate reports whether the spec can be generated. It replaces the
// silent fixups Generate used to apply: callers constructing specs from
// untrusted input (flags, config files) should call it and surface the
// error; Generate itself panics on an invalid spec.
func (s Spec) Validate() error {
	if s.Scale <= 0 {
		return fmt.Errorf("population: Spec.Scale must be positive, got %g", s.Scale)
	}
	total := 0.0
	seen := make(map[string]bool, len(s.Scenarios))
	for _, ref := range s.Scenarios {
		if ref.Name == "" {
			return fmt.Errorf("population: scenario ref with empty pack name")
		}
		p, ok := PackByName(ref.Name)
		if !ok {
			return fmt.Errorf("population: unknown scenario pack %q (packs: %s)",
				ref.Name, strings.Join(PackNames(), ", "))
		}
		if seen[ref.Name] {
			return fmt.Errorf("population: scenario pack %q listed twice", ref.Name)
		}
		seen[ref.Name] = true
		w := ref.refWeight(p)
		if w <= 0 || w > 1 {
			return fmt.Errorf("population: scenario pack %q: weight %g outside (0,1]", ref.Name, w)
		}
		total += w
	}
	if total > 1 {
		return fmt.Errorf("population: scenario weights sum to %g, must not exceed 1", total)
	}
	return nil
}

// scaled applies Scale to a base count, with a floor of min.
func (s *Spec) scaled(base, min int) int {
	n := int(float64(base)*s.Scale + 0.5)
	if n < min {
		n = min
	}
	return n
}
