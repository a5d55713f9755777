package population

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/geo"
	"spfail/internal/mta"
	"spfail/internal/netsim"
	"spfail/internal/spfimpl"
	"spfail/internal/trace"
)

// Set is a bitmask of domain-set membership.
type Set uint8

// The four domain sets of the study.
const (
	SetAlexaTopList Set = 1 << iota
	SetAlexa1000
	SetTwoWeekMX
	SetTopProviders
)

// Has reports whether s includes the given set bit.
func (s Set) Has(bit Set) bool { return s&bit != 0 }

// String implements fmt.Stringer.
func (s Set) String() string {
	names := ""
	add := func(n string) {
		if names != "" {
			names += "+"
		}
		names += n
	}
	if s.Has(SetAlexaTopList) {
		add("alexa")
	}
	if s.Has(SetAlexa1000) {
		add("alexa1000")
	}
	if s.Has(SetTwoWeekMX) {
		add("2weekmx")
	}
	if s.Has(SetTopProviders) {
		add("providers")
	}
	if names == "" {
		return "none"
	}
	return names
}

// PatchChannel says what drove a host's patch.
type PatchChannel string

// Patch channels observed in the study.
const (
	PatchNone         PatchChannel = "none"
	PatchProactive    PatchChannel = "proactive"
	PatchNotification PatchChannel = "notification"
	PatchDisclosure   PatchChannel = "disclosure"
	PatchSnapshotOnly PatchChannel = "snapshot-only"
)

// Domain is one measured email domain.
type Domain struct {
	Name string
	TLD  string
	// Rank is the Alexa rank (1-based); 0 for 2-Week-MX-only domains.
	Rank int
	// MXQueries is the 2-Week MX usage metric (DNS MX query count).
	MXQueries int
	Sets      Set
	// Hosts are the domain's mail server addresses (MX targets, or the
	// A fallback when HasMX is false).
	Hosts []netip.Addr
	HasMX bool
	// Provider is the shared-hosting provider id, "" when dedicated.
	Provider string
	// Scenario is the ScenarioPack applied to this domain ("" baseline).
	Scenario string
	// SPF holds the SPF policy TXT records published at the apex.
	// Baseline domains publish none; scenario packs populate it.
	SPF []string
	// DMARC is the record published at _dmarc.<Name> ("" none).
	DMARC string
	// Extra holds additional scenario-generated records (include-chain
	// targets, subdomain policies, …) served by the domain's zone.
	Extra []ZoneRecord
}

// ZoneRecord is one extra DNS record a scenario pack publishes under a
// domain: a TXT payload, an address record, or both on the same owner.
type ZoneRecord struct {
	// Owner is the fully-qualified owner name.
	Owner string
	// TXT, when non-empty, adds a TXT record with this payload.
	TXT string
	// Addr, when valid, adds an A/AAAA record.
	Addr netip.Addr
}

// HostSpec is the ground-truth behaviour plan for one mail-server address.
type HostSpec struct {
	Addr    netip.Addr
	Country geo.Country
	// Listens is false for addresses refusing TCP entirely.
	Listens bool
	// RefuseSMTP makes the host 421 every session.
	RefuseSMTP bool
	// ValidateAt is the SPF trigger point (never when no validation).
	ValidateAt mta.ValidationPoint
	// Behaviors is the SPF implementation stack (ground truth).
	Behaviors []spfimpl.Behavior
	// BlankMsgFails makes the host reject at the message stage.
	BlankMsgFails bool
	Greylist      bool
	RejectOnFail  bool
	// Distro is the package source for libSPF2 (Table 6 uptake).
	Distro string
	// PatchAt is when the host upgrades (zero: never).
	PatchAt  time.Time
	PatchVia PatchChannel
	// BlacklistProbesAt is when the host starts rejecting probe sessions
	// (zero: never).
	BlacklistProbesAt time.Time
	// BlacklistProbesUntil ends the blacklist window (zero: never lifts).
	// Alexa 1000 hosts lift theirs before the final snapshot (§7.5).
	BlacklistProbesUntil time.Time
	// EnforceDMARC makes the host honor sender DMARC policies at
	// end-of-data (discarding the study's blank probes, §6.2).
	EnforceDMARC bool
	// FlakyRate is the per-session probability of a 421 (zero: stable).
	FlakyRate float64
	// FlakySeed feeds the host's deterministic flakiness stream.
	FlakySeed int64
}

// Vulnerable reports ground-truth vulnerability at time t.
func (h *HostSpec) Vulnerable(t time.Time) bool {
	if !h.PatchAt.IsZero() && !t.Before(h.PatchAt) {
		return false
	}
	for _, b := range h.Behaviors {
		if b.Vulnerable() {
			return true
		}
	}
	return false
}

// EverVulnerable reports whether the host starts out vulnerable.
func (h *HostSpec) EverVulnerable() bool {
	for _, b := range h.Behaviors {
		if b.Vulnerable() {
			return true
		}
	}
	return false
}

// BehaviorsAt returns the implementation stack effective at time t.
func (h *HostSpec) BehaviorsAt(t time.Time) []spfimpl.Behavior {
	out := append([]spfimpl.Behavior(nil), h.Behaviors...)
	if !h.PatchAt.IsZero() && !t.Before(h.PatchAt) {
		for i, b := range out {
			if b == spfimpl.BehaviorVulnLibSPF2 {
				out[i] = spfimpl.BehaviorPatchedLibSPF2
			}
		}
	}
	return out
}

// World is a generated synthetic Internet.
type World struct {
	Spec    Spec
	Domains []*Domain
	ByName  map[string]*Domain
	Hosts   map[netip.Addr]*HostSpec
	Geo     *geo.DB
}

// DomainsIn returns the domains belonging to a set, in generation order
// (rank order for Alexa).
func (w *World) DomainsIn(set Set) []*Domain {
	var out []*Domain
	for _, d := range w.Domains {
		if d.Sets.Has(set) {
			out = append(out, d)
		}
	}
	return out
}

// AllAddrs returns every distinct host address, sorted.
func (w *World) AllAddrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(w.Hosts))
	for a := range w.Hosts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AddrsIn returns the distinct addresses backing a domain set, sorted.
func (w *World) AddrsIn(set Set) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	for _, d := range w.Domains {
		if !d.Sets.Has(set) {
			continue
		}
		for _, a := range d.Hosts {
			seen[a] = true
		}
	}
	out := make([]netip.Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Host behaviour classes as named by HostClass, for fault-plan targeting.
const (
	ClassUnreachable = "unreachable"
	ClassRefusing    = "refusing"
	ClassGreylisting = "greylisting"
	ClassFlaky       = "flaky"
	ClassSilent      = "silent"
	ClassValidating  = "validating"
)

// HostClass names the fault-relevant behaviour class of a host address so
// fault plans can target "all greylisting hosts" instead of enumerating
// IPs. Unknown addresses (e.g. the probe vantage) return "".
func (w *World) HostClass(a netip.Addr) string {
	h := w.Hosts[a]
	if h == nil {
		return ""
	}
	switch {
	case !h.Listens:
		return ClassUnreachable
	case h.RefuseSMTP:
		return ClassRefusing
	case h.Greylist:
		return ClassGreylisting
	case h.FlakyRate > 0:
		return ClassFlaky
	case len(h.Behaviors) == 0 || h.ValidateAt == mta.ValidateNever:
		return ClassSilent
	default:
		return ClassValidating
	}
}

// FaultClassifier adapts HostClass to the string-keyed host classifier the
// fault engine consumes. The returned func is safe for concurrent use.
func (w *World) FaultClassifier() func(host string) string {
	return func(host string) string {
		a, err := netip.ParseAddr(host)
		if err != nil {
			return ""
		}
		return w.HostClass(a)
	}
}

// DomainsOn returns the domains hosted on an address.
func (w *World) DomainsOn(addr netip.Addr) []*Domain {
	var out []*Domain
	for _, d := range w.Domains {
		for _, a := range d.Hosts {
			if a == addr {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// BuildZones constructs the authoritative DNS content for every domain:
// MX records pointing at mail hosts (or bare A records for MX-less
// domains), A records for the mail hosts themselves, an SOA per domain
// for clean negative answers, and — for scenario domains — the apex SPF
// TXT records, the _dmarc TXT record, and any extra pack-published
// records.
//
// Each domain's records go to the zone in one ZoneSet.Add, grouped by
// owner: the apex (SOA, then MX or address records, then SPF TXT), each
// MX host's address, _dmarc, then the extra records in order. Every
// owner gets its records in the order one Add per record gave it. The
// owner map is sized once, for an upper bound on the owners. Add refuses
// a whole batch when one record does not encode, and that cannot happen
// here, so its errors are dropped: every name is the parsed apex, a child
// of it (Name.Child checks the length) or a parsed extra owner, every
// address is valid, and every TXT payload, split into 255-byte strings,
// is far below the 65,535 bytes of RDATA a record can carry.
func (w *World) BuildZones() *dnsserver.ZoneSet {
	z := dnsserver.NewZoneSet()
	owners := 0
	for _, d := range w.Domains {
		owners += 1 + len(d.Extra)
		if d.HasMX {
			owners += len(d.Hosts)
		}
		if d.DMARC != "" {
			owners++
		}
	}
	z.Grow(owners)
	var rrs, hosts []dnsmsg.Record
	for _, d := range w.Domains {
		apex, err := dnsmsg.ParseName(d.Name)
		if err != nil {
			continue
		}
		ns1, err := apex.Child("ns1")
		if err != nil {
			continue
		}
		hostmaster, err := apex.Child("hostmaster")
		if err != nil {
			continue
		}
		rrs = append(rrs[:0], dnsmsg.Record{Name: apex, Class: dnsmsg.ClassIN, TTL: 3600,
			Data: dnsmsg.SOA{MName: ns1, RName: hostmaster, Serial: 2021101100}})
		hosts = hosts[:0]
		for i, a := range d.Hosts {
			if !d.HasMX {
				rrs = append(rrs, dnsserver.AddrRecord(apex, a))
				continue
			}
			mx, err := apex.Child(mxLabel(i))
			if err != nil {
				continue
			}
			rrs = append(rrs, dnsserver.MXRecord(apex, uint16(10*(i+1)), mx))
			hosts = append(hosts, dnsserver.AddrRecord(mx, a))
		}
		for _, txt := range d.SPF {
			rrs = append(rrs, dnsserver.TXTRecord(apex, txt))
		}
		rrs = append(rrs, hosts...)
		if d.DMARC != "" {
			if owner, err := apex.Child("_dmarc"); err == nil {
				rrs = append(rrs, dnsserver.TXTRecord(owner, d.DMARC))
			}
		}
		for _, rr := range d.Extra {
			owner, err := dnsmsg.ParseName(rr.Owner)
			if err != nil {
				continue
			}
			if rr.TXT != "" {
				rrs = append(rrs, dnsserver.TXTRecord(owner, rr.TXT))
			}
			if rr.Addr.IsValid() {
				rrs = append(rrs, dnsserver.AddrRecord(owner, rr.Addr))
			}
		}
		z.Add(rrs...)
	}
	return z
}

// mxLabels are the labels of a domain's first MX hosts.
var mxLabels = [...]string{"mx1", "mx2", "mx3", "mx4", "mx5", "mx6", "mx7", "mx8"}

// mxLabel returns the label of a domain's MX host i, counted from 0:
// mx1, mx2, and so on.
func mxLabel(i int) string {
	if i < len(mxLabels) {
		return mxLabels[i]
	}
	return "mx" + strconv.Itoa(i+1)
}

// HostManager instantiates mta.Hosts from HostSpecs on demand, applying
// the spec's patch state as of a given instant. A measurement campaign
// starts each host right before its probe and stops it right after
// (StartHost, StopHost), so at most one host per concurrent probe is live.
type HostManager struct {
	World     *World
	Fabric    *netsim.Fabric
	Clock     clock.Clock
	DNSServer string
	// DNSTimeout for host resolvers (keep small in simulation).
	DNSTimeout time.Duration
	// Trace, when non-nil, is handed to every started host so MTA-side SPF
	// evaluation attributes its spans to the owning probe.
	Trace *trace.Tracer

	mu      sync.Mutex
	running map[netip.Addr]*mta.Host // guarded by mu
}

// Ensure starts hosts for every listening address in addrs that is not
// already running, with behaviour effective at the current clock time.
func (m *HostManager) Ensure(ctx context.Context, addrs []netip.Addr) error {
	now := m.Clock.Now()
	for _, a := range addrs {
		if _, err := m.StartHost(ctx, a, now); err != nil {
			return err
		}
	}
	return nil
}

// StartHost starts the host at a with behaviour effective at asOf, unless
// a does not listen or its host is already running. It reports whether it
// started one; only then is the host the caller's to stop with StopHost.
// Campaigns pass the instant their measurement pass began, so every probe
// of the pass meets its host with the same behaviour and flakiness seed.
// Probes sleep on their own timelines, and the shared clock's one sleeper,
// the study's round loop, waits for the pass, so the live clock reads
// that instant too; passing it keeps host behaviour a function of the
// pass alone.
func (m *HostManager) StartHost(ctx context.Context, a netip.Addr, asOf time.Time) (bool, error) {
	spec := m.World.Hosts[a]
	if spec == nil || !spec.Listens {
		return false, nil
	}
	m.mu.Lock()
	_, up := m.running[a]
	m.mu.Unlock()
	if up {
		return false, nil
	}
	behaviors := spec.BehaviorsAt(asOf)
	validateAt := spec.ValidateAt
	if len(behaviors) == 0 {
		validateAt = mta.ValidateNever
	}
	h := mta.New(mta.Config{
		Hostname:             "mx-" + a.String(),
		IP:                   a,
		Net:                  m.Fabric.Host(a.String()),
		Clock:                m.Clock,
		DNSServer:            m.DNSServer,
		DNSTimeout:           m.DNSTimeout,
		Trace:                m.Trace,
		Behaviors:            behaviors,
		ValidateAt:           validateAt,
		RejectOnFail:         spec.RejectOnFail,
		Greylist:             spec.Greylist,
		RefuseSMTP:           spec.RefuseSMTP,
		RejectData:           spec.BlankMsgFails,
		EnforceDMARC:         spec.EnforceDMARC,
		BlacklistProbesAt:    spec.BlacklistProbesAt,
		BlacklistProbesUntil: spec.BlacklistProbesUntil,
		FlakyRate:            spec.FlakyRate,
		// Hosts are recreated for every probe; folding the virtual time
		// into the seed varies the failure pattern across rounds while
		// staying reproducible.
		FlakySeed: spec.FlakySeed ^ asOf.UnixNano(),
	})
	// The caller stops the host (StopHost, or StopAll when the rig
	// closes), so the host need not watch ctx for its end.
	if err := h.Start(context.WithoutCancel(ctx)); err != nil {
		return false, fmt.Errorf("population: starting host %s: %w", a, err)
	}
	m.mu.Lock()
	if m.running == nil {
		m.running = make(map[netip.Addr]*mta.Host)
	}
	m.running[a] = h
	m.mu.Unlock()
	return true, nil
}

// StopHost shuts down the host at a, if one is running.
func (m *HostManager) StopHost(a netip.Addr) {
	m.mu.Lock()
	h := m.running[a]
	delete(m.running, a)
	m.mu.Unlock()
	if h != nil {
		h.Stop()
	}
}

// StopAll shuts down every running host.
func (m *HostManager) StopAll() {
	m.mu.Lock()
	hosts := m.running
	m.running = make(map[netip.Addr]*mta.Host)
	m.mu.Unlock()
	for _, h := range hosts {
		h.Stop()
	}
}

// Stop shuts down the hosts for the given addresses only.
func (m *HostManager) Stop(addrs []netip.Addr) {
	for _, a := range addrs {
		m.StopHost(a)
	}
}

// RunningCount returns the number of live hosts.
func (m *HostManager) RunningCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.running)
}
