package dnsserver

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"spfail/internal/dnsmsg"
)

// ZoneSet is a Handler serving a static set of records, keyed by canonical
// owner name. It answers authoritatively: names with no records at all get
// NXDOMAIN; names with records of other types get an empty NOERROR. CNAMEs
// are chased within the set.
type ZoneSet struct {
	mu      sync.RWMutex
	records map[string][]dnsmsg.Record
	soa     map[string]dnsmsg.Record // apex key → SOA for negative answers
	// templates caches packed responses for the ServeWire fast path, keyed
	// by case-folded qname wire bytes + qtype (see template.go). Any zone
	// mutation drops the whole cache and bumps tmplGen so in-flight builds
	// against the old zone contents are discarded.
	templates map[string][]byte
	tmplGen   uint64
}

// NewZoneSet returns an empty zone set.
func NewZoneSet() *ZoneSet {
	return &ZoneSet{
		records: make(map[string][]dnsmsg.Record),
		soa:     make(map[string]dnsmsg.Record),
	}
}

// Add inserts a record.
func (z *ZoneSet) Add(r dnsmsg.Record) {
	z.mu.Lock()
	defer z.mu.Unlock()
	key := r.Name.CanonicalKey()
	z.records[key] = append(z.records[key], r)
	if r.Data.Type() == dnsmsg.TypeSOA {
		z.soa[key] = r
	}
	z.invalidateTemplates()
}

// AddA is a convenience for adding an A or AAAA record for name.
func (z *ZoneSet) AddA(name dnsmsg.Name, addr netip.Addr) {
	var data dnsmsg.RData
	if addr.Is4() {
		data = dnsmsg.A{Addr: addr}
	} else {
		data = dnsmsg.AAAA{Addr: addr}
	}
	z.Add(dnsmsg.Record{Name: name, Class: dnsmsg.ClassIN, TTL: 300, Data: data})
}

// AddMX is a convenience for adding an MX record.
func (z *ZoneSet) AddMX(name dnsmsg.Name, pref uint16, host dnsmsg.Name) {
	z.Add(dnsmsg.Record{Name: name, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.MX{Preference: pref, Host: host}})
}

// AddTXT is a convenience for adding a TXT record, splitting long strings.
func (z *ZoneSet) AddTXT(name dnsmsg.Name, text string) {
	z.Add(dnsmsg.Record{Name: name, Class: dnsmsg.ClassIN, TTL: 300,
		Data: dnsmsg.SplitTXT(text)})
}

// Lookup returns records of the given type owned by name, chasing one level
// of CNAME. exists reports whether the name owns any records at all.
func (z *ZoneSet) Lookup(name dnsmsg.Name, typ dnsmsg.Type) (rrs []dnsmsg.Record, exists bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.lookupLocked(name, typ, 0)
}

func (z *ZoneSet) lookupLocked(name dnsmsg.Name, typ dnsmsg.Type, depth int) ([]dnsmsg.Record, bool) {
	owned, ok := z.records[name.CanonicalKey()]
	if !ok {
		return nil, false
	}
	var out []dnsmsg.Record
	for _, r := range owned {
		t := r.Data.Type()
		if t == typ || typ == dnsmsg.TypeANY {
			out = append(out, r)
		}
		if t == dnsmsg.TypeCNAME && typ != dnsmsg.TypeCNAME && typ != dnsmsg.TypeANY && depth < 4 {
			out = append(out, r)
			target, _ := z.lookupLocked(r.Data.(dnsmsg.CNAME).Target, typ, depth+1)
			out = append(out, target...)
		}
	}
	return out, true
}

// ServeDNS implements Handler.
func (z *ZoneSet) ServeDNS(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
	resp := q.Reply()
	resp.Header.Authoritative = true
	qq := q.Questions[0]
	if qq.Class != dnsmsg.ClassIN && qq.Class != dnsmsg.ClassANY {
		resp.Header.RCode = dnsmsg.RCodeRefused
		return resp
	}
	rrs, exists := z.Lookup(qq.Name, qq.Type)
	if !exists {
		resp.Header.RCode = dnsmsg.RCodeNXDomain
		resp.Authority = z.negativeAuthority(qq.Name)
		return resp
	}
	resp.Answers = rrs
	if len(rrs) == 0 {
		resp.Authority = z.negativeAuthority(qq.Name)
	}
	return resp
}

// negativeAuthority finds the closest enclosing SOA for negative responses.
func (z *ZoneSet) negativeAuthority(name dnsmsg.Name) []dnsmsg.Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for n := name; ; n = n.Parent() {
		if soa, ok := z.soa[n.CanonicalKey()]; ok {
			return []dnsmsg.Record{soa}
		}
		if n.IsRoot() {
			return nil
		}
	}
}

// LoggingHandler wraps a Handler, publishing every query to a Sink before
// dispatch. Now supplies event timestamps (typically clock.Clock.Now). The
// event carries a clone of the qname, so sinks may keep it.
type LoggingHandler struct {
	Inner Handler
	Sink  Sink
	Now   func() time.Time
}

// ServeDNS implements Handler.
func (h *LoggingHandler) ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message {
	qq := q.Questions[0]
	var at time.Time
	if h.Now != nil {
		at = h.Now()
	}
	fromStr := ""
	if from != nil {
		fromStr = from.String()
	}
	h.Sink.Observe(QueryEvent{Time: at, From: fromStr, Name: qq.Name.Clone(), Type: qq.Type})
	return h.Inner.ServeDNS(q, from)
}

// Mux routes queries by name suffix to registered handlers, falling back to
// a default. The longest matching suffix wins.
type Mux struct {
	mu       sync.RWMutex
	routes   []muxRoute
	fallback Handler
}

type muxRoute struct {
	suffix  dnsmsg.Name
	handler Handler
}

// NewMux returns a Mux with the given fallback handler (may be nil, in
// which case unmatched queries get REFUSED).
func NewMux(fallback Handler) *Mux { return &Mux{fallback: fallback} }

// Handle routes queries for suffix (and all names under it) to h.
func (m *Mux) Handle(suffix dnsmsg.Name, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes = append(m.routes, muxRoute{suffix: suffix, handler: h})
}

// ServeDNS implements Handler.
func (m *Mux) ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message {
	qname := q.Questions[0].Name
	m.mu.RLock()
	var best Handler
	bestLen := -1
	for _, r := range m.routes {
		if qname.HasSuffix(r.suffix) && r.suffix.NumLabels() > bestLen {
			best, bestLen = r.handler, r.suffix.NumLabels()
		}
	}
	fallback := m.fallback
	m.mu.RUnlock()
	if best != nil {
		return best.ServeDNS(q, from)
	}
	if fallback != nil {
		return fallback.ServeDNS(q, from)
	}
	resp := q.Reply()
	resp.Header.RCode = dnsmsg.RCodeRefused
	return resp
}
