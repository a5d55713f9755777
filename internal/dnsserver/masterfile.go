package dnsserver

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"spfail/internal/dnsmsg"
)

// ParseZoneFile reads a simplified RFC 1035 master file into a ZoneSet.
// Supported: $ORIGIN and $TTL directives; relative and absolute owner
// names; "@" for the origin; blank owner repeating the previous one;
// ";" comments; optional TTL and class fields; record types SOA, NS, MX,
// A, AAAA, TXT (with one or more quoted strings), CNAME, and PTR.
//
// It exists so lab deployments of cmd/spfail-dns can serve operator-
// provided records next to the dynamic measurement zone, and so tests can
// express zone content legibly.
func ParseZoneFile(r io.Reader) (*ZoneSet, error) {
	z := NewZoneSet()
	p := &zoneParser{zone: z, defaultTTL: 300}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := p.line(sc.Text()); err != nil {
			return nil, fmt.Errorf("dnsserver: zone file line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return z, nil
}

// ParseZoneString is ParseZoneFile over a string.
func ParseZoneString(s string) (*ZoneSet, error) {
	return ParseZoneFile(strings.NewReader(s))
}

type zoneParser struct {
	zone       *ZoneSet
	origin     dnsmsg.Name
	hasOrigin  bool
	defaultTTL uint32
	lastOwner  dnsmsg.Name
	hasOwner   bool
}

// line processes one master-file line.
func (p *zoneParser) line(raw string) error {
	// Strip comments outside quotes.
	line := stripComment(raw)
	if strings.TrimSpace(line) == "" {
		return nil
	}
	fields, err := splitQuoted(line)
	if err != nil {
		return err
	}
	if len(fields) == 0 {
		return nil
	}

	switch strings.ToUpper(fields[0]) {
	case "$ORIGIN":
		if len(fields) != 2 {
			return fmt.Errorf("$ORIGIN wants one argument")
		}
		n, err := dnsmsg.ParseName(fields[1])
		if err != nil {
			return err
		}
		p.origin = n
		p.hasOrigin = true
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return fmt.Errorf("$TTL wants one argument")
		}
		ttl, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad $TTL %q", fields[1])
		}
		p.defaultTTL = uint32(ttl)
		return nil
	}

	// Owner field: present unless the line starts with whitespace.
	idx := 0
	owner := p.lastOwner
	if !startsWithSpace(raw) {
		n, err := p.name(fields[0])
		if err != nil {
			return fmt.Errorf("bad owner %q: %w", fields[0], err)
		}
		owner = n
		p.lastOwner = n
		p.hasOwner = true
		idx = 1
	} else if !p.hasOwner {
		return fmt.Errorf("record with no previous owner")
	}

	ttl := p.defaultTTL
	// Optional TTL and/or class, in either order.
	for idx < len(fields) {
		f := strings.ToUpper(fields[idx])
		if f == "IN" {
			idx++
			continue
		}
		if v, err := strconv.ParseUint(fields[idx], 10, 32); err == nil && !isTypeToken(f) {
			ttl = uint32(v)
			idx++
			continue
		}
		break
	}
	if idx >= len(fields) {
		return fmt.Errorf("missing record type")
	}
	typ := strings.ToUpper(fields[idx])
	args := fields[idx+1:]

	data, err := p.rdata(typ, args)
	if err != nil {
		return err
	}
	return p.zone.Add(dnsmsg.Record{Name: owner, Class: dnsmsg.ClassIN, TTL: ttl, Data: data})
}

func (p *zoneParser) rdata(typ string, args []string) (dnsmsg.RData, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d fields, got %d", typ, n, len(args))
		}
		return nil
	}
	switch typ {
	case "A":
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(args[0])
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("bad A address %q", args[0])
		}
		return dnsmsg.A{Addr: a}, nil
	case "AAAA":
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(args[0])
		if err != nil || !a.Is6() {
			return nil, fmt.Errorf("bad AAAA address %q", args[0])
		}
		return dnsmsg.AAAA{Addr: a}, nil
	case "MX":
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(args[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", args[0])
		}
		host, err := p.name(args[1])
		if err != nil {
			return nil, err
		}
		return dnsmsg.MX{Preference: uint16(pref), Host: host}, nil
	case "TXT":
		if len(args) == 0 {
			return nil, fmt.Errorf("TXT wants at least one string")
		}
		// A string over 255 bytes, or RDATA over 65,535, does not encode
		// (RFC 1035 §3.3, §3.2.1), and ZoneSet.Add refuses it.
		return dnsmsg.TXT{Strings: args}, nil
	case "CNAME":
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(args[0])
		if err != nil {
			return nil, err
		}
		return dnsmsg.CNAME{Target: n}, nil
	case "NS":
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(args[0])
		if err != nil {
			return nil, err
		}
		return dnsmsg.NS{Host: n}, nil
	case "PTR":
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(args[0])
		if err != nil {
			return nil, err
		}
		return dnsmsg.PTR{Target: n}, nil
	case "SOA":
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := p.name(args[0])
		if err != nil {
			return nil, err
		}
		rname, err := p.name(args[1])
		if err != nil {
			return nil, err
		}
		nums := make([]uint32, 5)
		for i, s := range args[2:] {
			v, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SOA field %q", s)
			}
			nums[i] = uint32(v)
		}
		return dnsmsg.SOA{
			MName: mname, RName: rname,
			Serial: nums[0], Refresh: nums[1], Retry: nums[2],
			Expire: nums[3], Minimum: nums[4],
		}, nil
	default:
		return nil, fmt.Errorf("unsupported record type %q", typ)
	}
}

// name resolves a possibly-relative owner/target against the origin.
func (p *zoneParser) name(s string) (dnsmsg.Name, error) {
	if s == "@" {
		if !p.hasOrigin {
			return dnsmsg.Name{}, fmt.Errorf("@ with no $ORIGIN")
		}
		return p.origin, nil
	}
	if strings.HasSuffix(s, ".") {
		return dnsmsg.ParseName(s)
	}
	if !p.hasOrigin {
		return dnsmsg.Name{}, fmt.Errorf("relative name %q with no $ORIGIN", s)
	}
	rel, err := dnsmsg.ParseName(s)
	if err != nil {
		return dnsmsg.Name{}, err
	}
	labels := append(rel.Labels(), p.origin.Labels()...)
	return dnsmsg.NewName(labels...)
}

// stripComment removes a trailing ;-comment, honoring quotes.
func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

// splitQuoted splits on whitespace, keeping quoted strings as single
// fields (quotes removed, \" unescaped).
func splitQuoted(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			if inQuote {
				out = append(out, cur.String()) // may be empty string
				cur.Reset()
				inQuote = false
			} else {
				flush()
				inQuote = true
			}
		case c == '\\' && inQuote && i+1 < len(line):
			i++
			cur.WriteByte(line[i])
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	flush()
	return out, nil
}

func startsWithSpace(s string) bool {
	return len(s) > 0 && (s[0] == ' ' || s[0] == '\t')
}

func isTypeToken(s string) bool {
	switch s {
	case "A", "AAAA", "MX", "TXT", "CNAME", "NS", "PTR", "SOA":
		return true
	}
	return false
}
