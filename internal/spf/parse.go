package spf

import (
	"fmt"
	"net/netip"
	"strings"
)

// IsSPFRecord reports whether a TXT string is an SPF version-1 policy:
// exactly "v=spf1" followed by end-of-string or a space (RFC 7208 §4.5).
func IsSPFRecord(txt string) bool {
	if len(txt) == 6 {
		return strings.EqualFold(txt, "v=spf1")
	}
	return len(txt) > 6 && strings.EqualFold(txt[:6], "v=spf1") && txt[6] == ' '
}

// SyntaxError describes a policy that cannot be interpreted; evaluation
// maps it to permerror.
type SyntaxError struct {
	Term string
	Msg  string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	if e.Term == "" {
		return "spf: " + e.Msg
	}
	return fmt.Sprintf("spf: term %q: %s", e.Term, e.Msg)
}

// Parse parses the text of an SPF policy record.
func Parse(txt string) (*Record, error) {
	if !IsSPFRecord(txt) {
		return nil, &SyntaxError{Msg: "missing v=spf1 version tag"}
	}
	rec := &Record{}
	body := txt[6:]
	// Pre-size Mechanisms by counting space-separated terms, then walk the
	// fields in place — no intermediate []string, no append regrowth.
	if n := countFields(body); n > 0 {
		rec.Mechanisms = make([]Mechanism, 0, n)
	}
	for i := 0; i < len(body); {
		if isSpaceByte(body[i]) {
			i++
			continue
		}
		j := i
		for j < len(body) && !isSpaceByte(body[j]) {
			j++
		}
		if err := parseTerm(rec, body[i:j]); err != nil {
			return nil, err
		}
		i = j
	}
	return rec, nil
}

// isSpaceByte matches the ASCII whitespace strings.Fields splits on.
func isSpaceByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// countFields counts whitespace-separated fields, mirroring the loop in
// Parse.
func countFields(s string) int {
	n, in := 0, false
	for i := 0; i < len(s); i++ {
		sep := isSpaceByte(s[i])
		if !sep && !in {
			n++
		}
		in = !sep
	}
	return n
}

func parseTerm(rec *Record, term string) error {
	// Modifier? name=value with name starting alphabetic.
	if i := strings.IndexByte(term, '='); i > 0 && isModifierName(term[:i]) {
		name := strings.ToLower(term[:i])
		val := term[i+1:]
		switch name {
		case "redirect":
			if rec.Redirect != "" {
				return &SyntaxError{Term: term, Msg: "duplicate redirect modifier"}
			}
			if val == "" {
				return &SyntaxError{Term: term, Msg: "empty redirect target"}
			}
			if !isDomainSpec(val) {
				return &SyntaxError{Term: term, Msg: "redirect target is not a domain-spec"}
			}
			rec.Redirect = val
		case "exp":
			if rec.Exp != "" {
				return &SyntaxError{Term: term, Msg: "duplicate exp modifier"}
			}
			if val == "" {
				return &SyntaxError{Term: term, Msg: "empty exp target"}
			}
			if !isDomainSpec(val) {
				return &SyntaxError{Term: term, Msg: "exp target is not a domain-spec"}
			}
			rec.Exp = val
		default:
			// An unknown modifier's value is a macro-string (RFC 7208
			// §4.6.1, §7.1), so a malformed one is a syntax error.
			if _, err := TokenizeMacroString(val); err != nil {
				return &SyntaxError{Term: term, Msg: "modifier value is not a macro-string"}
			}
			rec.Unknown = append(rec.Unknown, Modifier{Name: name, Value: val})
		}
		return nil
	}

	m := Mechanism{Qualifier: QPass, Prefix4: -1, Prefix6: -1}
	rest := term
	if len(rest) > 0 {
		switch Qualifier(rest[0]) {
		case QPass, QFail, QSoftFail, QNeutral:
			m.Qualifier = Qualifier(rest[0])
			rest = rest[1:]
		}
	}
	if rest == "" {
		return &SyntaxError{Term: term, Msg: "empty mechanism"}
	}

	nameEnd := len(rest)
	if i := strings.IndexAny(rest, ":/"); i >= 0 {
		nameEnd = i
	}
	kind := MechanismKind(strings.ToLower(rest[:nameEnd]))
	arg := rest[nameEnd:]

	switch kind {
	case MechAll:
		if arg != "" {
			return &SyntaxError{Term: term, Msg: "all takes no argument"}
		}
		m.Kind = MechAll
	case MechInclude, MechExists:
		if !strings.HasPrefix(arg, ":") || len(arg) == 1 {
			return &SyntaxError{Term: term, Msg: string(kind) + " requires a domain"}
		}
		m.Kind = kind
		m.Domain = arg[1:]
	case MechPTR:
		m.Kind = MechPTR
		if strings.HasPrefix(arg, ":") {
			if len(arg) == 1 {
				return &SyntaxError{Term: term, Msg: "empty ptr domain"}
			}
			m.Domain = arg[1:]
		} else if arg != "" {
			return &SyntaxError{Term: term, Msg: "bad ptr argument"}
		}
	case MechA, MechMX:
		m.Kind = kind
		if err := parseDualCIDR(&m, arg); err != nil {
			return &SyntaxError{Term: term, Msg: err.Error()}
		}
	case MechIP4:
		m.Kind = MechIP4
		if err := parseIPArg(&m, arg, false); err != nil {
			return &SyntaxError{Term: term, Msg: err.Error()}
		}
	case MechIP6:
		m.Kind = MechIP6
		if err := parseIPArg(&m, arg, true); err != nil {
			return &SyntaxError{Term: term, Msg: err.Error()}
		}
	default:
		return &SyntaxError{Term: term, Msg: "unknown mechanism"}
	}
	if m.Domain != "" && !isDomainSpec(m.Domain) {
		return &SyntaxError{Term: term, Msg: "not a domain-spec"}
	}
	rec.Mechanisms = append(rec.Mechanisms, m)
	return nil
}

// isDomainSpec reports whether s is an RFC 7208 §7.1 domain-spec: a
// macro-string of visible ASCII whose domain-end is a macro-expand or
// "." toplabel [ "." ]. A toplabel holds a letter, or is alphanumerics
// joined by hyphens with no hyphen at either end, so "foo.123",
// "example.-com" and the dotless "localhost" are rejected while "foo.1-2"
// and "%{d}" are not.
func isDomainSpec(s string) bool {
	// Walk the macro-string as TokenizeMacroString does, without building
	// tokens: Parse runs for every fresh probe policy.
	endsInMacro := false
	for i := 0; i < len(s); {
		if s[i] != '%' {
			// macro-literal: a visible ASCII character other than '%'.
			if s[i] < 0x21 || s[i] > 0x7e {
				return false
			}
			endsInMacro = false
			i++
			continue
		}
		if i+1 >= len(s) {
			return false
		}
		switch s[i+1] {
		case '%', '_', '-':
			i += 2
		case '{':
			end := strings.IndexByte(s[i:], '}')
			if end < 0 {
				return false
			}
			if _, err := parseMacroBody(s[i+2 : i+end]); err != nil {
				return false
			}
			i += end + 1
		default:
			return false
		}
		endsInMacro = true
	}
	if endsInMacro {
		return true
	}
	// A toplabel holds no '%', '{' or '}', so a valid one after the last
	// dot is literal text, and so is that dot.
	s = strings.TrimSuffix(s, ".")
	dot := strings.LastIndexByte(s, '.')
	return dot >= 0 && isTopLabel(s[dot+1:])
}

// isTopLabel reports whether s matches RFC 7208's toplabel:
// ( *alphanum ALPHA *alphanum ) / ( 1*alphanum "-" *( alphanum / "-" ) alphanum ).
func isTopLabel(s string) bool {
	if s == "" {
		return false
	}
	letter, hyphen := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case isAlpha(c):
			letter = true
		case c == '-':
			hyphen = true
		case !isDigit(c):
			return false
		}
	}
	if !hyphen {
		return letter
	}
	return s[0] != '-' && s[len(s)-1] != '-'
}

// isModifierName reports whether s is a valid modifier name: ALPHA
// *( ALPHA / DIGIT / "-" / "_" / "." ).
func isModifierName(s string) bool {
	if s == "" || !isAlpha(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !isAlpha(c) && !isDigit(c) && c != '-' && c != '_' && c != '.' {
			return false
		}
	}
	return true
}

func isAlpha(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// parseDualCIDR parses a/mx arguments: [":"domain]["/"n[//m]] .
func parseDualCIDR(m *Mechanism, arg string) error {
	if strings.HasPrefix(arg, ":") {
		arg = arg[1:]
		slash := strings.IndexByte(arg, '/')
		if slash == 0 {
			return fmt.Errorf("empty domain before CIDR")
		}
		if slash < 0 {
			if arg == "" {
				return fmt.Errorf("empty domain")
			}
			m.Domain = arg
			return nil
		}
		m.Domain = arg[:slash]
		arg = arg[slash:]
	}
	if arg == "" {
		return nil
	}
	if !strings.HasPrefix(arg, "/") {
		return fmt.Errorf("bad dual-CIDR %q", arg)
	}
	arg = arg[1:]
	// Forms: "n", "n//m", "/m" (v6 only: written as "//m" overall).
	if strings.HasPrefix(arg, "/") {
		return parsePrefix(arg[1:], &m.Prefix6, 128)
	}
	if i := strings.Index(arg, "//"); i >= 0 {
		if err := parsePrefix(arg[:i], &m.Prefix4, 32); err != nil {
			return err
		}
		return parsePrefix(arg[i+2:], &m.Prefix6, 128)
	}
	return parsePrefix(arg, &m.Prefix4, 32)
}

// parsePrefix parses a CIDR length into dst, rejecting values above max.
func parsePrefix(s string, dst *int, max int) error {
	if s == "" {
		return fmt.Errorf("empty CIDR length")
	}
	// RFC 7208 §5.6: "0", or a non-zero digit followed by digits — no
	// sign and no leading zero. With the value bound that leaves at most
	// two digits for ip4 (≤ 32) and three for ip6 (≤ 128).
	if len(s) > 1 && s[0] == '0' {
		return fmt.Errorf("bad CIDR length %q", s)
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) || n > max {
			return fmt.Errorf("bad CIDR length %q", s)
		}
		n = n*10 + int(s[i]-'0')
	}
	if n > max {
		return fmt.Errorf("bad CIDR length %q", s)
	}
	*dst = n
	return nil
}

// parseIPArg parses ip4:addr[/n] or ip6:addr[/n].
func parseIPArg(m *Mechanism, arg string, v6 bool) error {
	if !strings.HasPrefix(arg, ":") || len(arg) == 1 {
		return fmt.Errorf("ip mechanism requires an address")
	}
	arg = arg[1:]
	addrStr := arg
	var prefixStr string
	if i := strings.IndexByte(arg, '/'); i >= 0 {
		addrStr, prefixStr = arg[:i], arg[i+1:]
	}
	addr, err := netip.ParseAddr(addrStr)
	if err != nil {
		return fmt.Errorf("bad IP %q", addrStr)
	}
	if v6 == addr.Is4() {
		return fmt.Errorf("address family mismatch for %q", addrStr)
	}
	m.IP = addr
	if prefixStr != "" {
		if v6 {
			return parsePrefix(prefixStr, &m.Prefix6, 128)
		}
		return parsePrefix(prefixStr, &m.Prefix4, 32)
	}
	return nil
}
