package spf

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"
)

// MacroLetter identifies a macro variable (RFC 7208 §7.2).
type MacroLetter byte

// The macro letters. Lowercase only; URL escaping is carried separately.
const (
	MacroSender       MacroLetter = 's' // sender email address
	MacroLocalPart    MacroLetter = 'l' // local-part of sender
	MacroSenderDomain MacroLetter = 'o' // domain of sender
	MacroDomain       MacroLetter = 'd' // current domain under test
	MacroIP           MacroLetter = 'i' // client IP, dot-format
	MacroPTRDomain    MacroLetter = 'p' // validated reverse domain of IP
	MacroIPVersion    MacroLetter = 'v' // "in-addr" or "ip6"
	MacroHELO         MacroLetter = 'h' // HELO/EHLO identity
	MacroSMTPClientIP MacroLetter = 'c' // exp only: readable client IP
	MacroReceiver     MacroLetter = 'r' // exp only: receiving host domain
	MacroTimestamp    MacroLetter = 't' // exp only: unix timestamp
)

// MacroToken is one element of a tokenized macro-string: either a literal
// run of bytes or a macro expansion spec.
type MacroToken struct {
	// Literal holds raw text when IsMacro is false.
	Literal string
	IsMacro bool
	// Macro fields (valid when IsMacro):
	Letter    MacroLetter
	URLEscape bool   // uppercase letter form
	Digits    int    // 0 = keep all labels
	Reverse   bool   // 'r' transformer
	Delims    string // split delimiters; "" means "."
}

// TokenizeMacroString splits a macro-string into tokens, handling the %%,
// %_, and %- literal escapes. It is exported because the deliberately buggy
// expanders in internal/spfimpl share this front end with the compliant one.
func TokenizeMacroString(s string) ([]MacroToken, error) {
	var out []MacroToken
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			out = append(out, MacroToken{Literal: lit.String()})
			lit.Reset()
		}
	}
	for i := 0; i < len(s); {
		c := s[i]
		if c != '%' {
			lit.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(s) {
			return nil, &SyntaxError{Term: s, Msg: "trailing %"}
		}
		switch s[i+1] {
		case '%':
			lit.WriteByte('%')
			i += 2
		case '_':
			lit.WriteByte(' ')
			i += 2
		case '-':
			lit.WriteString("%20")
			i += 2
		case '{':
			end := strings.IndexByte(s[i:], '}')
			if end < 0 {
				return nil, &SyntaxError{Term: s, Msg: "unterminated macro"}
			}
			tok, err := parseMacroBody(s[i+2 : i+end])
			if err != nil {
				return nil, err
			}
			flush()
			out = append(out, tok)
			i += end + 1
		default:
			return nil, &SyntaxError{Term: s, Msg: fmt.Sprintf("bad macro escape %%%c", s[i+1])}
		}
	}
	flush()
	return out, nil
}

// parseMacroBody parses the inside of %{...}: letter, digits, 'r', delims.
func parseMacroBody(body string) (MacroToken, error) {
	if body == "" {
		return MacroToken{}, &SyntaxError{Msg: "empty macro"}
	}
	tok := MacroToken{IsMacro: true}
	c := body[0]
	lower := c | 0x20
	switch MacroLetter(lower) {
	case MacroSender, MacroLocalPart, MacroSenderDomain, MacroDomain, MacroIP,
		MacroPTRDomain, MacroIPVersion, MacroHELO, MacroSMTPClientIP,
		MacroReceiver, MacroTimestamp:
		tok.Letter = MacroLetter(lower)
	default:
		return MacroToken{}, &SyntaxError{Msg: fmt.Sprintf("unknown macro letter %q", c)}
	}
	tok.URLEscape = c >= 'A' && c <= 'Z'
	rest := body[1:]
	// digits
	j := 0
	for j < len(rest) && isDigit(rest[j]) {
		j++
	}
	if j > 0 {
		n := 0
		for _, d := range rest[:j] {
			n = n*10 + int(d-'0')
			if n > 128 {
				n = 128 // clamp; no name has more labels
			}
		}
		if n == 0 {
			return MacroToken{}, &SyntaxError{Msg: "macro digit transformer of 0"}
		}
		tok.Digits = n
	}
	rest = rest[j:]
	if strings.HasPrefix(rest, "r") || strings.HasPrefix(rest, "R") {
		tok.Reverse = true
		rest = rest[1:]
	}
	for _, d := range rest {
		switch d {
		case '.', '-', '+', ',', '/', '_', '=':
			tok.Delims += string(d)
		default:
			return MacroToken{}, &SyntaxError{Msg: fmt.Sprintf("bad macro delimiter %q", d)}
		}
	}
	return tok, nil
}

// MacroEnv carries the per-transaction values that macros expand to.
type MacroEnv struct {
	// Sender is the MAIL FROM address ("user@example.com"). When the
	// local part is empty, "postmaster" is used per RFC 7208 §4.3.
	Sender string
	// Domain is the domain whose policy is being evaluated (changes
	// across include/redirect).
	Domain string
	// IP is the SMTP client address.
	IP netip.Addr
	// HELO is the HELO/EHLO identity.
	HELO string
	// Receiver is the receiving MTA's domain (exp text only).
	Receiver string
	// Now supplies %{t}; nil means time.Now.
	Now func() time.Time
	// LookupPTR supplies %{p} validation; nil degrades to "unknown".
	LookupPTR func(ctx context.Context, addr netip.Addr) ([]string, error)
}

// LocalPart returns the sender's local part, defaulting to "postmaster".
func (e *MacroEnv) LocalPart() string {
	if i := strings.LastIndexByte(e.Sender, '@'); i > 0 {
		return e.Sender[:i]
	}
	return "postmaster"
}

// SenderDomain returns the domain of the sender address, falling back to
// the HELO identity when the sender has no domain.
func (e *MacroEnv) SenderDomain() string {
	if i := strings.LastIndexByte(e.Sender, '@'); i >= 0 && i+1 < len(e.Sender) {
		return e.Sender[i+1:]
	}
	return e.HELO
}

// MacroExpander turns a macro-string into a target domain (or exp text).
// The compliant implementation is Expander; internal/spfimpl supplies the
// non-compliant and vulnerable variants observed in the wild.
type MacroExpander interface {
	// Expand evaluates the macro-string. forExp enables the exp-only
	// macros (c, r, t).
	Expand(ctx context.Context, macroStr string, env *MacroEnv, forExp bool) (string, error)
}

// Expander is the RFC 7208-compliant macro expander.
type Expander struct{}

// Expand implements MacroExpander. Macro-free specs are returned as-is;
// everything else expands into scratch arrays on Expand's stack, so the only
// allocation on the hot path is the result string itself.
func (Expander) Expand(ctx context.Context, macroStr string, env *MacroEnv, forExp bool) (string, error) {
	if !strings.Contains(macroStr, "%") {
		return macroStr, nil
	}
	// buf holds a full-length domain name and parts a 16-label value;
	// anything longer still expands, with append moving it to the heap.
	var buf [256]byte
	var parts [16]string
	b, err := appendMacroString(buf[:0], parts[:0], ctx, macroStr, env, forExp)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// MacroValue returns the raw (untransformed) value of a macro letter.
func MacroValue(ctx context.Context, letter MacroLetter, env *MacroEnv, forExp bool) (string, error) {
	switch letter {
	case MacroSender:
		if strings.Contains(env.Sender, "@") {
			return env.Sender, nil
		}
		return "postmaster@" + env.SenderDomain(), nil
	case MacroLocalPart:
		return env.LocalPart(), nil
	case MacroSenderDomain:
		return env.SenderDomain(), nil
	case MacroDomain:
		return env.Domain, nil
	case MacroIP:
		return dotFormatIP(env.IP), nil
	case MacroIPVersion:
		if env.IP.Is4() {
			return "in-addr", nil
		}
		return "ip6", nil
	case MacroHELO:
		return env.HELO, nil
	case MacroPTRDomain:
		return validatedPTRDomain(ctx, env), nil
	case MacroSMTPClientIP, MacroReceiver, MacroTimestamp:
		if !forExp {
			return "", &SyntaxError{Msg: fmt.Sprintf("macro %%{%c} is only valid in exp text", letter)}
		}
		switch letter {
		case MacroSMTPClientIP:
			return env.IP.String(), nil
		case MacroReceiver:
			return env.Receiver, nil
		default:
			// Envelopes built by the simulator always carry a clocked
			// Now; the fallback only serves real-Internet use.
			now := time.Now //spfail:allow wallclock RFC 7208 %{t} fallback when the envelope has no clock
			if env.Now != nil {
				now = env.Now
			}
			return fmt.Sprintf("%d", now().Unix()), nil
		}
	}
	return "", &SyntaxError{Msg: "unknown macro letter"}
}

// ApplyTransformers applies the digit/reverse/delimiter transformations of
// a macro token to a raw value (RFC 7208 §7.3): split on the delimiters,
// optionally reverse, keep the right-most Digits parts, rejoin with dots.
func ApplyTransformers(raw string, t MacroToken) string {
	delims := t.Delims
	if delims == "" {
		delims = "."
	}
	parts := strings.FieldsFunc(raw, func(r rune) bool {
		return strings.ContainsRune(delims, r)
	})
	if len(parts) == 0 {
		parts = []string{raw}
	}
	if t.Reverse {
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
	}
	if t.Digits > 0 && t.Digits < len(parts) {
		parts = parts[len(parts)-t.Digits:]
	}
	return strings.Join(parts, ".")
}

// URLEscape percent-encodes everything outside the RFC 3986 unreserved
// set, as uppercase macro letters require.
func URLEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isAlpha(c) || isDigit(c) || c == '-' || c == '.' || c == '_' || c == '~' {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// dotFormatIP renders an address for %{i}: dotted quad for IPv4, dotted
// nibbles for IPv6 (RFC 7208 §7.3).
func dotFormatIP(a netip.Addr) string {
	if !a.IsValid() {
		return "invalid"
	}
	if a.Is4() || a.Is4In6() {
		return a.Unmap().String()
	}
	const hex = "0123456789abcdef"
	b16 := a.As16()
	out := make([]byte, 0, 63)
	for i, by := range b16 {
		if i > 0 {
			out = append(out, '.')
		}
		out = append(out, hex[by>>4], '.', hex[by&0xF])
	}
	return string(out)
}

// validatedPTRDomain performs the %{p} procedure: reverse-resolve the IP
// and return a PTR target that forward-resolves back to the IP; "unknown"
// otherwise.
func validatedPTRDomain(ctx context.Context, env *MacroEnv) string {
	if env.LookupPTR == nil || !env.IP.IsValid() {
		return "unknown"
	}
	names, err := env.LookupPTR(ctx, env.IP)
	if err != nil || len(names) == 0 {
		return "unknown"
	}
	// The full forward-confirmation is performed by the evaluator for the
	// ptr mechanism; for the macro we accept the first PTR target, per
	// the "use the first one" latitude of §7.3.
	return strings.TrimSuffix(names[0], ".")
}
