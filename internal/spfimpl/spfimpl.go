// Package spfimpl models the spectrum of SPF implementation behaviors the
// SPFail measurement observed in the wild (paper §4.2, §7.9): the
// RFC-compliant expansion, the uniquely erroneous expansion of the
// vulnerable libSPF2, and the non-compliant variants (missing reversal,
// missing truncation, missing expansion entirely).
//
// Every behavior is expressed as an spf.MacroExpander, so a simulated mail
// host runs the *real* parser and evaluator from internal/spf with only the
// macro-expansion stage swapped — exactly the code path where libSPF2's
// bugs live.
package spfimpl

import (
	"context"
	"fmt"
	"strings"

	"spfail/internal/spf"
)

// Behavior names an SPF implementation's macro-expansion behavior.
type Behavior string

// The behaviors of the SPFail taxonomy.
const (
	// BehaviorCompliant follows RFC 7208 exactly.
	BehaviorCompliant Behavior = "compliant"
	// BehaviorVulnLibSPF2 is unpatched libSPF2: reversal+truncation
	// produces the unique duplicated-prefix fingerprint, and URL
	// encoding overflows the heap (CVE-2021-33912/33913).
	BehaviorVulnLibSPF2 Behavior = "libspf2-vulnerable"
	// BehaviorPatchedLibSPF2 is libSPF2 with the fixes applied; its
	// expansion is RFC-compliant.
	BehaviorPatchedLibSPF2 Behavior = "libspf2-patched"
	// BehaviorNoReverse truncates but ignores the 'r' transformer.
	BehaviorNoReverse Behavior = "no-reverse"
	// BehaviorNoTruncate reverses but ignores the digit transformer.
	BehaviorNoTruncate Behavior = "no-truncate"
	// BehaviorRawValue substitutes the raw macro value, ignoring both
	// transformers.
	BehaviorRawValue Behavior = "raw-value"
	// BehaviorNoExpansion sends the macro text literally, unexpanded.
	BehaviorNoExpansion Behavior = "no-expansion"
	// BehaviorSkipMacros resolves only macro-free terms, skipping any
	// mechanism containing a macro (detectable solely via the probe
	// policy's liveness term).
	BehaviorSkipMacros Behavior = "skip-macros"
)

// Vulnerable reports whether the behavior corresponds to the exploitable
// libSPF2 code path.
func (b Behavior) Vulnerable() bool { return b == BehaviorVulnLibSPF2 }

// Erroneous reports whether the behavior deviates from RFC 7208 (the
// paper's "other erroneous" class plus the vulnerable class).
func (b Behavior) Erroneous() bool {
	switch b {
	case BehaviorCompliant, BehaviorPatchedLibSPF2:
		return false
	}
	return true
}

// AllBehaviors lists every modeled behavior, in taxonomy order.
func AllBehaviors() []Behavior {
	return []Behavior{
		BehaviorCompliant,
		BehaviorVulnLibSPF2,
		BehaviorPatchedLibSPF2,
		BehaviorNoReverse,
		BehaviorNoTruncate,
		BehaviorRawValue,
		BehaviorNoExpansion,
	}
}

// ExpanderFor returns the macro expander implementing a behavior.
// The returned LibSPF2Expander for BehaviorVulnLibSPF2 can additionally
// report overflow events; callers needing them should construct it
// directly.
func ExpanderFor(b Behavior) spf.MacroExpander {
	switch b {
	case BehaviorVulnLibSPF2:
		return &LibSPF2Expander{}
	case BehaviorPatchedLibSPF2:
		return &LibSPF2Expander{Patched: true}
	case BehaviorNoReverse:
		return transformOverride{dropReverse: true}
	case BehaviorNoTruncate:
		return transformOverride{dropDigits: true}
	case BehaviorRawValue:
		return transformOverride{dropReverse: true, dropDigits: true}
	case BehaviorNoExpansion:
		return literalExpander{}
	default:
		return spf.Expander{}
	}
}

// NewChecker builds an SPF checker whose macro stage behaves per b. For
// BehaviorVulnLibSPF2 the checker's Expander is a *LibSPF2Expander whose
// OnOverflow the caller may set.
func NewChecker(b Behavior, r spf.Resolver) *spf.Checker {
	if b == BehaviorSkipMacros {
		// The nil Expander is the compliant one, and lets macro-free terms
		// skip expansion.
		return &spf.Checker{Resolver: r, SkipMacroMechanisms: true}
	}
	return &spf.Checker{Resolver: r, Expander: ExpanderFor(b)}
}

// transformOverride is a compliant expander with selected transformers
// disabled — the partial implementations of §7.9.
type transformOverride struct {
	dropReverse bool
	dropDigits  bool
}

// Expand implements spf.MacroExpander.
func (o transformOverride) Expand(ctx context.Context, macroStr string, env *spf.MacroEnv, forExp bool) (string, error) {
	toks, err := spf.TokenizeMacroString(macroStr)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range toks {
		if !t.IsMacro {
			b.WriteString(t.Literal)
			continue
		}
		raw, err := spf.MacroValue(ctx, t.Letter, env, forExp)
		if err != nil {
			return "", err
		}
		mod := t
		if o.dropReverse {
			mod.Reverse = false
		}
		if o.dropDigits {
			mod.Digits = 0
		}
		val := spf.ApplyTransformers(raw, mod)
		if t.URLEscape {
			val = spf.URLEscape(val)
		}
		b.WriteString(val)
	}
	return b.String(), nil
}

// literalExpander performs no expansion at all: the macro text goes out as
// a literal DNS label, producing queries like %{d1r}.<id>....
type literalExpander struct{}

// Expand implements spf.MacroExpander.
func (literalExpander) Expand(_ context.Context, macroStr string, _ *spf.MacroEnv, _ bool) (string, error) {
	return macroStr, nil
}

// OverflowEvent records a (simulated) heap overflow triggered during
// expansion — the memory-safe stand-in for the corruption an exploited
// libSPF2 would suffer.
type OverflowEvent struct {
	// CVE identifies which flaw fired.
	CVE string
	// Bytes is how many bytes were written past the modeled allocation.
	Bytes int
	// Macro is the token that triggered it, in %{...} form.
	Macro string
}

// String implements fmt.Stringer.
func (e OverflowEvent) String() string {
	return fmt.Sprintf("%s: %d bytes past end of buffer expanding %s", e.CVE, e.Bytes, e.Macro)
}

// The two published identifiers.
const (
	CVEURLEncoding  = "CVE-2021-33912"
	CVEBufferLength = "CVE-2021-33913"
)

// LibSPF2Expander is a behavioral, memory-safe port of the macro-expansion
// code path of libSPF2 1.2.10 (spf_expand.c). Unpatched, it reproduces:
//
//   - CVE-2021-33913: when a macro specifies label reversal together with
//     a digit transformer, the buffer-length variable is overwritten with
//     the (much smaller) truncated length while the code keeps copying the
//     full reversed value — observable on the wire as the truncation-width
//     prefix of the reversed value duplicated in front of the whole
//     reversed value (%{d1r} on example.com → "com.com.example"), and a
//     heap overflow when URL encoding also forces a re-allocation pass.
//
//   - CVE-2021-33912: URL encoding uses sprintf(p, "%%%02x", *c) with a
//     signed char, so bytes ≥ 0x80 sign-extend and print as eight hex
//     digits ("%ffffffXX"), writing six bytes more than the four the
//     buffer sizing assumed.
//
// With Patched set, both flaws are fixed and expansion is RFC-compliant.
type LibSPF2Expander struct {
	Patched bool
	// OnOverflow, if non-nil, receives each simulated overflow.
	OnOverflow func(OverflowEvent)
}

// Expand implements spf.MacroExpander.
func (l *LibSPF2Expander) Expand(ctx context.Context, macroStr string, env *spf.MacroEnv, forExp bool) (string, error) {
	toks, err := spf.TokenizeMacroString(macroStr)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range toks {
		if !t.IsMacro {
			b.WriteString(t.Literal)
			continue
		}
		raw, err := spf.MacroValue(ctx, t.Letter, env, forExp)
		if err != nil {
			return "", err
		}
		val := l.expandOne(raw, t)
		b.WriteString(val)
	}
	return b.String(), nil
}

// expandOne mirrors the per-macro body of spf_expand.
func (l *LibSPF2Expander) expandOne(raw string, t spf.MacroToken) string {
	if l.Patched {
		val := spf.ApplyTransformers(raw, t)
		if t.URLEscape {
			val = spf.URLEscape(val)
		}
		return val
	}

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

	var val string
	switch {
	case t.Reverse && t.Digits > 0 && t.Digits < len(parts):
		// CVE-2021-33913 code path. The reversed value is assembled
		// first; then the truncation pass recomputes the buffer length
		// from the *truncated* label count but copies from the start of
		// the reversed buffer, leaving the truncation prefix duplicated
		// ahead of the full reversed value.
		reversed := make([]string, len(parts))
		for i, p := range parts {
			reversed[len(parts)-1-i] = p
		}
		full := strings.Join(reversed, ".")
		prefix := strings.Join(reversed[:t.Digits], ".")
		val = prefix + "." + full
		// intended allocation tracks only the truncated length;
		// the copy writes the prefix plus the full reversed value.
		intended := len(prefix)
		written := len(val)
		if t.URLEscape {
			// The URL-encoding pass re-walks the (overlong) buffer,
			// writing up to 100 bytes of attacker-chosen data past
			// the undersized allocation.
			over := written - intended
			if over > 100 {
				over = 100
			}
			l.overflow(OverflowEvent{CVE: CVEBufferLength, Bytes: over, Macro: macroText(t)})
		}
	case t.Reverse:
		reversed := make([]string, len(parts))
		for i, p := range parts {
			reversed[len(parts)-1-i] = p
		}
		val = strings.Join(reversed, ".")
	default:
		if t.Digits > 0 && t.Digits < len(parts) {
			parts = parts[len(parts)-t.Digits:]
		}
		val = strings.Join(parts, ".")
	}

	if t.URLEscape {
		val = l.urlEscapeSigned(val, t)
	}
	return val
}

// urlEscapeSigned reproduces the sprintf("%%%02x", *p_read) encoding with a
// signed char argument: bytes ≥ 0x80 sign-extend to 32 bits and print as
// eight hex digits, six bytes longer than the expansion the buffer sizing
// assumed (CVE-2021-33912).
func (l *LibSPF2Expander) urlEscapeSigned(s string, t spf.MacroToken) string {
	var b strings.Builder
	overflowed := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '.' || c == '_' || c == '~':
			b.WriteByte(c)
		case c >= 0x80:
			// signed char sign extension: 0xFE → 0xFFFFFFFE.
			fmt.Fprintf(&b, "%%%08x", 0xFFFFFF00|uint32(c))
			overflowed += 6
		default:
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	if overflowed > 0 {
		l.overflow(OverflowEvent{CVE: CVEURLEncoding, Bytes: overflowed, Macro: macroText(t)})
	}
	return b.String()
}

func (l *LibSPF2Expander) overflow(ev OverflowEvent) {
	if l.OnOverflow != nil {
		l.OnOverflow(ev)
	}
}

// macroText reconstructs the %{...} source of a token for diagnostics.
func macroText(t spf.MacroToken) string {
	var b strings.Builder
	b.WriteString("%{")
	letter := byte(t.Letter)
	if t.URLEscape {
		letter -= 'a' - 'A'
	}
	b.WriteByte(letter)
	if t.Digits > 0 {
		fmt.Fprintf(&b, "%d", t.Digits)
	}
	if t.Reverse {
		b.WriteByte('r')
	}
	b.WriteString(t.Delims)
	b.WriteString("}")
	return b.String()
}
