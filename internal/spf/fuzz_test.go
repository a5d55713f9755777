package spf

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// FuzzParse checks that the record parser never panics and that accepted
// records render and re-parse stably.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"v=spf1 -all",
		"v=spf1 a mx ptr ip4:192.0.2.0/24 ip6:2001:db8::/32 include:x.org exists:%{ir}.rbl.example -all",
		"v=spf1 a:%{d1r}.x.s.spf-test.dns-lab.org a:b.x.s.spf-test.dns-lab.org -all",
		"v=spf1 redirect=_spf.example.com exp=e.%{d}",
		"v=spf1 ~all ?a +mx -ptr:x.example",
		"v=spf1 a/24//64",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rec, err := Parse(s)
		if err != nil {
			return
		}
		out := rec.String()
		rec2, err := Parse(out)
		if err != nil {
			t.Fatalf("rendered record %q does not re-parse: %v", out, err)
		}
		if rec2.String() != out {
			t.Fatalf("String not a fixed point: %q vs %q", out, rec2.String())
		}
	})
}

// FuzzTokenizeAndExpand checks macro tokenization and expansion for
// panics across arbitrary macro-strings.
func FuzzTokenizeAndExpand(f *testing.F) {
	for _, s := range []string{
		"%{d1r}.foo.com", "%{s}", "%{L2r-}", "%%x%_%-", "%{ir}.%{v}.arpa",
		"%{p}", "plain.example",
	} {
		f.Add(s)
	}
	env := &MacroEnv{
		Sender: "user@example.com",
		Domain: "example.com",
		IP:     netip.MustParseAddr("192.0.2.1"),
		HELO:   "helo.example.com",
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks, err := TokenizeMacroString(s)
		if err != nil {
			return
		}
		// Every token must be well-formed.
		for _, tok := range toks {
			if tok.IsMacro && tok.Letter == 0 {
				t.Fatal("macro token with zero letter")
			}
		}
		if _, err := (Expander{}).Expand(context.Background(), s, env, true); err != nil {
			// Expansion of tokenizable input may still fail for exp-only
			// macros misuse etc. — but not here, since forExp is true and
			// tokenization succeeded.
			t.Fatalf("expand of tokenizable %q failed: %v", s, err)
		}
	})
}

// FuzzExpandMatchesTokenized is a differential check of the macro fast
// path: for any tokenizable macro-string and any sender, in domain-spec
// and in exp context, Expander.Expand must equal the token-by-token
// reference built from TokenizeMacroString, MacroValue, ApplyTransformers
// and URLEscape.
func FuzzExpandMatchesTokenized(f *testing.F) {
	for _, s := range []string{
		"%{d1r}.x7k2.s01.spf-test.dns-lab.org", "%{ir}.%{v}._spf.%{d2}",
		"%{L2r-}", "%{S}", "%{o-.}", "%{l1r+-}.x", "%%x%_%-", "%{c}.%{r}.%{t}",
		"%{h3r=_/,}", "plain.example",
	} {
		f.Add(s, "user@example.com", false)
		f.Add(s, "first.last+tag@sub.example.org", true)
	}
	f.Add("%{s}.%{l}.%{o}", "", true)
	f.Add("%{l}", "@example.com", false)
	f.Fuzz(func(t *testing.T, s, sender string, forExp bool) {
		// Two macros already overflow Expand's stack buffer, so longer
		// inputs reach no new path; they only make each minimization of
		// an interesting input quadratic in its length.
		if len(s) > 256 || len(sender) > 256 {
			return
		}
		toks, err := TokenizeMacroString(s)
		if err != nil {
			return
		}
		env := &MacroEnv{
			Sender:   sender,
			Domain:   "x7k2.s01.spf-test.dns-lab.org",
			IP:       netip.MustParseAddr("192.0.2.1"),
			HELO:     "helo.example.com",
			Receiver: "mx.receiver.example",
			Now:      func() time.Time { return time.Unix(1_700_000_000, 0) },
		}
		ctx := context.Background()
		var want strings.Builder
		for _, tok := range toks {
			if !tok.IsMacro {
				want.WriteString(tok.Literal)
				continue
			}
			raw, err := MacroValue(ctx, tok.Letter, env, forExp)
			if err != nil {
				if _, err := (Expander{}).Expand(ctx, s, env, forExp); err == nil {
					t.Fatalf("Expand(%q) succeeded where MacroValue(%q) fails", s, tok.Letter)
				}
				return
			}
			v := ApplyTransformers(raw, tok)
			if tok.URLEscape {
				v = URLEscape(v)
			}
			want.WriteString(v)
		}
		got, err := (Expander{}).Expand(ctx, s, env, forExp)
		if err != nil {
			t.Fatalf("Expand(%q) failed where the reference succeeds: %v", s, err)
		}
		if got != want.String() {
			t.Fatalf("Expand(%q) with sender %q = %q, reference = %q", s, sender, got, want.String())
		}
	})
}
