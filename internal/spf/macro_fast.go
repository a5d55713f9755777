package spf

import (
	"context"
	"fmt"
	"strings"
)

// appendMacroString expands s into dst. It is the allocation-free core of
// Expander.Expand, semantically identical to tokenizing with
// TokenizeMacroString and expanding token by token: a first pass reports
// any syntax error (so syntax errors precede value errors exactly as the
// tokenizing front end ordered them), then a second pass streams literals
// and expanded macros into dst. parts is the transformer's label-splitting
// scratch, threaded through every macro so its capacity is reused.
func appendMacroString(dst []byte, parts []string, ctx context.Context, s string, env *MacroEnv, forExp bool) ([]byte, error) {
	// Pass 1: syntax validation, mirroring TokenizeMacroString's errors.
	for i := 0; i < len(s); {
		if s[i] != '%' {
			i++
			continue
		}
		if i+1 >= len(s) {
			return dst, &SyntaxError{Term: s, Msg: "trailing %"}
		}
		switch s[i+1] {
		case '%', '_', '-':
			i += 2
		case '{':
			end := strings.IndexByte(s[i:], '}')
			if end < 0 {
				return dst, &SyntaxError{Term: s, Msg: "unterminated macro"}
			}
			if _, err := parseMacroBody(s[i+2 : i+end]); err != nil {
				return dst, err
			}
			i += end + 1
		default:
			return dst, &SyntaxError{Term: s, Msg: fmt.Sprintf("bad macro escape %%%c", s[i+1])}
		}
	}
	// Pass 2: expansion. Syntax is known-good, so escapes cannot fail here.
	for i := 0; i < len(s); {
		c := s[i]
		if c != '%' {
			dst = append(dst, c)
			i++
			continue
		}
		switch s[i+1] {
		case '%':
			dst = append(dst, '%')
			i += 2
		case '_':
			dst = append(dst, ' ')
			i += 2
		case '-':
			dst = append(dst, "%20"...)
			i += 2
		default: // '{'
			end := strings.IndexByte(s[i:], '}')
			tok, _ := parseMacroBody(s[i+2 : i+end])
			raw, err := MacroValue(ctx, tok.Letter, env, forExp)
			if err != nil {
				return dst, err
			}
			dst, parts = appendTransformed(dst, parts, raw, tok)
			i += end + 1
		}
	}
	return dst, nil
}

// appendTransformed applies a token's digit/reverse/delimiter transformers
// (RFC 7208 §7.3) and optional URL escaping to raw, appending the result to
// dst. It produces byte-identical output to ApplyTransformers + URLEscape —
// escaping part-by-part is equivalent because '.' is in the unreserved set —
// while splitting into the caller's parts scratch instead of allocating with
// strings.FieldsFunc and Join. It returns the extended dst and parts
// truncated to zero length, so a grown scratch carries to the next macro.
func appendTransformed(dst []byte, parts []string, raw string, t MacroToken) ([]byte, []string) {
	delims := t.Delims
	if delims == "" {
		delims = "."
	}
	parts = parts[:0]
	start := -1
	for i := 0; i < len(raw); i++ {
		if strings.IndexByte(delims, raw[i]) >= 0 {
			if start >= 0 {
				parts = append(parts, raw[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		parts = append(parts, raw[start:])
	}
	if len(parts) == 0 {
		parts = append(parts, raw)
	}
	full := parts // keep the base array so trimming below cannot leak capacity
	if t.Reverse {
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
	}
	if t.Digits > 0 && t.Digits < len(parts) {
		parts = parts[len(parts)-t.Digits:]
	}
	for i, p := range parts {
		if i > 0 {
			dst = append(dst, '.')
		}
		if t.URLEscape {
			dst = appendURLEscaped(dst, p)
		} else {
			dst = append(dst, p...)
		}
	}
	return dst, full[:0]
}

// appendURLEscaped percent-encodes s into dst exactly as URLEscape does.
func appendURLEscaped(dst []byte, s string) []byte {
	const hexUpper = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isAlpha(c) || isDigit(c) || c == '-' || c == '.' || c == '_' || c == '~' {
			dst = append(dst, c)
		} else {
			dst = append(dst, '%', hexUpper[c>>4], hexUpper[c&0xF])
		}
	}
	return dst
}
