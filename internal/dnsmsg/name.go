// Package dnsmsg implements the DNS wire format (RFC 1035): domain names
// with message compression, resource records, and full message
// encoding/decoding.
//
// The codec is deliberately strict on decode (rejecting malformed
// compression loops, truncated records, and oversized names) because the
// SPFail detection pipeline treats every inbound query at the authoritative
// server as evidence; a sloppy parser would mis-attribute fingerprints.
package dnsmsg

import (
	"errors"
	"fmt"
	"strings"
)

// Wire-format size limits from RFC 1035 §2.3.4.
const (
	MaxLabelLen = 63  // maximum length of a single label
	MaxNameLen  = 255 // maximum length of an encoded name
)

// Errors returned by the name codec.
var (
	ErrNameTooLong      = errors.New("dnsmsg: name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnsmsg: label exceeds 63 octets")
	ErrEmptyLabel       = errors.New("dnsmsg: empty label")
	ErrBadPointer       = errors.New("dnsmsg: bad compression pointer")
	ErrPointerLoop      = errors.New("dnsmsg: compression pointer loop")
	ErrTruncatedMessage = errors.New("dnsmsg: truncated message")

	errReservedLabelType = errors.New("dnsmsg: reserved label type")
)

// Name is a fully-qualified domain name held as a sequence of labels.
// The zero Name is the DNS root. Names compare case-insensitively;
// CanonicalKey returns a stable comparison key.
type Name struct {
	labels []string
}

// NewName builds a Name from labels, validating wire-format limits.
func NewName(labels ...string) (Name, error) {
	n := Name{labels: append([]string(nil), labels...)}
	if err := n.validate(); err != nil {
		return Name{}, err
	}
	return n, nil
}

// ParseName parses a presentation-format name such as "example.com." or
// "example.com". An empty string or "." yields the root. Labels containing
// arbitrary bytes (e.g. a literal "%{d1r}") are accepted — the DNS itself is
// 8-bit clean, and SPFail's fingerprint taxonomy depends on names that are
// invalid hostnames but valid DNS names.
func ParseName(s string) (Name, error) {
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return Name{}, nil
	}
	// Split's slice is the name's own: validate it in place rather than
	// have NewName copy it.
	n := Name{labels: strings.Split(s, ".")}
	if err := n.validate(); err != nil {
		return Name{}, err
	}
	return n, nil
}

// MustParseName is ParseName that panics on error, for constants in tests
// and zone setup.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(fmt.Sprintf("dnsmsg: MustParseName(%q): %v", s, err))
	}
	return n
}

func (n Name) validate() error {
	total := 1 // trailing root byte
	for _, l := range n.labels {
		if l == "" {
			return ErrEmptyLabel
		}
		if len(l) > MaxLabelLen {
			return ErrLabelTooLong
		}
		total += len(l) + 1
	}
	if total > MaxNameLen {
		return ErrNameTooLong
	}
	return nil
}

// IsRoot reports whether n is the DNS root.
func (n Name) IsRoot() bool { return len(n.labels) == 0 }

// Labels returns a copy of the name's labels, left to right.
func (n Name) Labels() []string { return append([]string(nil), n.labels...) }

// Clone returns n with a label slice of its own. A name decoded by a
// reused Decoder sits in the Decoder's slots, which its next Decode
// overwrites, so a caller that keeps such a name must keep a clone.
func (n Name) Clone() Name { return Name{labels: append([]string(nil), n.labels...)} }

// NumLabels returns the number of labels in the name.
func (n Name) NumLabels() int { return len(n.labels) }

// Label returns the i-th label (0 = leftmost).
func (n Name) Label(i int) string { return n.labels[i] }

// String renders the name in presentation format with a trailing dot.
func (n Name) String() string {
	if n.IsRoot() {
		return "."
	}
	size := 0
	for _, l := range n.labels {
		size += len(l) + 1
	}
	var b strings.Builder
	b.Grow(size)
	for _, l := range n.labels {
		b.WriteString(l)
		b.WriteByte('.')
	}
	return b.String()
}

// CanonicalKey returns a case-folded comparison key for map lookups. It
// folds ASCII letters only, as Equal compares.
func (n Name) CanonicalKey() string {
	s := n.String()
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				b[j] = asciiLower(b[j])
			}
			return string(b)
		}
	}
	return s
}

// Equal reports case-insensitive equality. Only ASCII letters fold (RFC
// 4343 §3): other bytes, those of a UTF-8 letter included, compare as
// they are.
func (n Name) Equal(o Name) bool {
	if len(n.labels) != len(o.labels) {
		return false
	}
	for i := range n.labels {
		if !asciiEqualFold(n.labels[i], o.labels[i]) {
			return false
		}
	}
	return true
}

// HasSuffix reports whether n equals suffix or is a subdomain of it,
// comparing as Equal does.
func (n Name) HasSuffix(suffix Name) bool {
	if len(suffix.labels) > len(n.labels) {
		return false
	}
	off := len(n.labels) - len(suffix.labels)
	for i := range suffix.labels {
		if !asciiEqualFold(n.labels[off+i], suffix.labels[i]) {
			return false
		}
	}
	return true
}

// Parent returns the name with the leftmost label removed. Parent of the
// root is the root.
func (n Name) Parent() Name {
	if n.IsRoot() {
		return n
	}
	return Name{labels: n.labels[1:]}
}

// Child returns label + "." + n, validating limits.
func (n Name) Child(label string) (Name, error) { return n.Prepend(label) }

// Prepend returns the name whose labels are labels followed by n's,
// validating limits. The new label slice is the name's own, so it is
// validated in place rather than copied: one allocation in all.
func (n Name) Prepend(labels ...string) (Name, error) {
	c := Name{labels: make([]string, len(labels)+len(n.labels))}
	copy(c.labels[copy(c.labels, labels):], n.labels)
	if err := c.validate(); err != nil {
		return Name{}, err
	}
	return c, nil
}

// TLD returns the rightmost label, lower-cased, or "" for the root.
func (n Name) TLD() string {
	if n.IsRoot() {
		return ""
	}
	return strings.ToLower(n.labels[len(n.labels)-1])
}

// appendName encodes n at the end of buf. When cmp is non-nil it carries
// the RFC 1035 §4.1.4 compression state: cmp.compress replaces a suffix
// already on the wire by a pointer and registers the offsets of the
// labels it keeps. The compressor matches against wire bytes directly, so
// this path performs no allocation.
func appendName(buf []byte, n Name, cmp *compressor) ([]byte, error) {
	if err := n.validate(); err != nil {
		return buf, err
	}
	start := len(buf)
	for _, l := range n.labels {
		buf = append(buf, byte(len(l)))
		buf = append(buf, l...)
	}
	buf = append(buf, 0)
	if cmp != nil {
		buf = cmp.compress(buf, start)
	}
	return buf, nil
}

// readName decodes a possibly-compressed name starting at off in msg.
// It returns the name and the offset just past the name's first encoding.
func readName(msg []byte, off int) (Name, int, error) {
	var labels []string
	ptrBudget := len(msg) // any chain longer than the message loops
	jumped := false
	end := off
	total := 1
	for {
		if off >= len(msg) {
			return Name{}, 0, ErrTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				end = off + 1
			}
			return Name{labels: labels}, end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return Name{}, 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if ptr >= len(msg) {
				return Name{}, 0, ErrBadPointer
			}
			if !jumped {
				end = off + 2
				jumped = true
			}
			if ptrBudget--; ptrBudget <= 0 {
				return Name{}, 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return Name{}, 0, fmt.Errorf("dnsmsg: reserved label type 0x%02x", b&0xC0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return Name{}, 0, ErrTruncatedMessage
			}
			if total += l + 1; total > MaxNameLen {
				return Name{}, 0, ErrNameTooLong
			}
			labels = append(labels, string(msg[off+1:off+1+l]))
			off += 1 + l
		}
	}
}
