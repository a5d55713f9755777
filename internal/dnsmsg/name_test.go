package dnsmsg

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseNameBasics(t *testing.T) {
	cases := []struct {
		in     string
		labels []string
		str    string
	}{
		{"example.com", []string{"example", "com"}, "example.com."},
		{"example.com.", []string{"example", "com"}, "example.com."},
		{"", nil, "."},
		{".", nil, "."},
		{"a.b.c.d.e", []string{"a", "b", "c", "d", "e"}, "a.b.c.d.e."},
		{"%{d1r}.x7f3.s1.spf-test.dns-lab.org", []string{"%{d1r}", "x7f3", "s1", "spf-test", "dns-lab", "org"}, "%{d1r}.x7f3.s1.spf-test.dns-lab.org."},
	}
	for _, c := range cases {
		n, err := ParseName(c.in)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(n.Labels(), c.labels) && !(len(n.Labels()) == 0 && len(c.labels) == 0) {
			t.Errorf("ParseName(%q).Labels() = %v, want %v", c.in, n.Labels(), c.labels)
		}
		if got := n.String(); got != c.str {
			t.Errorf("ParseName(%q).String() = %q, want %q", c.in, got, c.str)
		}
	}
}

func TestParseNameErrors(t *testing.T) {
	long := strings.Repeat("a", 64)
	if _, err := ParseName(long + ".com"); err != ErrLabelTooLong {
		t.Errorf("63+ label: got %v, want ErrLabelTooLong", err)
	}
	if _, err := ParseName("a..com"); err != ErrEmptyLabel {
		t.Errorf("empty label: got %v, want ErrEmptyLabel", err)
	}
	big := strings.Repeat(strings.Repeat("a", 62)+".", 5)
	if _, err := ParseName(big); err != ErrNameTooLong {
		t.Errorf("long name: got %v, want ErrNameTooLong", err)
	}
}

func TestNameEqualCaseInsensitive(t *testing.T) {
	a := MustParseName("Example.COM")
	b := MustParseName("example.com")
	if !a.Equal(b) {
		t.Error("Example.COM should equal example.com")
	}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("canonical keys differ for case variants")
	}
	if a.Equal(MustParseName("example.org")) {
		t.Error("example.com should not equal example.org")
	}
}

// TestNameFoldsASCIIOnly: Equal, HasSuffix, CanonicalKey and
// AppendFoldedName fold ASCII letters only (RFC 4343 §3), as the
// wire-side comparisons do, so U+017F (long s, which Unicode folds to s)
// and U+212A (the Kelvin sign, which folds to k) stay themselves.
func TestNameFoldsASCIIOnly(t *testing.T) {
	folded := func(s string) []byte {
		wire, err := appendName(nil, MustParseName(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		return AppendFoldedName(nil, wire)
	}
	for _, tc := range []struct{ foreign, ascii string }{
		{"\u017Fk.example", "sk.example"},
		{"\u212Ait.example", "kit.example"},
	} {
		f, a := MustParseName(tc.foreign), MustParseName(tc.ascii)
		if f.Equal(a) {
			t.Errorf("%s equals %s", f, a)
		}
		if MustParseName("x."+tc.foreign).HasSuffix(a) || MustParseName("x."+tc.ascii).HasSuffix(f) {
			t.Errorf("%s and %s match as suffixes", f, a)
		}
		if f.CanonicalKey() == a.CanonicalKey() {
			t.Errorf("%s and %s share the key %q", f, a, a.CanonicalKey())
		}
		if got := MustParseName(strings.ToUpper(tc.ascii)).CanonicalKey(); got != tc.ascii+"." {
			t.Errorf("CanonicalKey(%s) = %q", strings.ToUpper(tc.ascii), got)
		}
		if got := MustParseName("X." + tc.foreign).CanonicalKey(); got != "x."+tc.foreign+"." {
			t.Errorf("CanonicalKey(X.%s) = %q, want only the ASCII letter folded", tc.foreign, got)
		}
		if bytes.Equal(folded(tc.foreign), folded(tc.ascii)) {
			t.Errorf("%s and %s fold to the same wire key", f, a)
		}
		if got, want := folded("X."+strings.ToUpper(tc.ascii)), folded("x."+tc.ascii); !bytes.Equal(got, want) {
			t.Errorf("AppendFoldedName(X.%s) = %q, want %q", strings.ToUpper(tc.ascii), got, want)
		}
		if got, want := folded("X."+tc.foreign), append([]byte{1, 'x'}, folded(tc.foreign)...); !bytes.Equal(got, want) {
			t.Errorf("AppendFoldedName(X.%s) = %q, want only the ASCII letter folded", tc.foreign, got)
		}
	}
}

func TestNameHasSuffix(t *testing.T) {
	base := MustParseName("spf-test.dns-lab.org")
	sub := MustParseName("x7.s1.SPF-TEST.dns-lab.ORG")
	if !sub.HasSuffix(base) {
		t.Error("subdomain should have suffix")
	}
	if !base.HasSuffix(base) {
		t.Error("name should have itself as suffix")
	}
	if base.HasSuffix(sub) {
		t.Error("parent should not have child as suffix")
	}
	if !base.HasSuffix(Name{}) {
		t.Error("every name is under the root")
	}
}

func TestNameParentChildTLD(t *testing.T) {
	n := MustParseName("mail.example.com")
	if got := n.Parent().String(); got != "example.com." {
		t.Errorf("Parent = %q", got)
	}
	if got := n.TLD(); got != "com" {
		t.Errorf("TLD = %q", got)
	}
	c, err := MustParseName("example.com").Child("mail")
	if err != nil || !c.Equal(n) {
		t.Errorf("Child = %v, %v", c, err)
	}
	long := MustParseName(strings.Repeat(strings.Repeat("x", 60)+".", 4) + "com") // 249 bytes on the wire
	for _, tc := range []struct {
		parent Name
		label  string
		want   error
	}{
		{n, "", ErrEmptyLabel},
		{n, strings.Repeat("l", 64), ErrLabelTooLong},
		{long, strings.Repeat("w", 63), ErrNameTooLong},
	} {
		if c, err := tc.parent.Child(tc.label); err != tc.want || !c.IsRoot() {
			t.Errorf("Child(%d-byte label) = %v, %v; want the root and %v", len(tc.label), c, err, tc.want)
		}
	}
	if c, err := MustParseName("example.com").Prepend("a", "mail"); err != nil || c.String() != "a.mail.example.com." {
		t.Errorf("Prepend = %v, %v", c, err)
	}
	if c, err := (Name{}).Prepend("example", "com"); err != nil || c.String() != "example.com." {
		t.Errorf("Prepend onto the root = %v, %v", c, err)
	}
	if c, err := n.Prepend("ok", ""); err != ErrEmptyLabel || !c.IsRoot() {
		t.Errorf("Prepend of an empty label = %v, %v; want the root and %v", c, err, ErrEmptyLabel)
	}
	if !(Name{}).Parent().IsRoot() {
		t.Error("parent of root should be root")
	}
	if (Name{}).TLD() != "" {
		t.Error("TLD of root should be empty")
	}
}

func TestNameRoundTripWire(t *testing.T) {
	for _, s := range []string{"example.com", ".", "a.b.c", "with-dash.x0.org"} {
		n := MustParseName(s)
		buf, err := appendName(nil, n, nil)
		if err != nil {
			t.Fatalf("appendName(%q): %v", s, err)
		}
		got, end, err := readName(buf, 0)
		if err != nil {
			t.Fatalf("readName(%q): %v", s, err)
		}
		if !got.Equal(n) {
			t.Errorf("round trip %q → %q", n, got)
		}
		if end != len(buf) {
			t.Errorf("end = %d, want %d", end, len(buf))
		}
	}
}

func TestNameCompressionPointer(t *testing.T) {
	cmp := new(compressor)
	buf, err := appendName(nil, MustParseName("mail.example.com"), cmp)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = appendName(buf, MustParseName("smtp.example.com"), cmp)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should use a pointer: "smtp" label (5 bytes) + 2-byte ptr.
	if got := len(buf) - first; got != 7 {
		t.Errorf("compressed name used %d bytes, want 7", got)
	}
	n, _, err := readName(buf, first)
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "smtp.example.com." {
		t.Errorf("decoded %q", n)
	}
}

func TestReadNamePointerLoop(t *testing.T) {
	// A pointer pointing at itself.
	msg := []byte{0xC0, 0x00}
	if _, _, err := readName(msg, 0); err == nil {
		t.Fatal("self-referential pointer should error")
	}
}

func TestReadNameTruncated(t *testing.T) {
	for _, msg := range [][]byte{
		{},            // empty
		{5, 'a', 'b'}, // label runs past end
		{0xC0},        // pointer missing second byte
		{1, 'a'},      // missing terminator
		{0x80, 0x01},  // reserved label type
		{0xC0, 0x7F},  // pointer past end
	} {
		if _, _, err := readName(msg, 0); err == nil {
			t.Errorf("readName(%v) should error", msg)
		}
	}
}

// quickName generates a random valid Name for property tests.
func quickName(r *rand.Rand) Name {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-_%{}"
	nl := 1 + r.Intn(5)
	labels := make([]string, nl)
	for i := range labels {
		ll := 1 + r.Intn(20)
		b := make([]byte, ll)
		for j := range b {
			b[j] = alpha[r.Intn(len(alpha))]
		}
		labels[i] = string(b)
	}
	n, err := NewName(labels...)
	if err != nil {
		return Name{}
	}
	return n
}

func TestPropertyNameWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := quickName(r)
		buf, err := appendName(nil, n, nil)
		if err != nil {
			return false
		}
		got, end, err := readName(buf, 0)
		return err == nil && got.Equal(n) && end == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompressedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		names := make([]Name, 1+r.Intn(6))
		for i := range names {
			names[i] = quickName(r)
		}
		cmp := new(compressor)
		var buf []byte
		offsets := make([]int, len(names))
		var err error
		for i, n := range names {
			offsets[i] = len(buf)
			if buf, err = appendName(buf, n, cmp); err != nil {
				return false
			}
		}
		for i, n := range names {
			got, _, err := readName(buf, offsets[i])
			if err != nil || !got.Equal(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
