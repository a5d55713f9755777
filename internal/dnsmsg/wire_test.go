package dnsmsg

import (
	"bytes"
	"testing"
)

// withAdditional returns pkt with rr appended as its one additional
// record.
func withAdditional(pkt []byte, rr ...byte) []byte {
	out := append(append([]byte(nil), pkt...), rr...)
	out[11] = 1
	return out
}

// optRR is an OPT pseudo-record as recursive resolvers attach it: root
// owner, type 41, a 4,096-byte UDP payload size, the DO bit, no options.
var optRR = []byte{0, 0, 41, 0x10, 0, 0, 0, 0x80, 0, 0, 0}

// TestParseWireQueryTakesOneOPT: a query carrying one EDNS OPT record
// parses as the same query without it, whatever options the OPT carries;
// any other additional record, an OPT that does not end the packet, or
// more than one additional record sends the query to the decoder.
func TestParseWireQueryTakesOneOPT(t *testing.T) {
	plain, err := NewQuery(0x1234, MustParseName("_dmarc.Example.com"), TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := ParseWireQuery(plain)
	if !ok {
		t.Fatal("a plain query does not parse")
	}
	cookie := []byte{0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 12, 0, 10, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8} // an 8-byte client cookie (RFC 7873)
	for name, pkt := range map[string][]byte{
		"bare OPT":          withAdditional(plain, optRR...),
		"OPT with a cookie": withAdditional(plain, cookie...),
	} {
		got, ok := ParseWireQuery(pkt)
		if !ok || got.ID != want.ID || got.RecursionDesired != want.RecursionDesired || got.Type != want.Type ||
			got.Class != want.Class || !bytes.Equal(got.NameWire, want.NameWire) {
			t.Errorf("%s: parsed %+v, %v; want %+v", name, got, ok, want)
		}
	}
	twoOPTs := withAdditional(plain, append(append([]byte(nil), optRR...), optRR...)...)
	twoOPTs[11] = 2
	answerOPT := withAdditional(plain, optRR...)
	answerOPT[7], answerOPT[11] = 1, 0
	for name, pkt := range map[string][]byte{
		"OPT below the root":      withAdditional(plain, 1, 'x', 0, 0, 41, 0x10, 0, 0, 0, 0, 0, 0, 0),
		"an A record at the root": withAdditional(plain, 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1),
		"RDATA past the end":      withAdditional(plain, 0, 0, 41, 0x10, 0, 0, 0, 0, 0, 0, 4, 0, 10),
		"a byte after the OPT":    withAdditional(plain, append(append([]byte(nil), optRR...), 0)...),
		"a cut OPT":               withAdditional(plain, optRR[:10]...),
		"a count and no record":   withAdditional(plain),
		"two OPTs":                twoOPTs,
		"OPT as an answer":        answerOPT,
		"a byte after a question": append(append([]byte(nil), plain...), 0),
		// An A record with 3 bytes of RDATA, which the decoder refuses, at
		// an owner whose label reads as type OPT, and whose TTL reads as
		// an RDATA length that ends the packet, from the owner's offset.
		"an OPT look-alike": withAdditional(plain, 2, 0, 41, 0, 0, 1, 0, 1, 0, 0, 6, 0, 0, 3, 192, 0, 2),
	} {
		if got, ok := ParseWireQuery(pkt); ok {
			t.Errorf("%s: parsed as %+v, want the decoder", name, got)
		}
	}
}
