package dnsmsg

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
)

// appendGolden is the SHA-256 of what Message.Append writes for the
// messages TestAppendGoldenBytes draws. It was recorded with a compressor
// that compared Name labels and shared no code with compress, so it pins
// the compressed bytes independently of the reference tests in
// internal/dnsserver, whose reference and wire path share compress.
const appendGolden = "d7c17468d55173f9de1d838f89003cc74a1dc1c9e6980d6c3b551642f2a0e727"

// TestAppendGoldenBytes encodes 20,000 seeded random messages, every
// record type in every section, with names drawn from a few labels in
// both cases so that compression finds suffixes everywhere, and checks
// the bytes against appendGolden.
func TestAppendGoldenBytes(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	labels := []string{"a", "B", "example", "EXAMPLE", "mail", "x7k2", "s01", "spf-test", "dns-lab", "org", "com", "Mx1"}
	name := func() Name {
		ls := make([]string, 1+r.Intn(5))
		for i := range ls {
			ls[i] = labels[r.Intn(len(labels))]
		}
		return Name{labels: ls}
	}
	h := sha256.New()
	for i := 0; i < 20000; i++ {
		m := NewQuery(uint16(i), name(), TypeANY).Reply()
		m.Header.Authoritative = r.Intn(2) == 0
		for j := r.Intn(12); j > 0; j-- {
			var d RData
			switch r.Intn(8) {
			case 0:
				d = A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(j)})}
			case 1:
				d = MX{Preference: uint16(j), Host: name()}
			case 2:
				d = NS{Host: name()}
			case 3:
				d = CNAME{Target: name()}
			case 4:
				d = PTR{Target: name()}
			case 5:
				d = SOA{MName: name(), RName: name(), Serial: uint32(j)}
			case 6:
				d = AAAA{Addr: netip.MustParseAddr("2001:db8::1")}
			default:
				d = SplitTXT(strings.Repeat("t", r.Intn(600)))
			}
			rr := Record{Name: name(), Class: ClassIN, TTL: uint32(j), Data: d}
			switch r.Intn(3) {
			case 0:
				m.Answers = append(m.Answers, rr)
			case 1:
				m.Authority = append(m.Authority, rr)
			default:
				m.Additional = append(m.Additional, rr)
			}
		}
		b, err := m.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != appendGolden {
		t.Fatalf("Message.Append bytes hash to %s, want %s", got, appendGolden)
	}
}
