package dnsserver

import (
	"strings"
	"testing"

	"spfail/internal/dnsmsg"
)

const sampleZone = `
$ORIGIN example.com.
$TTL 300
@       IN  SOA ns1 hostmaster 2021101100 7200 900 86400 60
@       IN  NS  ns1
@           MX  10 mail
        IN  MX  20 backup.other.net.
mail    60  A   192.0.2.1
mail    IN  AAAA 2001:db8::1
@       IN  TXT "v=spf1 mx -all"           ; the policy
multi   IN  TXT "part one " "part two"
www     IN  CNAME mail
quoted  IN  TXT "semi;colon \"inside\" quotes"
`

func TestParseZoneFileBasics(t *testing.T) {
	z, err := ParseZoneString(sampleZone)
	if err != nil {
		t.Fatal(err)
	}
	apex := name("example.com")

	soa, _ := z.Lookup(apex, dnsmsg.TypeSOA)
	if len(soa) != 1 {
		t.Fatalf("SOA = %v", soa)
	}
	s := soa[0].Data.(dnsmsg.SOA)
	if !s.MName.Equal(name("ns1.example.com")) || s.Serial != 2021101100 || s.Minimum != 60 {
		t.Errorf("SOA = %+v", s)
	}

	mx, _ := z.Lookup(apex, dnsmsg.TypeMX)
	if len(mx) != 2 {
		t.Fatalf("MX = %v", mx)
	}
	if !mx[0].Data.(dnsmsg.MX).Host.Equal(name("mail.example.com")) {
		t.Errorf("relative MX target = %v", mx[0].Data)
	}
	if !mx[1].Data.(dnsmsg.MX).Host.Equal(name("backup.other.net")) {
		t.Errorf("absolute MX target = %v", mx[1].Data)
	}

	a, _ := z.Lookup(name("mail.example.com"), dnsmsg.TypeA)
	if len(a) != 1 || a[0].TTL != 60 {
		t.Fatalf("A = %v", a)
	}
	aaaa, _ := z.Lookup(name("mail.example.com"), dnsmsg.TypeAAAA)
	if len(aaaa) != 1 {
		t.Fatalf("AAAA = %v", aaaa)
	}

	txt, _ := z.Lookup(apex, dnsmsg.TypeTXT)
	if len(txt) != 1 || txt[0].Data.(dnsmsg.TXT).Joined() != "v=spf1 mx -all" {
		t.Errorf("TXT = %v", txt)
	}
	if txt[0].TTL != 300 {
		t.Errorf("default TTL = %d", txt[0].TTL)
	}

	multi, _ := z.Lookup(name("multi.example.com"), dnsmsg.TypeTXT)
	if got := multi[0].Data.(dnsmsg.TXT).Joined(); got != "part one part two" {
		t.Errorf("multi-string TXT = %q", got)
	}

	cname, _ := z.Lookup(name("www.example.com"), dnsmsg.TypeCNAME)
	if len(cname) != 1 {
		t.Fatalf("CNAME = %v", cname)
	}

	q, _ := z.Lookup(name("quoted.example.com"), dnsmsg.TypeTXT)
	if got := q[0].Data.(dnsmsg.TXT).Joined(); got != `semi;colon "inside" quotes` {
		t.Errorf("quoted TXT = %q", got)
	}
}

func TestParseZoneFileBlankOwnerRepeats(t *testing.T) {
	z, err := ParseZoneString(`$ORIGIN x.example.
host IN A 192.0.2.1
     IN A 192.0.2.2
`)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := z.Lookup(name("host.x.example"), dnsmsg.TypeA)
	if len(a) != 2 {
		t.Fatalf("repeated-owner A records = %v", a)
	}
}

func TestParseZoneFileErrors(t *testing.T) {
	bad := []string{
		`host IN A 192.0.2.1`, // relative name without origin
		"$ORIGIN x.example.\nhost IN A 999.1.1.1",
		"$ORIGIN x.example.\nhost IN AAAA 192.0.2.1",
		"$ORIGIN x.example.\nhost IN MX ten mail",
		"$ORIGIN x.example.\nhost IN FOO bar",
		"$ORIGIN x.example.\nhost IN TXT \"unterminated",
		"$ORIGIN x.example.\nhost IN",
		"$TTL abc",
		"$ORIGIN",
		"$ORIGIN x.example.\n   IN A 192.0.2.1", // blank owner with no previous
		longTXTZone(1, 256),                     // a character-string over 255 bytes
		longTXTZone(257, 255),                   // TXT RDATA over 65535 bytes
	}
	for _, s := range bad {
		if _, err := ParseZoneString(s); err == nil {
			t.Errorf("ParseZoneString(%q) should fail", s)
		}
	}
}

// longTXTZone is a one-record zone whose TXT holds n strings of size bytes.
func longTXTZone(n, size int) string {
	q := `"` + strings.Repeat("a", size) + `"`
	return "$ORIGIN x.example.\nhost IN TXT " + strings.TrimSpace(strings.Repeat(q+" ", n))
}

// TestParseZoneFileTXTBounds checks the largest TXT the wire can carry: a
// 255-byte string, and 255 such strings (65,280 bytes of RDATA), parse and
// encode; one byte or one string more is rejected (TestParseZoneFileErrors).
// Found by FuzzParseZoneString's encode property.
func TestParseZoneFileTXTBounds(t *testing.T) {
	for _, zone := range []string{longTXTZone(1, 255), longTXTZone(255, 255)} {
		z, err := ParseZoneString(zone)
		if err != nil {
			t.Fatal(err)
		}
		resp := z.ServeDNS(dnsmsg.NewQuery(1, name("host.x.example"), dnsmsg.TypeTXT), nil)
		if len(resp.Answers) != 1 {
			t.Fatalf("answers = %d, want 1", len(resp.Answers))
		}
		if _, err := resp.Pack(); err != nil {
			t.Fatalf("accepted TXT does not encode: %v", err)
		}
	}
}

func TestParsedZoneServes(t *testing.T) {
	z, err := ParseZoneString(strings.ReplaceAll(sampleZone, "\t", "  "))
	if err != nil {
		t.Fatal(err)
	}
	resp := z.ServeDNS(dnsmsg.NewQuery(9, name("example.com"), dnsmsg.TypeTXT), nil)
	if len(resp.Answers) != 1 {
		t.Fatalf("served answers = %v", resp.Answers)
	}
	// NXDOMAIN gets the file's SOA.
	resp = z.ServeDNS(dnsmsg.NewQuery(9, name("missing.example.com"), dnsmsg.TypeA), nil)
	if resp.Header.RCode != dnsmsg.RCodeNXDomain || len(resp.Authority) != 1 {
		t.Fatalf("negative answer = %+v", resp)
	}
}
