package dnsserver

import (
	"testing"

	"spfail/internal/dnsmsg"
)

// exampleZone is the master file examples/zonefile serves.
const exampleZone = `
$ORIGIN corp.example.
$TTL 300
@      IN SOA ns1 hostmaster 2026070500 7200 900 86400 60
@      IN NS  ns1
@      IN MX  10 mail
@      IN MX  20 backup
@      IN TXT "v=spf1 mx ip4:203.0.113.0/24 -all"
_dmarc IN TXT "v=DMARC1; p=quarantine"
ns1    IN A   192.0.2.53
mail   IN A   203.0.113.25
mail   IN AAAA 2001:db8::25
backup IN A   203.0.113.26
www    IN CNAME mail
`

// FuzzParseZoneString feeds hostile master files to the parser that
// spfail-dns -zone reads. It must not panic, every record it accepts must
// be stored (ZoneSet.Add refuses a record that does not encode), and the
// server's answer to each stored record's name and type must equal the
// reference zone's over both transports.
func FuzzParseZoneString(f *testing.F) {
	f.Add(sampleZone)
	f.Add(exampleZone)
	f.Add("$ORIGIN x.example.\nhost IN A 192.0.2.1\n     IN A 192.0.2.2\n")
	f.Add("$ORIGIN x.example.\nhost IN TXT \"unterminated")
	f.Add("$ORIGIN x.example.\n@ 60 IN PTR ptr.other.\n@ IN 60 MX 5 @\n")
	f.Add(longTXTZone(1, 255))
	f.Add(longTXTZone(1, 256))
	f.Fuzz(func(t *testing.T, s string) {
		z, err := ParseZoneString(s)
		if err != nil {
			return
		}
		recs := z.records(t)
		ref := newRefZone(recs...)
		for _, rr := range recs {
			pkt, err := dnsmsg.NewQuery(1, rr.Name, rr.Data.Type()).Pack()
			if err != nil {
				t.Fatalf("query for the %s record at %s does not pack: %v", rr.Data.Type(), rr.Name, err)
			}
			checkAgainstReference(t, z, ref, pkt)
		}
	})
}
