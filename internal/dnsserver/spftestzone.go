package dnsserver

import (
	"fmt"
	"net"
	"net/netip"

	"spfail/internal/dnsmsg"
)

// SPFTestZone is the dynamic authoritative zone at the center of SPFail's
// remote detection (paper §5.1). For any MAIL FROM domain of the form
// <id>.<suite>.<base>, it synthesizes the probe policy
//
//	v=spf1 a:%{d1r}.<id>.<suite>.<base> a:b.<id>.<suite>.<base> -all
//
// echoing the id and suite labels from the query name. When the probed mail
// server retrieves this policy, the way it expands %{d1r} is revealed by its
// follow-up A/AAAA queries — which this zone answers (and which the
// enclosing LoggingHandler records). The second, macro-free mechanism
// (a:b.<id>...) serves as a liveness marker: its lookup proves the policy
// was parsed even if the macro term was skipped.
type SPFTestZone struct {
	// Base is the zone apex, e.g. spf-test.dns-lab.org.
	Base dnsmsg.Name
	// Addr4 is returned for A queries under Base.
	Addr4 netip.Addr
	// Addr6, if valid, is returned for AAAA queries under Base.
	Addr6 netip.Addr
}

// PolicyFor returns the SPF policy text served for a MAIL FROM domain.
func (z *SPFTestZone) PolicyFor(mailDomain dnsmsg.Name) string {
	d := mailDomain.String() // trailing dot form
	d = d[:len(d)-1]
	return fmt.Sprintf("v=spf1 a:%%{d1r}.%s a:b.%s -all", d, d)
}

// MailDomain constructs the probe MAIL FROM domain for an id and suite,
// in one allocation.
func (z *SPFTestZone) MailDomain(id, suite string) (dnsmsg.Name, error) {
	return z.Base.Prepend(id, suite)
}

// ExtractIDSuite pulls the <id> and <suite> labels out of any query name
// under the zone: they are the two labels immediately preceding the base.
func (z *SPFTestZone) ExtractIDSuite(qname dnsmsg.Name) (id, suite string, ok bool) {
	if !qname.HasSuffix(z.Base) {
		return "", "", false
	}
	extra := qname.NumLabels() - z.Base.NumLabels()
	if extra < 2 {
		return "", "", false
	}
	return qname.Label(extra - 2), qname.Label(extra - 1), true
}

// ServeDNS implements Handler.
func (z *SPFTestZone) ServeDNS(q *dnsmsg.Message, _ net.Addr) *dnsmsg.Message {
	resp := q.Reply()
	resp.Header.Authoritative = true
	qq := q.Questions[0]
	if !qq.Name.HasSuffix(z.Base) {
		resp.Header.RCode = dnsmsg.RCodeRefused
		return resp
	}
	extra := qq.Name.NumLabels() - z.Base.NumLabels()
	switch qq.Type {
	case dnsmsg.TypeTXT:
		switch {
		case extra == 2:
			// The MAIL FROM domain itself carries the probe policy; TXT
			// for expansion targets is empty.
			id, suite, _ := z.ExtractIDSuite(qq.Name)
			md, err := z.MailDomain(id, suite)
			if err == nil {
				resp.Answers = append(resp.Answers, dnsmsg.Record{
					Name: qq.Name, Class: dnsmsg.ClassIN, TTL: 1,
					Data: dnsmsg.SplitTXT(z.PolicyFor(md)),
				})
			}
		case extra == 3 && qq.Name.Label(0) == "_dmarc":
			// Per §6.2, the probe source domains publish a DMARC reject
			// policy so that any blank probe email that slips through is
			// discarded rather than delivered.
			resp.Answers = append(resp.Answers, dnsmsg.Record{
				Name: qq.Name, Class: dnsmsg.ClassIN, TTL: 1,
				Data: dnsmsg.SplitTXT("v=DMARC1; p=reject; aspf=s; adkim=s"),
			})
		}
	case dnsmsg.TypeA:
		if extra >= 1 && z.Addr4.IsValid() {
			resp.Answers = append(resp.Answers, dnsmsg.Record{
				Name: qq.Name, Class: dnsmsg.ClassIN, TTL: 1,
				Data: dnsmsg.A{Addr: z.Addr4},
			})
		}
	case dnsmsg.TypeAAAA:
		if extra >= 1 && z.Addr6.IsValid() {
			resp.Answers = append(resp.Answers, dnsmsg.Record{
				Name: qq.Name, Class: dnsmsg.ClassIN, TTL: 1,
				Data: dnsmsg.AAAA{Addr: z.Addr6},
			})
		}
	case dnsmsg.TypeMX:
		// No MX under the test zone: senders fall back to A per RFC 5321.
	}
	return resp
}
