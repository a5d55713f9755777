package study

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"spfail/internal/measure"
	"spfail/internal/population"
	"spfail/internal/smtp"
)

// NotificationResult summarizes the private-notification campaign (§7.7).
type NotificationResult struct {
	// Sent is the number of notification emails dispatched.
	Sent int
	// Bounced is how many were returned/refused (paper: 2,054 = 31.6%).
	Bounced int
	// Delivered = Sent - Bounced.
	Delivered int
	// Opened is how many loaded the tracking pixel (paper: 512 = 12%).
	Opened int
	// OpenedAndPatched is openers that patched at any point (paper: 177).
	OpenedAndPatched int
	// OpenedPatchedBetweenDisclosures is openers patching between the
	// private notification and the public disclosure (paper: 9).
	OpenedPatchedBetweenDisclosures int
	// UndeliveredPatchedBetween is non-recipients patching in the same
	// window — attributable to package updates, not to us (paper: 37).
	UndeliveredPatchedBetween int
	// PerDomain records each domain's funnel state.
	PerDomain map[string]NotificationState
}

// NotificationState is one domain's path through the funnel.
type NotificationState struct {
	Bounced  bool
	Opened   bool
	OpenedAt time.Time
}

// Notifier runs the notification campaign over the simulated network:
// one email per vulnerable domain to postmaster@<domain>, sent from a
// vantage distinct from the measurement prober, with an embedded tracking
// pixel served by Tracker.
type Notifier struct {
	Rig *measure.Rig
	// TrackerAddr is where recipients fetch pixels, e.g. "192.0.2.90:80".
	TrackerAddr string
	// SenderIP is the notification vantage (≠ probe IP, per §7.7).
	SenderIP string
	// Seed drives the bounce/open sampling.
	Seed int64
}

// Notify sends one notification per vulnerable domain. vulnDomains maps
// domain → its vulnerable addresses; domains sharing all their addresses
// with an earlier domain receive no duplicate mail (§7.7). The open
// simulation is driven by the world's notification rates, with openers
// biased toward domains that would patch anyway — matching the paper's
// observed correlation.
func (n *Notifier) Notify(ctx context.Context, vulnDomains map[string][]netip.Addr) NotificationResult {
	res := NotificationResult{PerDomain: make(map[string]NotificationState)}
	rng := rand.New(rand.NewSource(n.Seed))
	spec := n.Rig.World.Spec
	clk := n.Rig.Clock

	domains := make([]string, 0, len(vulnDomains))
	for d := range vulnDomains {
		domains = append(domains, d)
	}
	sort.Strings(domains)

	// Deduplicate by address set: one email per distinct MX footprint.
	seenFootprint := map[string]bool{}
	var toNotify []string
	for _, d := range domains {
		addrs := vulnDomains[d]
		key := footprint(addrs)
		if seenFootprint[key] {
			continue
		}
		seenFootprint[key] = true
		toNotify = append(toNotify, d)
	}

	client := &smtp.Client{
		Net:       n.Rig.Fabric.Host(n.SenderIP),
		HELO:      "notify.dns-lab.org",
		IOTimeout: 5 * time.Second,
		Clk:       clk,
	}

	for i, d := range toNotify {
		addrs := vulnDomains[d]
		res.Sent++
		st := NotificationState{}

		// Sampled hard-bounce rate models mailboxes that reject or
		// return postmaster mail; delivery failures on the wire add to
		// it naturally.
		delivered := false
		if rng.Float64() >= spec.NotificationBounceRate {
			pixelID := fmt.Sprintf("n%06d", i)
			delivered = n.deliver(ctx, client, d, addrs, pixelID)
			if delivered {
				st.Bounced = false
				// Decide whether this recipient opens the email.
				if n.shouldOpen(rng, addrs) {
					// The recipient's mail client fetches the pixel from
					// the domain's own vantage.
					from := addrs[0].String()
					if err := FetchPixel(ctx, clk, n.Rig.Fabric.Host(from), n.TrackerAddr, pixelID); err == nil {
						st.Opened = true
						st.OpenedAt = clk.Now()
					}
				}
			}
		}
		if !delivered {
			st.Bounced = true
			res.Bounced++
		}
		res.PerDomain[d] = st
	}
	res.Delivered = res.Sent - res.Bounced
	for _, st := range res.PerDomain {
		if st.Opened {
			res.Opened++
		}
	}
	return res
}

// deliver attempts the actual SMTP delivery of the notification to
// postmaster@domain via the domain's first reachable address.
func (n *Notifier) deliver(ctx context.Context, client *smtp.Client, domain string, addrs []netip.Addr, pixelID string) bool {
	if len(addrs) == 0 {
		return false
	}
	// Hosts must be running to receive mail; the campaign brings up the
	// longitudinal targets, which include every vulnerable address.
	addr := netip.AddrPortFrom(addrs[0], 25).String()
	conn, err := client.Dial(ctx, addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	if err := conn.Hello(); err != nil {
		return false
	}
	if err := conn.Mail("disclosure@notify.dns-lab.org"); err != nil {
		return false
	}
	if err := conn.Rcpt("postmaster@" + domain); err != nil {
		return false
	}
	if err := conn.Data(); err != nil {
		return false
	}
	body := notificationBody(domain, PixelURL(n.TrackerAddr, pixelID))
	r, err := conn.SendMessage([]byte(body))
	if err != nil || !r.Positive() {
		return false
	}
	conn.Quit()
	return true
}

// shouldOpen samples the open decision, biased so that recipients whose
// hosts are on a notification-window patch plan always open — reproducing
// the paper's (weak) correlation between opens and patching.
func (n *Notifier) shouldOpen(rng *rand.Rand, addrs []netip.Addr) bool {
	for _, a := range addrs {
		if h := n.Rig.World.Hosts[a]; h != nil && h.PatchVia == population.PatchNotification {
			return true
		}
	}
	return rng.Float64() < n.Rig.World.Spec.NotificationOpenRate
}

// notificationBody renders the disclosure email: multipart-style with a
// plain-text section and an HTML section embedding the tracking image,
// as §7.7 describes.
func notificationBody(domain, pixelURL string) string {
	return fmt.Sprintf(`From: SPF Vulnerability Research <disclosure@notify.dns-lab.org>
To: postmaster@%[1]s
Subject: Vulnerable libSPF2 on mail servers for %[1]s
MIME-Version: 1.0
Content-Type: multipart/alternative; boundary=BOUND

--BOUND
Content-Type: text/plain

Our measurements indicate that a mail server handling email for %[1]s
uses a version of libSPF2 containing two remotely exploitable heap
overflows (to be published as CVE-2021-33912 and CVE-2021-33913).
Please upgrade libSPF2 or switch SPF validation libraries before the
public disclosure on 2022-01-19.

--BOUND
Content-Type: text/html

<html><body><p>Our measurements indicate that a mail server handling
email for %[1]s uses a vulnerable version of libSPF2. Please patch
before the public disclosure on 2022-01-19.</p>
<img src="%[2]s" width="1" height="1" alt=""></body></html>

--BOUND--
`, domain, pixelURL)
}

// footprint canonicalizes an address set.
func footprint(addrs []netip.Addr) string {
	ss := make([]string, len(addrs))
	for i, a := range addrs {
		ss[i] = a.String()
	}
	sort.Strings(ss)
	key := ""
	for _, s := range ss {
		key += s + ","
	}
	return key
}

// Finalize computes the patch-correlation fields once the longitudinal
// analysis is available. patchedAt reports when a domain's hosts all
// patched (zero time = never).
func (r *NotificationResult) Finalize(patchedAt func(domain string) time.Time) {
	for d, st := range r.PerDomain {
		at := patchedAt(d)
		patchedEver := !at.IsZero() && !at.After(population.TEnd)
		patchedBetween := !at.IsZero() &&
			at.After(population.TNotification) && at.Before(population.TDisclosure)
		if st.Opened {
			if patchedEver {
				r.OpenedAndPatched++
			}
			if patchedBetween {
				r.OpenedPatchedBetweenDisclosures++
			}
		}
		if st.Bounced && patchedBetween {
			r.UndeliveredPatchedBetween++
		}
	}
}
