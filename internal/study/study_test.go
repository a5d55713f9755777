package study

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/measure"
	"spfail/internal/netsim"
	"spfail/internal/population"
)

// runTinyStudy executes a full study at a very small scale, shared across
// the tests in this file.
var tinyResults *Results

func tinyStudy(t *testing.T) *Results {
	t.Helper()
	if tinyResults != nil {
		return tinyResults
	}
	spec := population.DefaultSpec()
	spec.Scale = 0.004
	spec.Seed = 3
	res, err := Run(context.Background(), Config{
		Config:   measure.Config{Concurrency: 64, BatchSize: 400},
		Spec:     spec,
		Interval: 4 * 24 * time.Hour, // coarser cadence keeps the test quick
	})
	if err != nil {
		t.Fatalf("study run: %v", err)
	}
	tinyResults = res
	return res
}

func TestStudyEndToEnd(t *testing.T) {
	r := tinyStudy(t)

	if len(r.Targets) == 0 || len(r.Initial) == 0 {
		t.Fatal("no initial measurement")
	}
	if len(r.VulnAddrs) == 0 {
		t.Fatal("no vulnerable addresses found")
	}
	if len(r.VulnDomains) == 0 {
		t.Fatal("no vulnerable domains found")
	}
	if len(r.Rounds) < 10 {
		t.Fatalf("rounds = %d, want a two-window longitudinal series", len(r.Rounds))
	}
	// Rounds must span both windows with the pause gap.
	var inWindow1, inWindow2 bool
	for _, round := range r.Rounds {
		if round.Time.Before(population.TPause) {
			inWindow1 = true
		}
		if round.Time.After(population.TResume) {
			inWindow2 = true
		}
		if round.Time.After(population.TPause.Add(24*time.Hour)) && round.Time.Before(population.TResume) {
			t.Errorf("round at %v falls inside the measurement pause", round.Time)
		}
	}
	if !inWindow1 || !inWindow2 {
		t.Error("rounds missing from a measurement window")
	}
	if len(r.Snapshot) == 0 {
		t.Error("no final snapshot")
	}
	if !r.SnapshotTime.Equal(population.TEnd) {
		t.Errorf("snapshot at %v, want %v", r.SnapshotTime, population.TEnd)
	}
}

func TestStudyDetectionAgreesWithGroundTruth(t *testing.T) {
	r := tinyStudy(t)
	// Every address the detector flagged as vulnerable must actually run
	// unpatched libSPF2 at the initial time — zero false positives.
	for _, a := range r.VulnAddrs {
		h := r.World.Hosts[a]
		if h == nil || !h.Vulnerable(population.TInitial) {
			t.Errorf("false positive: %s flagged vulnerable, ground truth %+v", a, h)
		}
	}
	// Detection coverage: every reachable, measurable vulnerable host
	// with MAIL FROM or DATA validation should be found.
	flagged := map[string]bool{}
	for _, a := range r.VulnAddrs {
		flagged[a.String()] = true
	}
	var missed int
	for a, h := range r.World.Hosts {
		if h.EverVulnerable() && h.Listens && !h.RefuseSMTP && !h.BlankMsgFails && !flagged[a.String()] {
			// Only count hosts actually in the measured targets.
			if _, ok := r.Initial[a]; ok {
				missed++
			}
		}
	}
	if missed > len(r.VulnAddrs)/10 {
		t.Errorf("missed %d measurable vulnerable hosts (found %d)", missed, len(r.VulnAddrs))
	}
}

func TestStudyPatchingVisibleInSeries(t *testing.T) {
	r := tinyStudy(t)
	series := SetSeries(r, 0)
	if len(series) != len(r.Rounds) {
		t.Fatalf("series = %d points for %d rounds", len(series), len(r.Rounds))
	}
	first, last := series[0], series[len(series)-1]
	if first.Vulnerable == 0 {
		t.Fatal("no vulnerable domains at series start")
	}
	if last.Patched < first.Patched {
		t.Error("patched count should not decrease")
	}
	// The final vulnerable share should stay high (paper: ~80%).
	rate := last.VulnerableRate()
	if rate < 0.5 || rate > 0.98 {
		t.Errorf("final vulnerable rate = %.2f, want high (~0.8)", rate)
	}
}

func TestStudyNotificationFunnel(t *testing.T) {
	r := tinyStudy(t)
	n := r.Notification
	if n.Sent == 0 {
		t.Fatal("no notifications sent")
	}
	if n.Bounced == 0 {
		t.Error("expected some bounces (31.6% rate)")
	}
	if n.Delivered != n.Sent-n.Bounced {
		t.Error("delivered arithmetic broken")
	}
	bounceRate := float64(n.Bounced) / float64(n.Sent)
	if bounceRate < 0.15 || bounceRate > 0.55 {
		t.Errorf("bounce rate = %.2f, want ≈0.32", bounceRate)
	}
	if n.Opened > n.Delivered {
		t.Error("more opens than deliveries")
	}
	if n.OpenedAndPatched > n.Opened || n.OpenedPatchedBetweenDisclosures > n.OpenedAndPatched {
		t.Errorf("funnel ordering broken: %+v", n)
	}
}

func TestStudyExperimentsProduceData(t *testing.T) {
	r := tinyStudy(t)

	t1 := Table1(r.World)
	if len(t1) != 9 {
		t.Errorf("Table1 cells = %d", len(t1))
	}
	for _, c := range t1 {
		if c.Row == c.Col && c.Count == 0 {
			t.Errorf("Table1 diagonal %s is zero", c.Row)
		}
	}

	t2 := Table2(r.World, population.SetAlexaTopList, 15)
	if len(t2) == 0 || t2[0].TLD != "com" {
		t.Errorf("Table2 top TLD = %+v", t2)
	}

	f := Table3(r, population.SetAlexaTopList)
	if f.Addresses == 0 || f.AddrRefused == 0 || f.AddrTotalMeasured == 0 {
		t.Errorf("Table3 funnel = %+v", f)
	}
	if f.AddrNoMsgRun != f.Addresses-f.AddrRefused {
		t.Errorf("NoMsg rung arithmetic: %d run, %d addrs, %d refused",
			f.AddrNoMsgRun, f.Addresses, f.AddrRefused)
	}

	b := Table4(r, 0)
	if b.Measured == 0 || b.Vulnerable == 0 || b.Compliant == 0 {
		t.Errorf("Table4 = %+v", b)
	}
	if b.Vulnerable+b.ErroneousOther+b.Compliant != b.Measured {
		t.Errorf("Table4 does not sum: %+v", b)
	}
	vulnShare := float64(b.Vulnerable) / float64(b.Measured)
	if vulnShare < 0.08 || vulnShare > 0.30 {
		t.Errorf("vulnerable share = %.2f, want ≈1/6", vulnShare)
	}

	t5 := Table5(r, 1)
	if len(t5) == 0 {
		t.Error("Table5 empty")
	}

	t6 := Table6()
	if len(t6) != 9 || t6[0].Manager != "Debian" {
		t.Errorf("Table6 = %+v", t6)
	}

	t7 := Table7(r)
	if t7.TotalMeasured == 0 || len(t7.Rows) < 2 {
		t.Errorf("Table7 = %+v", t7)
	}

	f2 := Figure2(r)
	if len(f2) != 4 {
		t.Errorf("Figure2 rows = %d", len(f2))
	}
	combined := f2[len(f2)-1]
	if combined.Vulnerable+combined.Patched+combined.Unknown != len(r.VulnDomains) {
		t.Errorf("Figure2 combined does not sum to vulnerable domains")
	}

	buckets, countries := Figure3(r, 5)
	if len(buckets) == 0 || len(countries) == 0 {
		t.Error("Figure3 empty")
	}

	f4 := Figure4(r, population.SetAlexaTopList, 20)
	if len(f4) != 20 {
		t.Errorf("Figure4 buckets = %d", len(f4))
	}
	var f4Total int
	for _, rb := range f4 {
		f4Total += rb.Vulnerable
	}
	if f4Total == 0 {
		t.Error("Figure4 has no vulnerable domains")
	}

	s := SetSeries(r, population.SetAlexaTopList)
	if len(s) == 0 {
		t.Error("Figure6/7 series empty")
	}
	w1 := WindowSeries(s, population.TLongitudinal, population.TPause)
	if len(w1) == 0 || len(w1) >= len(s) {
		t.Errorf("window filter: %d of %d", len(w1), len(s))
	}
}

func TestPatchTimingBreakdown(t *testing.T) {
	r := tinyStudy(t)
	pt := PatchTimingBreakdown(r)
	if pt.Total != len(r.VulnDomains) {
		t.Fatalf("total = %d, want %d", pt.Total, len(r.VulnDomains))
	}
	sum := pt.PreNotification + pt.BetweenDisclosures + pt.PostDisclosure + pt.SnapshotOnly + pt.Never
	if sum != pt.Total {
		t.Fatalf("breakdown does not sum: %+v", pt)
	}
	if pt.Never == 0 {
		t.Error("most domains should never patch (paper: ~80%)")
	}
	// The paper's core finding: disclosure-driven patching dominates the
	// notification window.
	if pt.PostDisclosure < pt.BetweenDisclosures {
		t.Errorf("post-disclosure (%d) should exceed notification-window (%d) patching",
			pt.PostDisclosure, pt.BetweenDisclosures)
	}
}

// TestTrackerRecordsOpens checks that a pixel fetch, the notifier's
// evidence of an open, gets 200 and the GIF, repeat fetches included.
func TestTrackerRecordsOpens(t *testing.T) {
	fabric := netsim.NewFabric()
	tr := &Tracker{Net: fabric.Host("192.0.2.90"), Addr: ":80", Clk: clock.Real{}}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	for i := 0; i < 2; i++ {
		if err := FetchPixel(context.Background(), nil, fabric.Host("10.0.0.5"), "192.0.2.90:80", "abc123"); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	resp := trackerRequest(t, fabric, "192.0.2.90:80", "GET /px/abc123.gif HTTP/1.0\r\n\r\n")
	if !strings.HasPrefix(resp, "HTTP/1.0 200 OK\r\n") || !strings.HasSuffix(resp, string(opened1x1)) {
		t.Errorf("pixel response = %q", resp)
	}
}

func TestTrackerRejectsBadPaths(t *testing.T) {
	fabric := netsim.NewFabric()
	tr := &Tracker{Net: fabric.Host("192.0.2.91"), Addr: ":80"}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	for _, c := range []struct{ req, status string }{
		{"GET /index.html HTTP/1.0\r\n\r\n", "HTTP/1.0 404"},
		{"GET /px/abc123.png HTTP/1.0\r\n\r\n", "HTTP/1.0 404"},
		{"POST /px/x.gif HTTP/1.0\r\n\r\n", "HTTP/1.0 405"},
	} {
		if resp := trackerRequest(t, fabric, "192.0.2.91:80", c.req); !strings.HasPrefix(resp, c.status) {
			t.Errorf("%q: response %q, want %s", c.req, resp, c.status)
		}
	}
}

// trackerRequest sends one raw HTTP request to the tracker at addr and
// returns the whole response.
func trackerRequest(t *testing.T, fabric *netsim.Fabric, addr, req string) string {
	t.Helper()
	c, err := fabric.Host("10.0.0.6").DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(resp)
}

func TestTable6MatchesPaper(t *testing.T) {
	rows := Table6()
	byName := map[string]Table6Row{}
	for _, r := range rows {
		byName[r.Manager] = r
	}
	if r := byName["Debian"]; r.CVE20314Days != 0 || r.CVE33912Days != 0 || r.CVE33912Open {
		t.Errorf("Debian = %+v", r)
	}
	if r := byName["Alpine"]; r.CVE33912Days != 51 && r.CVE33912Days != 50 {
		t.Errorf("Alpine days = %d, want ≈50", r.CVE33912Days)
	}
	if r := byName["RedHat"]; !r.IncludedStar || r.CVE20314Days != 42 {
		t.Errorf("RedHat = %+v", r)
	}
	if r := byName["Arch Linux"]; r.CVE20314Days != 103 {
		t.Errorf("Arch = %+v", r)
	}
	for _, name := range []string{"Ubuntu", "FreeBSD Ports", "NetBSD", "SUSE Hub"} {
		if r := byName[name]; !r.CVE20314Open || !r.CVE33912Open {
			t.Errorf("%s should be unpatched: %+v", name, r)
		}
	}
	// Unpatched rows sort last.
	if rows[len(rows)-1].CVE20314Open != true {
		t.Error("unpatched rows should sort last")
	}
}

func TestDistroPatchDate(t *testing.T) {
	if DistroPatchDate("debian").IsZero() || !DistroPatchDate("ubuntu").IsZero() {
		t.Error("distro patch dates wrong")
	}
	if DistroPatchDate("alpine").Before(population.TEnd) {
		t.Error("alpine patched only after the study window")
	}
}

func TestFinalDomainStatusPrefersSnapshot(t *testing.T) {
	r := tinyStudy(t)
	// Sanity: every vulnerable domain has some final status.
	var vuln, patched, unknown int
	for d := range r.VulnDomains {
		switch r.FinalDomainStatus(d) {
		case measure.DomVulnerable:
			vuln++
		case measure.DomPatched:
			patched++
		default:
			unknown++
		}
	}
	if vuln == 0 {
		t.Error("no domains remain vulnerable — paper has ~80%")
	}
	t.Logf("final: %d vulnerable, %d patched, %d unknown", vuln, patched, unknown)
}

func TestStatusOfRoundTripThroughStudyTypes(t *testing.T) {
	o := core.Outcome{Status: core.StatusSPFMeasured,
		Observation: core.Observation{Patterns: []string{"x"}, Classes: []core.BehaviorClass{core.ClassVulnerable}}}
	if measure.StatusOf(o) != measure.IPVulnerable {
		t.Error("status mapping")
	}
}
