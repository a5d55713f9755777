package spfail

// The benchmark harness regenerates every table and figure of the paper
// (run with `go test -bench=. -benchmem`). Each BenchmarkTableN /
// BenchmarkFigureN logs the reproduced rows (visible with -v) and reports
// the headline metric the paper states, so shape comparisons are
// mechanical. The Ablation benchmarks quantify the design choices called
// out in DESIGN.md. The macro-expansion micro-benchmarks at the bottom
// compare the compliant and vulnerable expanders; every other layer is
// measured by the benchmark ladder under bench/.

import (
	"bytes"
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/dnsmsg"
	"spfail/internal/dnsserver"
	"spfail/internal/measure"
	"spfail/internal/mta"
	"spfail/internal/netsim"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/spf"
	"spfail/internal/spfimpl"
	"spfail/internal/study"
)

// benchScale keeps the shared study fast enough for iterative benching
// while large enough for stable shares.
const benchScale = 0.01

var (
	studyOnce    sync.Once
	studyResults *study.Results
	studyErr     error
)

// benchStudy runs (once) the full end-to-end study the table/figure
// benchmarks extract from.
func benchStudy(b *testing.B) *study.Results {
	b.Helper()
	studyOnce.Do(func() {
		spec := population.DefaultSpec()
		spec.Scale = benchScale
		spec.Seed = 1
		studyResults, studyErr = study.Run(context.Background(), study.Config{
			Config: measure.Config{Concurrency: 128, BatchSize: 1000},
			Spec:   spec,
		})
	})
	if studyErr != nil {
		b.Fatalf("study: %v", studyErr)
	}
	return studyResults
}

// logOnce renders a table/figure into the benchmark log on the first
// iteration only.
func logOnce(b *testing.B, render func(buf *bytes.Buffer)) {
	var buf bytes.Buffer
	render(&buf)
	b.Log("\n" + buf.String())
}

// BenchmarkTable1Overlap regenerates the domain-set overlap matrix
// (paper: 22,911 / 1,000 / 418,842 diagonal; 2,922 and 135 overlaps).
func BenchmarkTable1Overlap(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Table1(buf, r.World) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := study.Table1(r.World)
		if len(cells) != 9 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkTable2TLDs regenerates the TLD frequency table (paper: com
// dominates both sets).
func BenchmarkTable2TLDs(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Table2(buf, r.World, 15) })
	var comShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := study.Table2(r.World, population.SetAlexaTopList, 15)
		total := len(r.World.DomainsIn(population.SetAlexaTopList))
		comShare = float64(rows[0].Count) / float64(total)
	}
	b.ReportMetric(comShare, "com-share")
}

// BenchmarkTable3Funnel regenerates the probe outcome funnel (paper
// Alexa: 47% refused; 37% SMTP failure of connected; 13%/58% measured at
// the NoMsg/BlankMsg rungs).
func BenchmarkTable3Funnel(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) {
		report.Table3(buf, r, population.SetAlexaTopList, population.SetTwoWeekMX, population.SetTopProviders)
	})
	var refused float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := study.Table3(r, population.SetAlexaTopList)
		refused = float64(f.AddrRefused) / float64(f.Addresses)
	}
	b.ReportMetric(refused, "refused-frac")
}

// BenchmarkTable4Initial regenerates the initial vulnerability breakdown
// (paper: ~1 in 6 measured IPs vulnerable overall; 1 in 10 for 2-Week MX).
func BenchmarkTable4Initial(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Table4(buf, r) })
	var vulnShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := study.Table4(r, 0)
		vulnShare = float64(bd.Vulnerable) / float64(bd.Measured)
	}
	b.ReportMetric(vulnShare, "vuln-share")
}

// BenchmarkTable5TLDPatch regenerates per-TLD patch rates (paper: za 79%
// … ru 2%, tw 0%; com 15%).
func BenchmarkTable5TLDPatch(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Table5(buf, r, 3, 5) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := study.Table5(r, 1)
		if len(rows) == 0 {
			b.Fatal("no TLD rows")
		}
	}
}

// BenchmarkTable6PkgMgr regenerates the package-manager patch timeline
// (static ground truth; matches the paper exactly).
func BenchmarkTable6PkgMgr(b *testing.B) {
	logOnce(b, func(buf *bytes.Buffer) { report.Table6(buf) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := study.Table6()
		if len(rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable7Behaviors regenerates the macro-expansion behaviour
// taxonomy (paper: ~6% of measurable IPs show ≥2 patterns).
func BenchmarkTable7Behaviors(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Table7(buf, r) })
	var multiShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t7 := study.Table7(r)
		multiShare = float64(t7.MultiplePatterns) / float64(t7.TotalMeasured)
	}
	b.ReportMetric(multiShare, "multi-pattern-share")
}

// BenchmarkFigure2FinalSplit regenerates the final
// patched/vulnerable/unknown split (paper: ~15% patched overall; Alexa
// 1000 <10%).
func BenchmarkFigure2FinalSplit(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Figure2(buf, r) })
	var patchedShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := study.Figure2(r)
		all := rows[len(rows)-1]
		total := all.Patched + all.Vulnerable + all.Unknown
		if total > 0 {
			patchedShare = float64(all.Patched) / float64(total)
		}
	}
	b.ReportMetric(patchedShare, "patched-share")
}

// BenchmarkFigure3Geo regenerates the geographic aggregation (paper:
// vulnerable hosts worldwide, Europe slightly denser; za patches most).
func BenchmarkFigure3Geo(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Figure3(buf, r, 15) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets, countries := study.Figure3(r, 5)
		if len(buckets) == 0 || len(countries) == 0 {
			b.Fatal("empty geo aggregation")
		}
	}
}

// BenchmarkFigure4RankBuckets regenerates vulnerability by site rank
// (paper: bottom 20K ranks ≈ 2× the vulnerable servers of the top 20K).
func BenchmarkFigure4RankBuckets(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Figure4(buf, r, population.SetAlexaTopList) })
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets := study.Figure4(r, population.SetAlexaTopList, 20)
		top := buckets[0].Vulnerable + buckets[1].Vulnerable + buckets[2].Vulnerable + buckets[3].Vulnerable
		n := len(buckets)
		bottom := buckets[n-1].Vulnerable + buckets[n-2].Vulnerable + buckets[n-3].Vulnerable + buckets[n-4].Vulnerable
		if top > 0 {
			ratio = float64(bottom) / float64(top)
		}
	}
	b.ReportMetric(ratio, "bottom/top-vuln-ratio")
}

// BenchmarkFigure5Conclusive regenerates the conclusiveness series
// (paper: fluctuates, stabilizes late November).
func BenchmarkFigure5Conclusive(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) {
		report.FigureSeries(buf, "Figure 5", study.SetSeries(r, 0))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := study.SetSeries(r, 0)
		if len(s) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFigure6Window1 regenerates the first-window vulnerability
// rates (paper: 2-Week MX −10%, Alexa −4% before any disclosure).
func BenchmarkFigure6Window1(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) {
		report.FigureSeries(buf, "Figure 6 (2-Week MX, window 1)",
			study.WindowSeries(study.SetSeries(r, population.SetTwoWeekMX), population.TLongitudinal, population.TPause))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := study.WindowSeries(study.SetSeries(r, population.SetAlexaTopList), population.TLongitudinal, population.TPause)
		if len(s) == 0 {
			b.Fatal("empty window")
		}
	}
}

// BenchmarkFigure7FullSeries regenerates the full-period vulnerability
// rates (paper: sharp drop right after the Jan 19 disclosure; >80% still
// vulnerable at the end).
func BenchmarkFigure7FullSeries(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) {
		report.FigureSeries(buf, "Figure 7 (Alexa Top List)", study.SetSeries(r, population.SetAlexaTopList))
	})
	var finalRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := study.SetSeries(r, 0)
		finalRate = s[len(s)-1].VulnerableRate()
	}
	b.ReportMetric(finalRate, "final-vuln-rate")
}

// BenchmarkFigure8Alexa1000 regenerates the Alexa Top 1000 conclusiveness
// series (paper: 28 domains; conclusive results collapse mid-November).
func BenchmarkFigure8Alexa1000(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) {
		report.FigureSeries(buf, "Figure 8 (Alexa Top 1000)", study.SetSeries(r, population.SetAlexa1000))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := study.SetSeries(r, population.SetAlexa1000)
		if len(s) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkNotificationFunnel regenerates the §7.7 funnel (paper: 6,488
// sent, 31.6% bounced, 12% opened, 9 patched between disclosures).
func BenchmarkNotificationFunnel(b *testing.B) {
	r := benchStudy(b)
	logOnce(b, func(buf *bytes.Buffer) { report.Notification(buf, r) })
	var bounceRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := r.Notification
		if n.Sent > 0 {
			bounceRate = float64(n.Bounced) / float64(n.Sent)
		}
	}
	b.ReportMetric(bounceRate, "bounce-rate")
}

// ---- Ablation benches (design choices from DESIGN.md) ----

// BenchmarkAblationProbeLadder quantifies what the BlankMsg escalation
// adds over NoMsg alone: the fraction of measured servers that only the
// second rung reached.
func BenchmarkAblationProbeLadder(b *testing.B) {
	r := benchStudy(b)
	var added float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noMsg, blank := 0, 0
		for _, o := range r.Initial {
			if o.Status != core.StatusSPFMeasured {
				continue
			}
			if o.Method == core.MethodNoMsg {
				noMsg++
			} else {
				blank++
			}
		}
		if noMsg+blank > 0 {
			added = float64(blank) / float64(noMsg+blank)
		}
	}
	b.ReportMetric(added, "blankmsg-added-share")
}

// BenchmarkAblationLivenessTerm quantifies the macro-free a:b.<id> term:
// hosts whose only evidence is the liveness lookup would be unmeasurable
// without it.
func BenchmarkAblationLivenessTerm(b *testing.B) {
	r := benchStudy(b)
	var saved float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		livenessOnly, measured := 0, 0
		for _, o := range r.Initial {
			if o.Status != core.StatusSPFMeasured {
				continue
			}
			measured++
			if len(o.Observation.Patterns) == 0 && o.Observation.LivenessSeen {
				livenessOnly++
			}
		}
		if measured > 0 {
			saved = float64(livenessOnly) / float64(measured)
		}
	}
	b.ReportMetric(saved, "liveness-only-share")
}

// BenchmarkAblationInference quantifies the §7.6 inference rules: the
// share of domain-rounds concluded only through inference.
func BenchmarkAblationInference(b *testing.B) {
	r := benchStudy(b)
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := study.SetSeries(r, 0)
		measured, inferred := 0, 0
		for _, p := range s {
			measured += p.Measured
			inferred += p.Inferred
		}
		if measured > 0 {
			gain = float64(inferred-measured) / float64(measured)
		}
	}
	b.ReportMetric(gain, "inference-gain")
}

// BenchmarkAblationLabels demonstrates why every probe needs a unique
// label: merging the DNS evidence of distinct servers under one shared
// label conflates their fingerprints into multiple contradictory patterns.
func BenchmarkAblationLabels(b *testing.B) {
	fabric := netsim.NewFabric()
	zone := &dnsserver.SPFTestZone{
		Base:  dnsmsg.MustParseName("spf-test.dns-lab.org"),
		Addr4: netip.MustParseAddr("192.0.2.80"),
	}
	collector := core.NewCollector(zone)
	// A full query log keeps the raw evidence after the prober's
	// per-probe cleanup.
	recorder := &dnsserver.QueryLog{}
	recorder.AddSink(collector)
	srv := &dnsserver.Server{
		Net:     fabric.Host("192.0.2.53"),
		Addr:    ":53",
		Handler: &dnsserver.LoggingHandler{Inner: zone, Sink: recorder, Now: time.Now},
	}
	if err := srv.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()

	behaviors := []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2, spfimpl.BehaviorCompliant, spfimpl.BehaviorNoTruncate}
	for i, behavior := range behaviors {
		ip := netip.AddrFrom4([4]byte{203, 0, 113, byte(100 + i)})
		h := mta.New(mta.Config{
			Hostname: "mx", IP: ip, Net: fabric.Host(ip.String()),
			DNSServer: "192.0.2.53:53", DNSTimeout: time.Second,
			Behaviors: []spfimpl.Behavior{behavior}, ValidateAt: mta.ValidateAtMailFrom,
		})
		if err := h.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		defer h.Stop()
	}
	classifier := core.NewClassifier(zone)
	prober := &core.Prober{
		Net: fabric.Host("198.51.100.9"), HELO: "probe", Clock: clock.Real{},
		Zone: zone, Labels: core.NewLabelAllocator(9), Collector: collector,
		Classifier: classifier, Suite: "abl", IOTimeout: 2 * time.Second,
		GreylistWait: time.Millisecond, ReconnectWait: time.Millisecond,
	}

	var mergedPatterns float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recorder.Reset()
		for j := range behaviors {
			out := prober.TestIP(context.Background(), netip.AddrFrom4([4]byte{203, 0, 113, byte(100 + j)}).String()+":25", "example.com")
			if out.Status != core.StatusSPFMeasured {
				b.Fatalf("host %d not measured: %v", j, out.Err)
			}
		}
		// Shared-label world: every event collapses onto one id.
		const shared = "zzzz"
		var rewritten []dnsserver.QueryEvent
		for _, ev := range recorder.Snapshot() {
			id, suite, ok := zone.ExtractIDSuite(ev.Name)
			if !ok {
				continue
			}
			renamed := strings.ReplaceAll(ev.Name.String(), id+"."+suite+".", shared+".abl.")
			if n, err := dnsmsg.ParseName(renamed); err == nil {
				ev.Name = n
			}
			rewritten = append(rewritten, ev)
		}
		obs := classifier.Classify(shared, "abl", rewritten)
		mergedPatterns = float64(len(obs.Patterns))
	}
	// With unique labels each server yields exactly 1 pattern; sharing a
	// label conflates all three into one ambiguous observation.
	b.ReportMetric(mergedPatterns, "patterns-under-shared-label")
}

// ---- Macro-expansion micro-benchmarks ----

// BenchmarkMacroExpansion measures the compliant macro expander on the
// probe macro.
func BenchmarkMacroExpansion(b *testing.B) {
	env := &spf.MacroEnv{
		Sender: "user@x7k2.s01.spf-test.dns-lab.org",
		Domain: "x7k2.s01.spf-test.dns-lab.org",
		IP:     netip.MustParseAddr("198.51.100.9"),
		HELO:   "probe",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := (spf.Expander{}).Expand(context.Background(), "%{d1r}.x7k2.s01.spf-test.dns-lab.org", env, false)
		if err != nil || out == "" {
			b.Fatal(err)
		}
	}
}

// BenchmarkLibSPF2Expansion measures the vulnerable expander producing
// the fingerprint.
func BenchmarkLibSPF2Expansion(b *testing.B) {
	env := &spf.MacroEnv{
		Sender: "user@x7k2.s01.spf-test.dns-lab.org",
		Domain: "x7k2.s01.spf-test.dns-lab.org",
	}
	exp := &spfimpl.LibSPF2Expander{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exp.Expand(context.Background(), "%{d1r}.t.example", env, false)
		if err != nil || !strings.HasPrefix(out, "org.org.") {
			b.Fatalf("out=%q err=%v", out, err)
		}
	}
}
