package measure

import (
	"context"
	"net/netip"
	"sort"

	"spfail/internal/core"
	"spfail/internal/mta"
	"spfail/internal/population"
	"spfail/internal/spf"
	"spfail/internal/trace"
)

// defaultAttackerIP is the forged message's source: a TEST-NET-3 address
// no generated policy ever authorizes.
var defaultAttackerIP = netip.MustParseAddr("203.0.113.66")

// SpoofSurvey judges every world domain from the receiver's perspective:
// can an attacker deliver a message forging the domain's From identity?
// Evaluation runs through the rig's real resolution path — check_host
// consumes its RFC 7208 lookup and void budgets against the sim DNS
// server over the wire, then DMARC discovery runs on the same resolver —
// so scenario effects (permerror via the lookup limit, alignment-gap
// deliveries) are measured, not assumed. Domains are judged in parallel
// (Rig.fanOut) and merged in domain order. Under injected faults or an
// enabled DNS retry policy they are judged one at a time, because the
// fault engine counts the vantage's DNS events in order and retry
// backoffs sleep on the shared clock, and also when GOMAXPROCS is 1.
type SpoofSurvey struct {
	Rig *Rig
	// AttackerIP overrides the forged source address when valid.
	AttackerIP netip.Addr
}

// spoofTraceChunk bounds how many domains a traced survey judges before
// flushing their trace buffers, so at most this many are held at once.
const spoofTraceChunk = 256

// Run evaluates all domains and returns one verdict each, in generation
// order. Verdicts are computed in parallel, each into its domain's slot;
// counters are then bumped and trace buffers flushed in domain order, so
// verdicts, metrics and traced output match a one-at-a-time walk byte for
// byte. The walk is sequential under injected faults, an enabled DNS
// retry policy or GOMAXPROCS 1 (see SpoofSurvey). Every domain is judged
// even after ctx ends; each lookup sees ctx.
func (s *SpoofSurvey) Run(ctx context.Context) []core.SpoofVerdict {
	ev := &core.VerdictEvaluator{
		Checker: &spf.Checker{Resolver: mta.ResolverAdapter{R: s.Rig.Resolver()}},
		HELO:    "mx.attacker.example",
	}
	attacker := s.AttackerIP
	if !attacker.IsValid() {
		attacker = defaultAttackerIP
	}
	n := len(s.Rig.World.Domains)
	out := make([]core.SpoofVerdict, n)
	if tr := s.Rig.Trace; tr == nil {
		s.Rig.fanOut(n, func(i int) { out[i] = s.judge(ctx, ev, attacker, i, nil) })
	} else {
		bufs := make([]*trace.Buffer, min(n, spoofTraceChunk))
		for lo := 0; lo < n; lo += len(bufs) {
			chunk := bufs[:min(len(bufs), n-lo)]
			s.Rig.fanOut(len(chunk), func(j int) {
				chunk[j] = tr.ProbeBuffer(s.Rig.Clock, "spoof", uint64(lo+j))
				out[lo+j] = s.judge(ctx, ev, attacker, lo+j, chunk[j])
			})
			for j, buf := range chunk {
				tr.FlushBuffer(buf)
				chunk[j] = nil
			}
		}
	}
	reg := s.Rig.Metrics
	for _, v := range out {
		reg.Counter("scenario.spoof.checks").Inc()
		if v.PermError() {
			reg.Counter("scenario.spoof.permerror").Inc()
		}
		if v.Delivered() {
			reg.Counter("scenario.spoof.delivered").Inc()
		}
		if v.DMARC.Found {
			reg.Counter("dmarc.lookups.found").Inc()
		}
		if v.DMARCBlocked() {
			reg.Counter("dmarc.lookups.blocked").Inc()
		}
	}
	return out
}

// judge evaluates domain i, recording its spans into buf when non-nil.
func (s *SpoofSurvey) judge(ctx context.Context, ev *core.VerdictEvaluator, attacker netip.Addr, i int, buf *trace.Buffer) core.SpoofVerdict {
	d := s.Rig.World.Domains[i]
	mailFrom := d.Name
	if pack, ok := population.PackByName(d.Scenario); ok && pack.SpoofMailFromLabel != "" {
		mailFrom = pack.SpoofMailFromLabel + "." + d.Name
	}
	if buf == nil {
		return ev.Evaluate(ctx, attacker, d.Name, mailFrom, d.Scenario)
	}
	root := buf.Root("spoof.verdict",
		trace.String("domain", d.Name),
		trace.String("scenario", scenarioLabel(d.Scenario)),
		trace.Int("index", i))
	v := ev.Evaluate(trace.ContextWithSpan(ctx, root), attacker, d.Name, mailFrom, d.Scenario)
	root.SetAttrs(trace.String("spf", string(v.SPF)),
		trace.Bool("dmarc_found", v.DMARC.Found),
		trace.String("outcome", v.Outcome()))
	root.End()
	return v
}

// scenarioLabel names a domain's scenario for reports and traces.
func scenarioLabel(s string) string {
	if s == "" {
		return "baseline"
	}
	return s
}

// ScenarioStat aggregates spoof verdicts for one scenario pack.
type ScenarioStat struct {
	// Scenario is the pack name; "baseline" collects unassigned domains.
	Scenario string
	// Domains is how many domains carry the scenario.
	Domains int
	// PermError counts domains whose forged-envelope SPF evaluation
	// ended in permerror.
	PermError int
	// DMARCFail counts domains where DMARC did not block the forgery:
	// no record, a p=none disposition, or an attacker-achieved aligned
	// pass.
	DMARCFail int
	// Delivered counts domains where the forgery gets through a receiver
	// honoring both protocols.
	Delivered int
}

// ScenarioStats rolls verdicts up per scenario, baseline first, then by
// pack name.
func ScenarioStats(verdicts []core.SpoofVerdict) []ScenarioStat {
	byName := make(map[string]*ScenarioStat)
	for _, v := range verdicts {
		label := scenarioLabel(v.Scenario)
		st := byName[label]
		if st == nil {
			st = &ScenarioStat{Scenario: label}
			byName[label] = st
		}
		st.Domains++
		if v.PermError() {
			st.PermError++
		}
		if !v.DMARCBlocked() {
			st.DMARCFail++
		}
		if v.Delivered() {
			st.Delivered++
		}
	}
	out := make([]ScenarioStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i].Scenario == "baseline", out[j].Scenario == "baseline"
		if bi != bj {
			return bi
		}
		return out[i].Scenario < out[j].Scenario
	})
	return out
}
