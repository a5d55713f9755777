package study

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"spfail/internal/checkpoint"
	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/faults"
	"spfail/internal/measure"
	"spfail/internal/obs"
	"spfail/internal/population"
	"spfail/internal/retry"
	"spfail/internal/telemetry"
)

// Config parameterizes a full study run. The campaign-level knobs —
// concurrency, batch size, politeness waits, probe retry and breaker
// policy, metrics, tracing — are the embedded measure.Config; the fields
// declared here are the study-only surface: the world spec, the
// longitudinal cadence, the fault plan, the checkpoint store, and the
// observer hooks. Suite on the embedded config is ignored: the study
// stamps its own suites (s01 for the main campaign, s02 for the final
// snapshot).
type Config struct {
	measure.Config

	Spec population.Spec
	// Interval is the longitudinal cadence (paper: 48h).
	Interval time.Duration
	// DNSRetry is the probe-side resolver's retry policy. A zero Seed is
	// filled from Spec.Seed, like the embedded probe Retry.
	DNSRetry retry.Policy
	// Faults, when non-nil and non-empty, is installed on the fabric as
	// a deterministic fault-injection plan. A zero Plan.Seed is filled
	// from Spec.Seed.
	Faults *faults.Plan
	// Observe, if non-nil, receives every probe outcome batch by batch,
	// in input order within each batch. It is called serially, and only
	// for probes actually executed: outcomes replayed from a checkpoint
	// on resume are not re-observed.
	Observe func(suite string, addr netip.Addr, out core.Outcome)
	// Progress, if non-nil, receives coarse stage updates.
	Progress func(stage string)

	// CheckpointDir, when non-empty, enables the durable incremental
	// checkpoint store: every completed stage (resolution, spoof survey,
	// initial measurement, notification, each longitudinal round, the
	// final snapshot) commits a segment there (see internal/checkpoint
	// and docs/checkpoints.md).
	CheckpointDir string
	// Resume restarts from CheckpointDir's committed segments instead of
	// clearing them: completed stages replay from disk and execution
	// picks up at the first missing one, producing results, trace, and
	// report byte-identical to an uninterrupted run. The run must use
	// the same Spec and knobs as the one that wrote the store — the
	// store's fingerprint enforces that.
	Resume bool
	// HardRSS, when positive, is the hard memory limit in bytes: the
	// first time the run's obs.Collector reads a resident set above it,
	// the run stops with an error wrapping obs.ErrBudgetExceeded instead
	// of waiting for the OOM killer. The soft half of a memory budget is
	// the Go runtime's process-wide memory limit (debug.SetMemoryLimit),
	// which the caller sets. Neither moves a report or trace byte, so
	// HardRSS is deliberately outside the checkpoint fingerprint: runs
	// with and without it are mutually resumable.
	HardRSS int64

	// Kill, if non-nil, is the crash-injection test hook: it is
	// consulted with a point name after every segment commit
	// ("commit:<segment>") and every delivered probe outcome
	// ("<segment>:probe:<n>"), and the first true return aborts the run
	// with ErrKilled, exactly as a kill -9 at that instant would
	// (everything since the last commit is lost).
	Kill func(point string) bool
}

// ErrKilled is returned by Run when the injected Kill hook fired. The
// checkpoint store is left exactly as a real crash at that point would
// leave it, so a Resume run picks up from the last committed segment.
var ErrKilled = errors.New("study: killed at injected crash point")

// Normalize fills study defaults and delegates the campaign-level knobs
// to the embedded measure.Config.Normalize (which it shadows). The study
// overrides one campaign default: IOTimeout falls back to 5s rather than
// the operational 30s, because simulated runs spend it in real time.
func (c Config) Normalize() (Config, error) {
	if c.Interval < 0 {
		return c, fmt.Errorf("study: Interval %v is negative", c.Interval)
	}
	if c.Interval == 0 {
		c.Interval = 48 * time.Hour
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 5 * time.Second
	}
	if c.Retry.Seed == 0 {
		c.Retry.Seed = c.Spec.Seed
	}
	if c.DNSRetry.Seed == 0 {
		c.DNSRetry.Seed = c.Spec.Seed
	}
	if c.Faults != nil && !c.Faults.Empty() {
		p := *c.Faults
		if p.Seed == 0 {
			p.Seed = c.Spec.Seed
		}
		c.Faults = &p
	} else {
		c.Faults = nil
	}
	var err error
	if c.Config, err = c.Config.Normalize(); err != nil {
		return c, fmt.Errorf("study: %w", err)
	}
	if c.Resume && c.CheckpointDir == "" {
		return c, fmt.Errorf("study: Resume requires CheckpointDir")
	}
	return c, nil
}

// campaignConfig stamps the campaign config for one probe suite.
func (c *Config) campaignConfig(suite string) measure.Config {
	mc := c.Config
	mc.Suite = suite
	return mc
}

// fingerprint hashes every output-affecting knob of a normalized config.
// It is stamped into the checkpoint store at creation and checked on
// resume: a run whose knobs differ would diverge from the committed
// segments, so it must not consume them. Tracer options are not part of
// the config surface and thus not covered — resume with the same trace
// flags, as docs/checkpoints.md spells out.
func (c *Config) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "spec=%+v|interval=%v|concurrency=%d|batch=%d|greylist=%v|reconnect=%v|io=%v|",
		c.Spec, c.Interval, c.Concurrency, c.BatchSize, c.GreylistWait, c.ReconnectWait, c.IOTimeout)
	fmt.Fprintf(h, "retry=%+v|dnsretry=%+v|breaker=%+v|", c.Retry, c.DNSRetry, c.Breaker)
	if c.Faults != nil {
		fmt.Fprintf(h, "faults=%+v", *c.Faults)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Results carries everything the experiments section consumes.
type Results struct {
	World *population.World

	// Metrics is the run's telemetry registry (see docs/telemetry.md).
	Metrics *telemetry.Registry

	// Targets is the DNS-resolved measurement set; AddrDomains indexes
	// domains by address; RepDomain is the representative domain used in
	// RCPT TO for each address.
	Targets     []measure.Target
	AddrDomains map[netip.Addr][]string
	RepDomain   map[netip.Addr]string

	// Initial is the full-population measurement of October 11.
	InitialTime time.Time
	Initial     map[netip.Addr]core.Outcome

	// VulnAddrs were measured vulnerable initially; RetryAddrs were
	// inconclusive but considered re-measurable (paper: 7,212 + 721).
	VulnAddrs  []netip.Addr
	RetryAddrs []netip.Addr
	// VulnDomains maps each initially vulnerable domain to its
	// vulnerable addresses.
	VulnDomains map[string][]netip.Addr

	// Rounds is the longitudinal series; Analysis applies inference.
	Rounds   []measure.Round
	Analysis *measure.Analysis

	// Notification is the §7.7 funnel.
	Notification NotificationResult

	// Spoof holds the receiver-perspective spoofing verdicts, one per
	// world domain, when the spec enables scenario packs; ScenarioStats
	// aggregates them per pack for the misconfiguration-prevalence
	// table.
	SpoofTime     time.Time
	Spoof         []core.SpoofVerdict
	ScenarioStats []measure.ScenarioStat

	// Snapshot is the final re-resolved measurement of February 14.
	SnapshotTime time.Time
	Snapshot     map[netip.Addr]core.Outcome

	// Resources is the per-stage resource accounting, one row per
	// executed (or checkpoint-replayed) stage in commit order, plus the
	// campaign's per-shard breakdown. Pure side channel: nothing here
	// feeds the seeded report or trace bytes.
	Resources         []obs.StageResources
	CampaignResources measure.Resources
}

// Run executes the complete study on a simulated clock starting at the
// paper's initial measurement date. With Config.CheckpointDir set, every
// completed stage is durably committed, and with Config.Resume the run
// restarts from those commitments instead of re-probing. When ctx ends
// first, Run returns ctx.Err() once the stage in progress has unwound.
func Run(ctx context.Context, cfg Config) (*Results, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	world, err := population.Generate(norm.Spec)
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	if norm.Metrics == nil {
		norm.Metrics = telemetry.New()
	}

	// Resource observability rides the wall clock even though the study
	// itself runs on a simulated one: memory and GC are wall-time
	// phenomena. The collector feeds runtime.* instruments, sharpens
	// per-stage peak-RSS attribution, and enforces HardRSS by cancelling
	// the run with the *obs.BudgetError as the cause.
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	coll := obs.NewCollector(norm.Metrics, clock.Real{}, 0)
	if norm.HardRSS > 0 {
		coll.LimitRSS(norm.HardRSS, cancel)
	}
	coll.Start()
	defer coll.Stop()

	var store *checkpoint.Store
	if norm.CheckpointDir != "" {
		fp := norm.fingerprint()
		if norm.Resume {
			store, err = checkpoint.Open(norm.CheckpointDir, fp, norm.Metrics)
		} else {
			store, err = checkpoint.Create(norm.CheckpointDir, fp, norm.Metrics)
		}
		if err != nil {
			return nil, fmt.Errorf("study: %w", err)
		}
	}

	sim := clock.NewSim(population.TInitial)

	rig, err := measure.NewRigFromOptions(ctx, measure.RigOptions{
		World:    world,
		Clock:    sim,
		Metrics:  norm.Metrics,
		Faults:   norm.Faults,
		DNSRetry: norm.DNSRetry,
		Trace:    norm.Trace,
	})
	if err != nil {
		return nil, err
	}
	defer rig.Close()

	const trackerIP = "192.0.2.90"
	tracker := &Tracker{Net: rig.Fabric.Host(trackerIP), Addr: ":80", Clk: sim}
	if err := tracker.Start(); err != nil {
		return nil, err
	}
	defer tracker.Stop()

	res := &Results{World: world, Metrics: rig.Metrics}
	campaign, err := measure.NewCampaign(rig, norm.campaignConfig("s01"))
	if err != nil {
		return nil, err
	}

	r := &runner{
		cfg:       norm,
		res:       res,
		rig:       rig,
		campaign:  campaign,
		clk:       sim,
		trackerIP: trackerIP,
		progress:  norm.Progress,
		cancel:    cancel,
		store:     store,
		coll:      coll,
	}

	if store != nil {
		r.pending = store.Segments()
		if norm.Trace != nil {
			r.capture = &captureBuffer{}
			norm.Trace.SetCapture(r.capture)
			defer norm.Trace.SetCapture(nil)
		}
	}

	// The driver runs on this goroutine, so the deferred stops above wait
	// for it to unwind, and nothing writes into res once Run returns it.
	err = r.run(runCtx)
	res.CampaignResources = r.campaign.Resources()
	if r.killed {
		return res, ErrKilled
	}
	if cause := context.Cause(runCtx); errors.Is(cause, obs.ErrBudgetExceeded) {
		// The hard breach cancelled the run context; the unwind error is
		// just the cancellation echo — report the cause.
		return res, fmt.Errorf("study: %w", cause)
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return res, ctxErr
	}
	return res, err
}

// run is the study driver and the one sleeper on the shared simulated
// clock: it sleeps to each round's grid time, and its own DNS retries and
// §7.7 notification dials (tarpits included) move that clock too, while
// every campaign probe sleeps on its own timeline.
// Every probing phase goes through runner.stage, so the flow reads the
// same whether stages execute live or replay from committed segments.
func (r *runner) run(ctx context.Context) error {
	clk := r.rig.Clock
	world := r.rig.World
	res := r.res
	cfg := &r.cfg

	// 1. Resolve every domain's mail hosts through the DNS.
	r.progressf("resolving targets")
	var domainNames []string
	for _, d := range world.Domains {
		domainNames = append(domainNames, d.Name)
	}
	if err := r.stage(ctx, "resolve",
		func(st *checkpoint.Stage) error {
			res.Targets = r.rig.ResolveTargets(ctx, domainNames)
			if r.store != nil {
				st.Targets = targetRows(res.Targets)
			}
			return nil
		},
		func(st *checkpoint.Stage) error {
			var err error
			res.Targets, err = restoreTargets(st.Targets)
			return err
		}); err != nil {
		return err
	}
	addrs, rep := measure.UniqueAddrs(res.Targets)
	res.RepDomain = rep
	res.AddrDomains = make(map[netip.Addr][]string)
	for _, t := range res.Targets {
		for _, a := range t.Addrs {
			res.AddrDomains[a] = append(res.AddrDomains[a], t.Domain)
		}
	}

	// 1b. Receiver-perspective spoofing verdict survey, when the world
	// carries scenario packs: judge every domain's SPF policy and DMARC
	// posture against a forged envelope, through the real resolution
	// path (the lookup/void budgets are consumed against the sim DNS).
	if len(cfg.Spec.Scenarios) > 0 {
		r.progressf("spoofing verdict survey of %d domains", len(world.Domains))
		res.SpoofTime = clk.Now()
		if err := r.stage(ctx, "spoof",
			func(st *checkpoint.Stage) error {
				survey := &measure.SpoofSurvey{Rig: r.rig}
				res.Spoof = survey.Run(ctx)
				if r.store == nil {
					return nil
				}
				var err error
				st.Extra, err = json.Marshal(res.Spoof)
				return err
			},
			func(st *checkpoint.Stage) error {
				return decodeExtra(st.Extra, &res.Spoof)
			}); err != nil {
			return err
		}
		res.ScenarioStats = measure.ScenarioStats(res.Spoof)
	}

	// 2. Initial full measurement (October 11).
	r.progressf("initial measurement of %d addresses", len(addrs))
	res.InitialTime = clk.Now()
	res.Initial = make(map[netip.Addr]core.Outcome, len(addrs))
	if err := r.measureStage(ctx, "initial", "s01", r.campaign, addrs, rep, res.Initial); err != nil {
		return err
	}

	// 3. Select longitudinal targets.
	res.VulnDomains = make(map[string][]netip.Addr)
	for _, a := range addrs {
		out := res.Initial[a]
		switch {
		case out.Vulnerable():
			res.VulnAddrs = append(res.VulnAddrs, a)
			for _, d := range res.AddrDomains[a] {
				res.VulnDomains[d] = append(res.VulnDomains[d], a)
			}
		case out.Status == core.StatusSMTPFailure && out.FailStage != core.StageDial:
			// Reached but failed: re-measurable (the paper's 721).
			res.RetryAddrs = append(res.RetryAddrs, a)
		}
	}
	targets := append(append([]netip.Addr(nil), res.VulnAddrs...), res.RetryAddrs...)
	sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })

	// 4. Longitudinal windows with the notification event in between.
	r.progressf("longitudinal measurement of %d addresses", len(targets))
	notifier := &Notifier{
		Rig:         r.rig,
		TrackerAddr: r.trackerIP + ":80",
		SenderIP:    "198.51.100.77",
		Seed:        cfg.Spec.Seed ^ 0x707,
	}
	notified := false
	runWindow := func(start, end time.Time) error {
		// Rounds are pinned to an even grid (paper: "evenly-spaced
		// measurements every 2 days") regardless of how long each round's
		// probing takes.
		for next := start; !next.After(end); next = next.Add(cfg.Interval) {
			if d := next.Sub(clk.Now()); d > 0 {
				if err := clk.Sleep(ctx, d); err != nil {
					return err
				}
			}
			if !notified && !clk.Now().Before(population.TNotification) {
				r.progressf("sending private notifications")
				if err := r.stage(ctx, "notify",
					func(st *checkpoint.Stage) error {
						if err := r.rig.Manager.Ensure(ctx, res.VulnAddrs); err != nil {
							return err
						}
						res.Notification = notifier.Notify(ctx, res.VulnDomains)
						r.rig.Manager.Stop(res.VulnAddrs)
						if r.store == nil {
							return nil
						}
						var err error
						st.Extra, err = json.Marshal(&res.Notification)
						return err
					},
					func(st *checkpoint.Stage) error {
						return decodeExtra(st.Extra, &res.Notification)
					}); err != nil {
					return err
				}
				notified = true
			}
			results := make(map[netip.Addr]core.Outcome, len(targets))
			name := fmt.Sprintf("round-%03d", len(res.Rounds))
			if err := r.measureStage(ctx, name, "s01", r.campaign, targets, res.RepDomain, results); err != nil {
				return err
			}
			res.Rounds = append(res.Rounds, measure.Round{Time: next, Results: results})
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	}
	if err := runWindow(population.TLongitudinal, population.TPause); err != nil {
		return err
	}
	if err := runWindow(population.TResume, population.TEnd.Add(-24*time.Hour)); err != nil {
		return err
	}

	// 5. Final snapshot with re-resolved addresses (February 14).
	r.progressf("final snapshot")
	if d := population.TEnd.Sub(clk.Now()); d > 0 {
		if err := clk.Sleep(ctx, d); err != nil {
			return err
		}
	}
	res.SnapshotTime = clk.Now()
	var vulnDomainNames []string
	for d := range res.VulnDomains {
		vulnDomainNames = append(vulnDomainNames, d)
	}
	sort.Strings(vulnDomainNames)
	res.Snapshot = make(map[netip.Addr]core.Outcome)
	if err := r.stage(ctx, "snapshot",
		func(st *checkpoint.Stage) error {
			snapTargets := r.rig.ResolveTargets(ctx, vulnDomainNames)
			snapAddrs, snapRep := measure.UniqueAddrs(snapTargets)
			snapCampaign, err := measure.NewCampaign(r.rig, cfg.campaignConfig("s02"))
			if err != nil {
				return err
			}
			if r.store != nil {
				st.Targets = targetRows(snapTargets)
			}
			return r.measureInto(ctx, "snapshot", "s02", snapCampaign, snapAddrs, snapRep, res.Snapshot, st)
		},
		func(st *checkpoint.Stage) error {
			return checkpoint.RestoreOutcomesInto(st.Outcomes, res.Snapshot)
		}); err != nil {
		return err
	}

	// 6. Aggregate. Recomputed on every path — resumes replay raw stage
	// rows, never frozen aggregates.
	r.progressf("aggregating")
	res.Analysis = measure.Analyze(res.Rounds, targets)
	res.Notification.Finalize(res.DomainPatchedAt)
	return nil
}

// measureStage runs one measurement pass over addrs as a checkpointable
// stage, filling into keyed by address.
func (r *runner) measureStage(ctx context.Context, name, suite string, c *measure.Campaign, addrs []netip.Addr, rep map[netip.Addr]string, into map[netip.Addr]core.Outcome) error {
	return r.stage(ctx, name,
		func(st *checkpoint.Stage) error {
			return r.measureInto(ctx, name, suite, c, addrs, rep, into, st)
		},
		func(st *checkpoint.Stage) error {
			return checkpoint.RestoreOutcomesInto(st.Outcomes, into)
		})
}

// measureInto executes probes live, streaming each outcome into the
// result map, the Observe hook, the kill hook, and (when checkpointing)
// the stage payload.
func (r *runner) measureInto(ctx context.Context, name, suite string, c *measure.Campaign, addrs []netip.Addr, rep map[netip.Addr]string, into map[netip.Addr]core.Outcome, st *checkpoint.Stage) error {
	sink := &probeSink{r: r, name: name, suite: suite, into: into}
	if r.store != nil {
		sink.rows = make([]checkpoint.OutcomeRow, 0, len(addrs))
	}
	if err := c.MeasureAddrsFunc(ctx, addrs, rep, sink.observe); err != nil {
		return err
	}
	st.Outcomes = sink.rows
	return nil
}

// probeSink is the campaign's per-outcome delivery target for one
// measurement stage. A struct with a method value (rather than a
// capturing closure) keeps the per-probe path visible to the
// hotpathalloc pass.
type probeSink struct {
	r     *runner
	name  string
	suite string
	into  map[netip.Addr]core.Outcome
	rows  []checkpoint.OutcomeRow
	n     int
}

// observe runs once per probed address, on the delivery path of every
// measurement stage. The kill-point label is built only when a crash
// hook is actually installed — production runs skip the per-probe
// string work entirely.
//
//spfail:hotpath
func (s *probeSink) observe(a netip.Addr, o core.Outcome) {
	s.into[a] = o
	if s.r.store != nil {
		s.rows = append(s.rows, checkpoint.NewOutcomeRow(&o))
	}
	if s.r.cfg.Observe != nil {
		s.r.cfg.Observe(s.suite, a, o)
	}
	if s.r.cfg.Kill != nil {
		s.r.kill(s.name + ":probe:" + strconv.Itoa(s.n))
	}
	s.n++
}

// DomainPatchedAt returns the first longitudinal round time at which the
// domain measured patched (zero when it never did).
func (r *Results) DomainPatchedAt(domain string) time.Time {
	addrs := r.VulnDomains[domain]
	if len(addrs) == 0 || r.Analysis == nil {
		return time.Time{}
	}
	for i, t := range r.Analysis.Times {
		if r.Analysis.DomainStatusAt(addrs, i) == measure.DomPatched {
			return t
		}
	}
	return time.Time{}
}

// FinalDomainStatus combines the longitudinal end state with the final
// snapshot: snapshot evidence wins when conclusive (it re-resolved
// addresses and reached hosts the longitudinal probes could not — §7.2).
func (r *Results) FinalDomainStatus(domain string) measure.DomainStatus {
	addrs := r.VulnDomains[domain]
	if len(addrs) == 0 {
		return measure.DomUncertain
	}
	// Snapshot verdict.
	snapConclusive := true
	snapVulnerable := false
	for _, a := range addrs {
		o, ok := r.Snapshot[a]
		if !ok || measure.StatusOf(o) == measure.IPInconclusive {
			snapConclusive = false
			break
		}
		if measure.StatusOf(o) == measure.IPVulnerable {
			snapVulnerable = true
		}
	}
	if snapConclusive {
		if snapVulnerable {
			return measure.DomVulnerable
		}
		return measure.DomPatched
	}
	// Fall back to the last longitudinal state.
	if r.Analysis != nil && len(r.Analysis.Times) > 0 {
		return r.Analysis.DomainStatusAt(addrs, len(r.Analysis.Times)-1)
	}
	return measure.DomUncertain
}

// DomainSet returns a domain's set membership from the world.
func (r *Results) DomainSet(domain string) population.Set {
	if d := r.World.ByName[domain]; d != nil {
		return d.Sets
	}
	return 0
}
