package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/faults"
	"spfail/internal/measure"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/retry"
	"spfail/internal/spf"
	"spfail/internal/study"
	"spfail/internal/telemetry"
)

// workload is one set of inputs the benchmark runs. Each measured
// iteration of a workload is a fresh child process.
type workload struct {
	Name  string
	Why   string
	Scale float64 // population scale relative to the paper
	run   func(ctx context.Context, it *iteration) error
}

var workloads = []workload{
	{
		Name:  "study",
		Why:   "full paper regeneration through study.Run: campaign, prober, SMTP, MTA-side SPF and the authoritative DNS server over 33 rounds",
		Scale: 0.01,
		run: func(ctx context.Context, it *iteration) error {
			r, err := it.runStudy(ctx, "study.run", studyConfig(it.seed, it.scale))
			if err != nil {
				return err
			}
			it.adopt(r)
			return nil
		},
	},
	{
		Name:  "spoof",
		Why:   "receiver-side SPF and DMARC verdicts only (SpoofSurvey): no SMTP, campaign or MTA, so a campaign-layer change must not move it",
		Scale: 0.05,
		run:   runSpoof,
	},
	{
		Name:  "faults",
		Why:   "study under injected DNS and SMTP faults: retry, backoff, breaker, fault engine and DNS TCP fallback, which the plain study never takes",
		Scale: 0.03,
		run: func(ctx context.Context, it *iteration) error {
			r, err := it.runStudy(ctx, "study.run", faultsConfig(it.seed, it.scale))
			if err != nil {
				return err
			}
			it.adopt(r)
			return nil
		},
	},
	{
		Name:  "checkpoint",
		Why:   "the study config writing a durable checkpoint store, then resuming from it: segment encode, fsync and replay costs show only here",
		Scale: 0.01,
		run:   runCheckpoint,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// studyConfig is spfail-study's default configuration (batches of 2000
// hosts, a 5 s I/O timeout, the 48 h longitudinal cadence) with 64
// concurrent probes instead of the paper's 250. At 250 the fabric's
// 64-slot UDP inbox of the DNS server overflows, and every dropped
// datagram costs its sender a 1 s retransmit timeout in wall time, which
// makes wall time bimodal run to run (see README.md).
func studyConfig(seed int64, scale float64) study.Config {
	spec := population.DefaultSpec()
	spec.Seed = seed
	spec.Scale = scale
	return study.Config{
		Config:   measure.Config{Concurrency: 64, BatchSize: 2000, IOTimeout: 5 * time.Second},
		Spec:     spec,
		Interval: 48 * time.Hour,
	}
}

// faultsConfig is the configuration of the repository's faulty
// determinism regression: SERVFAIL bursts, truncation, refused and reset
// connections and SMTP tarpits, with probe and DNS retries and a circuit
// breaker. It leaves out drop-udp and smtp-blackhole, which wait out I/O
// timeouts in real time.
func faultsConfig(seed int64, scale float64) study.Config {
	spec := population.DefaultSpec()
	spec.Seed = seed
	spec.Scale = scale
	plan := faults.Plan{Rules: []faults.Rule{
		{Kind: faults.KindDNSServfail, Burst: 2},
		{Kind: faults.KindDNSTruncate, Rate: 0.2},
		{Kind: faults.KindConnRefuse, Rate: 0.15},
		{Kind: faults.KindConnReset, Rate: 0.1, ResetAfter: 64},
		{Kind: faults.KindSMTPTarpit, Rate: 0.25, Delay: 20 * time.Second},
	}}
	return study.Config{
		Config: measure.Config{
			Concurrency: 64,
			BatchSize:   400,
			IOTimeout:   2 * time.Second,
			Retry:       retry.Policy{MaxAttempts: 3, BaseDelay: 30 * time.Second, Jitter: 0.2},
			Breaker:     retry.BreakerConfig{Threshold: 4},
		},
		Spec:     spec,
		Interval: 96 * time.Hour,
		DNSRetry: retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Second, Jitter: 0.2},
		Faults:   &plan,
	}
}

// spoofSpec is a world carrying all nine scenario packs at 8% each.
func spoofSpec(seed int64, scale float64) population.Spec {
	spec := population.DefaultSpec()
	spec.Seed = seed
	spec.Scale = scale
	for _, name := range population.PackNames() {
		spec.Scenarios = append(spec.Scenarios, population.ScenarioPackRef{Name: name, Weight: 0.08})
	}
	return spec
}

// sample is what one iteration reports to the parent process.
type sample struct {
	World     int                `json:"world"`
	Traced    bool               `json:"traced"`
	E2E       map[string]float64 `json:"e2e"`
	RawE2E    map[string]float64 `json:"raw_e2e,omitempty"`
	Ref       float64            `json:"ref,omitempty"`
	Layer     map[string]float64 `json:"layer"`
	Items     int64              `json:"items"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// iteration is one measured execution of a workload.
type iteration struct {
	seed  int64
	scale float64
	tmp   string
	rec   *recorder
	root  int
	out   *sample

	// Set by the workload: when set-up ended (the first Progress call, or
	// the rig being up), the CPU time then, and probes that ended
	// inconclusive.
	setupEnd     time.Time
	setupCPU     time.Duration
	inconclusive int64
}

// runIteration executes one iteration of w in this process and measures
// it from outside: wall and CPU time, peak RSS, heap allocation, and the
// runtime's GC and scheduler histograms.
func runIteration(ctx context.Context, w workload, seed int64, scale float64, traced bool, tmp string) (*sample, error) {
	it := &iteration{
		seed: seed, scale: scale, tmp: tmp,
		rec: &recorder{on: traced},
		out: &sample{Traced: traced, Layer: map[string]float64{}},
	}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	it.root = it.rec.start(w.Name, 0, start)
	if err := w.run(ctx, it); err != nil {
		return nil, err
	}
	end := time.Now()
	cpu := cpuTime()
	rt1 := readRuntime()
	it.rec.finish(it.root, end, map[string]any{"seed": seed, "scale": scale})
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	s := it.out
	wall, setup := end.Sub(start), it.setupEnd.Sub(start)
	s.E2E = map[string]float64{
		"wall_s":       wall.Seconds(),
		"setup_s":      setup.Seconds(),
		"cpu_s":        (cpu - cpu0).Seconds(),
		"peak_rss_mib": rss,
		"alloc_mib":    float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20),
		"items_per_s":  float64(s.Items) / (wall - setup).Seconds(),
	}
	busy := (cpu - it.setupCPU).Seconds()
	s.Layer["run.idle_frac"] = 1 - busy/(end.Sub(it.setupEnd).Seconds()*float64(runtime.GOMAXPROCS(0)))
	s.Layer["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	s.Layer["runtime.gc_pause_p99_ms"] = histQuantile(rt1.pauses, 0.99) * 1e3
	s.Layer["runtime.sched_latency_p99_us"] = histQuantile(rt1.sched, 0.99) * 1e6
	if s.Attempted > 0 {
		s.Layer["run.fail_frac"] = float64(s.Failed+it.inconclusive) / float64(s.Attempted)
	}
	s.Spans = it.rec.spans
	return s, nil
}

// atMachineSpeed rescales the sample's timings from the machine speed of
// the moment, read as ref (the reference kernel's time around the
// iteration), to the speed at which the kernel takes refNominal. The
// machine's speed drifts by tens of percent over minutes when its
// neighbours are busy; the raw timings are kept in RawE2E.
func (s *sample) atMachineSpeed(ref float64) {
	f := refNominal / ref
	s.Ref = ref
	s.RawE2E = make(map[string]float64, len(s.E2E))
	for k, v := range s.E2E {
		s.RawE2E[k] = v
	}
	for _, k := range []string{"wall_s", "setup_s", "cpu_s"} {
		s.E2E[k] *= f
	}
	s.E2E["items_per_s"] /= f
}

// markSetup records the end of set-up the first time it is called.
func (it *iteration) markSetup(at time.Time) {
	if it.setupEnd.IsZero() {
		it.setupEnd = at
		it.setupCPU = cpuTime()
	}
}

func (it *iteration) fail(n int64, format string, args ...any) {
	it.out.Failed += n
	it.out.Problems = append(it.out.Problems, fmt.Sprintf(format, args...))
}

// adopt takes a study run's outputs as the iteration's result.
func (it *iteration) adopt(r *studyRun) {
	it.out.Digest = r.digest
	it.out.Items = r.hooks.observed
	it.inconclusive += r.hooks.inconclusive
	it.checkPasses(r)
	r.layers(it.out.Layer)
}

// studyRun is one study.Run call with the harness's hooks attached.
type studyRun struct {
	res    *study.Results
	reg    *telemetry.Registry
	hooks  *studyHooks
	wall   time.Duration
	digest string
}

// runStudy calls study.Run with Progress, Observe and a telemetry registry
// whose campaign.batch events the harness times. The report's SHA-256 is
// the run's digest.
func (it *iteration) runStudy(ctx context.Context, name string, cfg study.Config) (*studyRun, error) {
	start := time.Now()
	sp := it.rec.start(name, it.root, start)
	h := &studyHooks{it: it, parent: sp, cur: map[string]map[netip.Addr]int{}, passes: map[string][]map[netip.Addr]int{}}
	h.setupSpan = it.rec.start("setup", sp, start)
	reg := telemetry.New()
	reg.OnEvent(h.event)
	cfg.Metrics = reg
	cfg.Progress = h.progress
	cfg.Observe = h.observe
	res, err := study.Run(ctx, cfg)
	end := time.Now()
	h.close(end)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var buf bytes.Buffer
	report.All(&buf, res)
	r := &studyRun{res: res, reg: reg, hooks: h, wall: end.Sub(start), digest: digest(buf.Bytes())}
	it.rec.finish(sp, time.Now(), map[string]any{"digest": r.digest, "probes": h.observed})
	return r, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// studyHooks receives the study's Progress, Observe and campaign.batch
// callbacks. They all arrive on the goroutine that runs the study; the mutex
// only guards against that changing.
type studyHooks struct {
	it        *iteration
	parent    int
	setupSpan int

	mu           sync.Mutex
	phase        int
	phaseStart   time.Time
	phaseCPU     time.Duration
	waveStart    time.Time
	waves        []float64
	cur          map[string]map[netip.Addr]int   // open measurement pass per suite
	passes       map[string][]map[netip.Addr]int // closed passes per suite
	setupDone    bool
	observed     int64
	inconclusive int64
}

func (h *studyHooks) progress(stage string) {
	now, cpu := time.Now(), cpuTime()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.setupDone {
		h.it.markSetup(now)
		h.it.rec.finish(h.setupSpan, now, nil)
		h.setupDone = true
	}
	h.closePhase(now, cpu)
	name, _, _ := strings.Cut(stage, " of ")
	h.phase = h.it.rec.start("phase."+strings.ReplaceAll(name, " ", "_"), h.parent, now)
	h.phaseStart, h.phaseCPU, h.waveStart = now, cpu, now
}

// closePhase ends the open Progress phase span, recording its CPU and
// idle share: 1 - cpu / (wall * GOMAXPROCS).
func (h *studyHooks) closePhase(now time.Time, cpu time.Duration) {
	if h.phaseStart.IsZero() {
		return
	}
	wall := now.Sub(h.phaseStart).Seconds()
	busy := (cpu - h.phaseCPU).Seconds()
	attrs := map[string]any{"wall_s": wall, "cpu_s": busy}
	if wall > 0 {
		attrs["idle_frac"] = 1 - busy/(wall*float64(runtime.GOMAXPROCS(0)))
	}
	h.it.rec.finish(h.phase, now, attrs)
	h.phaseStart = time.Time{}
}

func (h *studyHooks) close(end time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closePhase(end, cpuTime())
}

func (h *studyHooks) observe(suite string, a netip.Addr, out core.Outcome) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.cur[suite]
	if m == nil {
		m = map[netip.Addr]int{}
		h.cur[suite] = m
	}
	m[a]++
	h.observed++
	if out.Status == core.StatusInconclusive {
		h.inconclusive++
	}
}

// event times each campaign.batch wave and closes a measurement pass when
// its last batch lands (done == total).
func (h *studyHooks) event(ev telemetry.Event) {
	if ev.Name != "campaign.batch" {
		return
	}
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	suite, _ := ev.Fields["suite"].(string)
	done, _ := ev.Fields["done"].(int)
	total, _ := ev.Fields["total"].(int)
	wave := h.it.rec.start("campaign.batch", h.phase, h.waveStart)
	h.it.rec.finish(wave, now, map[string]any{"suite": suite, "size": ev.Fields["size"], "done": done, "total": total})
	h.waves = append(h.waves, now.Sub(h.waveStart).Seconds())
	h.waveStart = now
	if done == total {
		h.passes[suite] = append(h.passes[suite], h.cur[suite])
		delete(h.cur, suite)
	}
}

// checkPasses is the correctness gate for a study run: every measurement
// pass must report exactly one Observe outcome per address it was given,
// the initial pass and every longitudinal round under s01, the final
// snapshot under s02.
func (it *iteration) checkPasses(r *studyRun) {
	res, h := r.res, r.hooks
	addrs, _ := measure.UniqueAddrs(res.Targets)
	targets := append(append([]netip.Addr(nil), res.VulnAddrs...), res.RetryAddrs...)
	var s01 [][]netip.Addr
	if len(addrs) > 0 {
		s01 = append(s01, addrs)
	}
	if len(targets) > 0 {
		for range res.Rounds {
			s01 = append(s01, targets)
		}
	}
	var s02 [][]netip.Addr
	if len(res.Snapshot) > 0 {
		snap := make([]netip.Addr, 0, len(res.Snapshot))
		for a := range res.Snapshot {
			snap = append(snap, a)
		}
		s02 = append(s02, snap)
	}
	for _, want := range []struct {
		suite  string
		passes [][]netip.Addr
	}{{"s01", s01}, {"s02", s02}} {
		got := h.passes[want.suite]
		for i, addrs := range want.passes {
			it.out.Attempted += int64(len(addrs))
			var pass map[netip.Addr]int
			if i < len(got) {
				pass = got[i]
			}
			it.comparePass(fmt.Sprintf("%s pass %d", want.suite, i), addrs, pass)
		}
		for i := len(want.passes); i < len(got); i++ {
			it.fail(int64(len(got[i])), "%s: unexpected pass %d with %d outcomes", want.suite, i, len(got[i]))
		}
	}
	for suite, open := range h.cur {
		it.fail(int64(len(open)), "%s: %d outcomes outside any completed pass", suite, len(open))
	}
}

func (it *iteration) comparePass(label string, want []netip.Addr, got map[netip.Addr]int) {
	var missing, dup, extra int64
	in := make(map[netip.Addr]bool, len(want))
	for _, a := range want {
		in[a] = true
		switch c := got[a]; {
		case c == 0:
			missing++
		case c > 1:
			dup += int64(c - 1)
		}
	}
	for a, c := range got {
		if !in[a] {
			extra += int64(c)
		}
	}
	if n := missing + dup + extra; n > 0 {
		it.fail(n, "%s: %d missing, %d duplicate, %d unexpected outcomes", label, missing, dup, extra)
	}
}

// layers fills the per-layer metrics a study run exposes through its
// result structs and the harness's registry.
func (r *studyRun) layers(m map[string]float64) {
	snap := r.reg.Snapshot()
	c := snap.Counters
	var resolve, initial, rounds, snapshot time.Duration
	var growth []float64
	for _, sr := range r.res.Resources {
		switch {
		case sr.Stage == "resolve":
			resolve += sr.Wall
		case sr.Stage == "initial":
			initial += sr.Wall
		case strings.HasPrefix(sr.Stage, "round-"):
			rounds += sr.Wall
			growth = append(growth, float64(sr.HeapGrowth)/(1<<20))
		case sr.Stage == "snapshot":
			snapshot += sr.Wall
		}
	}
	share := func(d time.Duration) float64 { return d.Seconds() / r.wall.Seconds() }
	m["study.resolve_frac"] = share(resolve)
	m["study.initial_frac"] = share(initial)
	m["study.rounds_frac"] = share(rounds)
	m["study.snapshot_frac"] = share(snapshot)
	if len(growth) > 0 {
		m["study.round_heap_growth_mib"] = median(growth)
	}
	if p50 := median(r.hooks.waves); p50 > 0 {
		m["campaign.wave_max_over_p50"] = sorted(r.hooks.waves)[len(r.hooks.waves)-1] / p50
	}
	cr := r.res.CampaignResources
	var busy []float64
	var probes int64
	for _, sh := range cr.Shards {
		busy = append(busy, sh.Wall.Seconds())
		probes += sh.Probes
	}
	if med := median(busy); med > 0 {
		m["campaign.shard_busy_max_over_median"] = sorted(busy)[len(busy)-1] / med
	}
	if probes > 0 {
		m["campaign.alloc_kib_per_probe"] = float64(cr.AllocBytes) / 1024 / float64(probes)
	}
	if total := c["probe.total"]; total > 0 {
		m["probe.transactions_per_probe"] = float64(c["probe.transactions"]) / float64(total)
		m["smtp.sessions_per_probe"] = float64(c["smtp.client.sessions"]) / float64(total)
	}
	for _, name := range []string{"probe.retries", "probe.retry_exhausted", "probe.breaker_skips",
		"dns.client.retries", "dns.client.tcp_fallbacks", "dns.client.failures", "checkpoint.store.bytes"} {
		m[name] = float64(c[name])
	}
	m["checkpoint.bytes"] = m["checkpoint.store.bytes"]
	delete(m, "checkpoint.store.bytes")
	var injected int64
	for name, v := range c {
		if strings.HasPrefix(name, "faults.injected.") {
			injected += v
		}
	}
	m["faults.injected"] = float64(injected)
	serverLayers(m, c, r.hooks.observed)
}

// serverLayers derives the authoritative server's per-item query load and
// its template fast-path share.
func serverLayers(m map[string]float64, c map[string]int64, items int64) {
	q := c["dns.server.queries"]
	if items > 0 {
		m["dns.server.queries_per_item"] = float64(q) / float64(items)
	}
	if q > 0 {
		m["dnsserver.template_hit_ratio"] = float64(c["dns.server.template_hits"]) / float64(q)
	}
}

// runSpoof generates a scenario world, starts a rig on the real clock and
// judges every domain with measure.SpoofSurvey. The ScenarioCSV of the
// verdicts is the digest; there must be exactly one verdict per domain, in
// world order.
func runSpoof(ctx context.Context, it *iteration) error {
	start := time.Now()
	setup := it.rec.start("setup", it.root, start)
	gen := it.rec.start("population.Generate", setup, start)
	world, err := population.Generate(spoofSpec(it.seed, it.scale))
	if err != nil {
		return err
	}
	t := time.Now()
	it.rec.finish(gen, t, map[string]any{"domains": len(world.Domains)})
	rigSpan := it.rec.start("rig.start", setup, t)
	reg := telemetry.New()
	rig, err := measure.NewRigFromOptions(ctx, measure.RigOptions{World: world, Clock: clock.Real{}, Metrics: reg})
	if err != nil {
		return err
	}
	t = time.Now()
	it.rec.finish(rigSpan, t, nil)
	it.rec.finish(setup, t, nil)
	it.markSetup(t)

	survey := it.rec.start("phase.spoofing_verdict_survey", it.root, t)
	verdicts := (&measure.SpoofSurvey{Rig: rig}).Run(ctx)
	rig.Close()
	var buf bytes.Buffer
	if err := report.ScenarioCSV(&buf, measure.ScenarioStats(verdicts)); err != nil {
		return err
	}
	it.out.Digest = digest(buf.Bytes())
	cpuEnd := cpuTime()
	it.rec.finish(survey, time.Now(), map[string]any{"verdicts": len(verdicts), "cpu_s": (cpuEnd - it.setupCPU).Seconds()})

	it.out.Items = int64(len(verdicts))
	it.out.Attempted = int64(len(world.Domains))
	if len(verdicts) != len(world.Domains) {
		it.fail(int64(abs(len(world.Domains)-len(verdicts))), "spoof: %d verdicts for %d domains", len(verdicts), len(world.Domains))
	}
	var misplaced int64
	for i, v := range verdicts {
		if i >= len(world.Domains) || v.Domain != world.Domains[i].Name {
			misplaced++
		}
		if v.SPF == spf.ResultTempError {
			it.inconclusive++
		}
	}
	if misplaced > 0 {
		it.fail(misplaced, "spoof: %d verdicts out of world order", misplaced)
	}
	serverLayers(it.out.Layer, reg.Snapshot().Counters, it.out.Items)
	return nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// runCheckpoint runs the study config with a fresh checkpoint store, then
// resumes from the complete store. The resume must replay every stage
// (no probe executes) and reproduce the write run's report.
func runCheckpoint(ctx context.Context, it *iteration) error {
	dir, err := os.MkdirTemp(it.tmp, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := studyConfig(it.seed, it.scale)
	cfg.CheckpointDir = dir
	w, err := it.runStudy(ctx, "checkpoint.write", cfg)
	if err != nil {
		return err
	}
	it.adopt(w)
	cfg.Resume = true
	r, err := it.runStudy(ctx, "checkpoint.resume", cfg)
	if err != nil {
		return err
	}
	if r.digest != w.digest {
		it.fail(it.out.Items, "checkpoint: resume digest %s differs from write digest %s", r.digest[:12], w.digest[:12])
	}
	if n := r.hooks.observed; n > 0 {
		it.fail(n, "checkpoint: resume re-probed %d addresses instead of replaying", n)
	}
	it.out.Layer["checkpoint.resume_frac"] = r.wall.Seconds() / w.wall.Seconds()
	return nil
}
