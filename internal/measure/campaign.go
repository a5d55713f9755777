package measure

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/obs"
	"spfail/internal/retry"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// Campaign probes sets of addresses under the paper's operational
// constraints (§6.1): each distinct IP tested once per round, a hard cap
// of 250 concurrent outgoing SMTP connections, 90-second gaps between
// connections to the same server, and 8-minute greylist backoffs.
//
// Construct campaigns with NewCampaign: Config.Normalize is the single
// validation and defaulting path, and every knob — retry policy, circuit
// breaker, tracing — lives on Config.
type Campaign struct {
	Rig *Rig

	cfg      Config
	breakers *retry.Breakers

	// stats accumulates per-shard and allocation accounting for the
	// resource side table; see Resources.
	stats   campaignStats
	sampler obs.AllocSampler

	labelsOnce sync.Once
	labels     *core.LabelAllocator

	// probeSeq is the campaign-lifetime probe counter feeding deterministic
	// trace IDs and sampling decisions. Campaign measurement entry points
	// are not called concurrently (MeasureAddrsFunc delivers outcomes
	// serially), so a plain field suffices.
	probeSeq uint64

	// shardScratch holds probeBatch's per-shard outcome slices, reused
	// across batches (entry points are serial, like probeSeq).
	shardScratch [][]stampedOutcome
}

// NewCampaign builds a campaign for rig from a validated config.
func NewCampaign(rig *Rig, cfg Config) (*Campaign, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	c := &Campaign{Rig: rig, cfg: norm}
	if norm.Breaker.Enabled() {
		c.breakers = retry.NewBreakers(norm.Breaker)
	}
	return c, nil
}

func (c *Campaign) metrics() *telemetry.Registry {
	if m := c.cfg.Metrics; m != nil {
		return m
	}
	return c.Rig.Metrics
}

func (c *Campaign) tracer() *trace.Tracer {
	if t := c.cfg.Trace; t != nil {
		return t
	}
	return c.Rig.Trace
}

func (c *Campaign) suite() string { return c.cfg.Suite }

func (c *Campaign) concurrency() int { return c.cfg.Concurrency }

// labelSeed derives the label-stream seed, mixing the suite in so the
// study's s01 and s02 campaigns draw from disjoint-looking streams.
func (c *Campaign) labelSeed() int64 {
	seed := c.Rig.World.Spec.Seed ^ 0x5bf
	for _, ch := range []byte(c.suite()) {
		seed = seed*131 + int64(ch)
	}
	return seed
}

func (c *Campaign) allocator() *core.LabelAllocator {
	c.labelsOnce.Do(func() {
		c.labels = core.NewLabelAllocator(c.Rig.World.Spec.Seed ^ 0x5bf)
	})
	return c.labels
}

func (c *Campaign) newProber(labels core.LabelSource) *core.Prober {
	cfg := c.cfg
	return &core.Prober{
		Net:           c.Rig.Fabric.Host(c.Rig.ProbeIP),
		HELO:          "probe.dns-lab.org",
		Clock:         c.Rig.Clock,
		IOClock:       c.Rig.Clock,
		Zone:          c.Rig.Zone,
		Labels:        labels,
		Collector:     c.Rig.Collector,
		Classifier:    c.Rig.Classifier,
		Suite:         cfg.Suite,
		GreylistWait:  cfg.GreylistWait,
		ReconnectWait: cfg.ReconnectWait,
		IOTimeout:     cfg.IOTimeout,
		Retry:         cfg.Retry,
		Breakers:      c.breakers,
		Metrics:       c.metrics(),
	}
}

// ProbeSeq returns the campaign-lifetime probe counter — the round
// boundary hook the checkpoint layer records after each measurement
// stage. Probe indices feed trace IDs, sampling decisions, and label
// streams, so a resumed campaign must continue the sequence exactly
// where the checkpointed one stopped.
func (c *Campaign) ProbeSeq() uint64 { return c.probeSeq }

// BreakerSnapshot captures the campaign's circuit-breaker state (nil
// when breakers are disabled or untouched), sorted by key.
func (c *Campaign) BreakerSnapshot() []retry.BreakerSnapshot {
	return c.breakers.Snapshot()
}

// ResumeRound restores the round boundary state a checkpoint recorded:
// the probe counter and the breaker positions. Call it between
// measurement stages only — entry points are serial, and restoring
// mid-batch would corrupt the probe index stream.
func (c *Campaign) ResumeRound(probeSeq uint64, breakers []retry.BreakerSnapshot) {
	c.probeSeq = probeSeq
	c.breakers.Restore(breakers)
}

// MeasureAddrsFunc probes each address once, delivering outcomes to fn one
// batch at a time so callers can checkpoint incrementally instead of
// holding the full result map. fn is invoked serially (no locking needed
// inside) and in input order: probes run concurrently across shards, but
// each batch's outcomes are merged by sequence stamp before delivery.
// Every address passed in is reported to fn exactly once — a probe that
// cannot complete yields a StatusInconclusive outcome rather than
// disappearing — unless ctx is cancelled or host setup fails, both of
// which surface in the returned error.
func (c *Campaign) MeasureAddrsFunc(ctx context.Context, addrs []netip.Addr, rcptDomain map[netip.Addr]string, fn func(netip.Addr, core.Outcome)) error {
	reg := c.metrics()
	// All batches of a round share one effective time: the virtual instant a
	// later batch starts depends on scheduler interleaving, and host
	// behaviour must not (determinism).
	asOf := c.Rig.Clock.Now()
	for start := 0; start < len(addrs); {
		end := start + c.cfg.BatchSize
		if end > len(addrs) {
			end = len(addrs)
		}
		batch := addrs[start:end]
		if err := c.Rig.Manager.EnsureAt(ctx, batch, asOf); err != nil {
			return fmt.Errorf("measure: starting batch hosts [%d:%d]: %w", start, end, err)
		}
		c.probeBatch(ctx, batch, asOf, rcptDomain, func(a netip.Addr, o core.Outcome) {
			fn(a, o)
			reg.Counter("campaign.probes_done").Inc()
		})
		c.Rig.Manager.Stop(batch)
		reg.Counter("campaign.batches_done").Inc()
		reg.Emit("campaign.batch", map[string]any{
			"suite": c.suite(),
			"size":  len(batch),
			"done":  end,
			"total": len(addrs),
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// MeasureAddrs probes each address once and returns its outcome. rcptDomain
// supplies the recipient domain used for each address (typically the first
// domain that resolved to it). The results map holds whatever completed
// before the error, if any.
func (c *Campaign) MeasureAddrs(ctx context.Context, addrs []netip.Addr, rcptDomain map[netip.Addr]string) (map[netip.Addr]core.Outcome, error) {
	results := make(map[netip.Addr]core.Outcome, len(addrs))
	err := c.MeasureAddrsFunc(ctx, addrs, rcptDomain, func(a netip.Addr, o core.Outcome) {
		results[a] = o
	})
	return results, err
}

// stampedOutcome is one probe result tagged with its batch sequence number
// so per-shard slices can be merged back into input order. buf carries the
// probe's trace buffer (nil when untraced) so spans flush in the same
// merged order the outcomes are delivered in.
type stampedOutcome struct {
	seq int
	out core.Outcome
	buf *trace.Buffer
}

// probeBatch shards the batch over min(concurrency, len(batch)) worker
// loops: shard s probes sequence numbers s, s+shards, s+2·shards, …
// strictly in order, appending into its own outcome slice — no semaphore,
// no shared mutable state between workers. After every shard drains, the
// per-shard slices are merged by sequence stamp and record is called
// serially in input order, which is what keeps same-seed campaigns
// byte-deterministic regardless of how the shards interleave.
//
// When the rig runs on a simulated clock, the caller must be an accounted
// goroutine (clock.Go); the shard workers are accounted and the final wait
// yields to the virtual scheduler.
//
// Each probe runs on its own clock.Frame anchored at the batch's shared
// asOf, so a probe's virtual timeline — politeness gaps, greylist waits,
// retry backoffs, every traced span timestamp — depends only on the probe
// itself, never on how the batch was partitioned or sharded. SMTP I/O
// deadlines stay on the rig clock (see core.Prober.IOClock) so the fabric
// spends exactly the configured budget.
func (c *Campaign) probeBatch(ctx context.Context, batch []netip.Addr, asOf time.Time, rcptDomain map[netip.Addr]string, record func(netip.Addr, core.Outcome)) {
	if len(batch) == 0 {
		return
	}
	clk := c.Rig.Clock
	inflight := c.metrics().Gauge("campaign.inflight")
	tr := c.tracer()
	suite := c.suite()
	allocMark := c.sampler.Sample()
	// Probe indices within the campaign are assigned before the workers
	// start so trace IDs depend only on input order, never on scheduling.
	probeBase := c.probeSeq
	c.probeSeq += uint64(len(batch))
	shards := c.concurrency()
	if shards > len(batch) {
		shards = len(batch)
	}
	if shards < 1 {
		shards = 1
	}
	if len(c.shardScratch) < shards {
		old := c.shardScratch
		c.shardScratch = make([][]stampedOutcome, shards)
		copy(c.shardScratch, old)
	}
	results := c.shardScratch[:shards]
	shardWork := make([]shardDelta, shards)
	labelSeed := c.labelSeed()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		s := s
		results[s] = results[s][:0]
		wg.Add(1)
		clock.Go(clk, func() {
			defer wg.Done()
			inflight.Add(1)
			defer inflight.Add(-1)
			wallStart := clock.Real{}.Now()
			// One prober and one label stream serve the whole shard: probe
			// scratch (SMTP client, transaction buffers) is reused across
			// the shard's probes instead of reallocated per probe.
			stream := core.NewLabelStream(labelSeed, c.allocator())
			p := c.newProber(stream)
			for seq := s; seq < len(batch); seq += shards {
				a := batch[seq]
				dom := rcptDomain[a]
				if dom == "" {
					dom = "example.com"
				}
				index := probeBase + uint64(seq)
				// Per-probe deterministic labels: assignment depends only
				// on (seed, suite, probe index), never on how the shards
				// interleave their draws — required for byte-identical
				// traced runs (labels appear in traced DNS query names).
				stream.Reset(index)
				p.Clock = clock.NewFrame(clk, asOf)
				out, buf := c.probeOne(ctx, tr, p, suite, index, a, dom)
				results[s] = append(results[s], stampedOutcome{seq: seq, out: out, buf: buf})
				shardWork[s].probes++
			}
			shardWork[s].wall = clock.Real{}.Now().Sub(wallStart)
		})
	}
	clock.Yield(clk, wg.Wait)
	c.stats.absorb(shardWork, c.sampler.Sample().Sub(allocMark))
	// Merge by sequence stamp: shard seq%shards holds seq at index
	// seq/shards, so this walks every shard slice in lockstep. Trace
	// buffers flush here, in the same serial order, so traced runs stay
	// byte-deterministic.
	for seq := 0; seq < len(batch); seq++ {
		st := results[seq%shards][seq/shards]
		record(batch[st.seq], st.out)
		tr.FlushBuffer(st.buf)
	}
	// Drop buffer/outcome references so the reused scratch does not pin
	// flushed trace buffers across batches.
	for s := range results {
		for i := range results[s] {
			results[s][i] = stampedOutcome{}
		}
	}
}

// probeOne runs a single probe, wrapped in its trace buffer when tracing
// is enabled. The probe's root span adopts the target host for the
// duration, so MTA-side layers (SPF evaluation, the DNS server, the fault
// engine) can attribute their work to this probe by host address.
func (c *Campaign) probeOne(ctx context.Context, tr *trace.Tracer, p *core.Prober, suite string, index uint64, a netip.Addr, dom string) (core.Outcome, *trace.Buffer) {
	buf := tr.ProbeBuffer(p.Clock, suite, index)
	if buf == nil {
		return p.TestIP(ctx, probeAddr(a), dom), nil
	}
	root := buf.Root("probe",
		trace.String("suite", suite),
		trace.Int64("index", int64(index)),
		trace.String("addr", a.String()),
		trace.String("rcpt_domain", dom),
	)
	if d := c.Rig.World.ByName[dom]; d != nil && d.Scenario != "" {
		root.SetAttrs(trace.String("scenario", d.Scenario))
	}
	release := root.Adopt(a.String())
	out := p.TestIP(trace.ContextWithSpan(ctx, root), probeAddr(a), dom)
	release()
	root.SetAttrs(
		trace.String("status", string(out.Status)),
		trace.String("method", string(out.Method)),
		trace.Int("attempts", out.Attempts),
		trace.Bool("vulnerable", out.Vulnerable()),
	)
	if out.FailReason != "" {
		root.SetAttrs(trace.String("fail_reason", out.FailReason))
	}
	if out.FailStage != "" {
		root.SetAttrs(trace.String("fail_stage", out.FailStage))
	}
	if out.Err != nil {
		root.SetAttrs(trace.String("error", out.Err.Error()))
	}
	root.End()
	return out, buf
}

// probeAddr renders "ip:25" for both families.
func probeAddr(a netip.Addr) string {
	return netip.AddrPortFrom(a, 25).String()
}

// Round is one longitudinal measurement pass.
type Round struct {
	Time    time.Time
	Results map[netip.Addr]core.Outcome
}
