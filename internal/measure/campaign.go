package measure

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
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

	// slots holds probeBatch's outcomes, one per sequence number, reused
	// across batches (entry points are serial, like probeSeq).
	slots []probeSlot
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
// each batch's outcomes are delivered by sequence number once the batch
// is done. Every address passed in is reported to fn exactly once — a
// probe that cannot complete yields a StatusInconclusive outcome rather
// than disappearing — unless ctx is cancelled or a host fails to start,
// both of which surface in the returned error. A batch whose host fails
// to start delivers nothing. Addresses must be distinct: the shard that
// starts an address's host stops it when that probe ends.
func (c *Campaign) MeasureAddrsFunc(ctx context.Context, addrs []netip.Addr, rcptDomain map[netip.Addr]string, fn func(netip.Addr, core.Outcome)) error {
	reg := c.metrics()
	// All batches of a round share one effective time, so host behaviour
	// is a function of the pass alone (determinism).
	asOf := c.Rig.Clock.Now()
	for start := 0; start < len(addrs); {
		end := start + c.cfg.BatchSize
		if end > len(addrs) {
			end = len(addrs)
		}
		batch := addrs[start:end]
		err := c.probeBatch(ctx, batch, asOf, rcptDomain, func(a netip.Addr, o core.Outcome) {
			fn(a, o)
			reg.Counter("campaign.probes_done").Inc()
		})
		if err != nil {
			return fmt.Errorf("measure: starting batch hosts [%d:%d]: %w", start, end, err)
		}
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

// probeSlot is one probe's result in its batch: the outcome, the probe's
// trace buffer (nil when untraced), so spans flush in the order outcomes
// are delivered, and the error that kept its host from starting.
type probeSlot struct {
	out core.Outcome
	buf *trace.Buffer
	err error
}

// probeBatch runs the batch on min(concurrency, len(batch)) shards, which
// claim sequence numbers from one atomic counter in ascending order. A
// shard starts the target's host right before the probe and stops it
// right after, so at most one host per shard is live, and writes the
// result into the probe's own slot — no semaphore, no other shared
// mutable state between shards. Once every shard drains, record is
// called serially in input order and trace buffers flush in that order,
// which is what keeps same-seed campaigns byte-deterministic regardless
// of how the shards interleave.
//
// A host that fails to start stops the shards from claiming more probes
// and fails the batch: probeBatch then delivers nothing and returns the
// start error of the first failing address in input order. Every address
// before a claimed one has been claimed too, so that error does not
// depend on scheduling. A host that was already running (the
// notification stage's Ensure) is probed as it is and left up.
//
// Each probe runs on its own timeline (clock.NewFrame) anchored at the
// batch's shared asOf, and carries it on its context (clock.NewContext) so
// a tarpitted dial sleeps there too. A probe's virtual timeline —
// politeness gaps, greylist waits, retry backoffs, tarpits, every traced
// span timestamp — thus depends only on the probe itself, never on how
// the batch was partitioned or sharded, and no shard sleeps on the rig's
// shared clock, whose one sleeper is the study driver. SMTP I/O deadlines
// stay on the rig clock (see core.Prober.IOClock) so the fabric spends
// exactly the configured budget.
func (c *Campaign) probeBatch(ctx context.Context, batch []netip.Addr, asOf time.Time, rcptDomain map[netip.Addr]string, record func(netip.Addr, core.Outcome)) error {
	if len(batch) == 0 {
		return nil
	}
	clk := c.Rig.Clock
	hosts := c.Rig.Manager
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
	if cap(c.slots) < len(batch) {
		c.slots = make([]probeSlot, len(batch))
	}
	slots := c.slots[:len(batch)]
	shardWork := make([]shardDelta, shards)
	labelSeed := c.labelSeed()
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go func() {
			defer wg.Done()
			inflight.Add(1)
			defer inflight.Add(-1)
			wallStart := clock.Real{}.Now()
			// One prober and one label stream serve the whole shard: probe
			// scratch (SMTP client, transaction buffers) is reused across
			// the shard's probes instead of reallocated per probe.
			stream := core.NewLabelStream(labelSeed, c.allocator())
			p := c.newProber(stream)
			for !failed.Load() {
				seq := int(next.Add(1)) - 1
				if seq >= len(batch) {
					break
				}
				a := batch[seq]
				started, err := hosts.StartHost(ctx, a, asOf)
				if err != nil {
					slots[seq].err = err
					failed.Store(true)
					break
				}
				dom := rcptDomain[a]
				if dom == "" {
					dom = "example.com"
				}
				index := probeBase + uint64(seq)
				// Per-probe deterministic labels: assignment depends only
				// on (seed, suite, probe index), never on which shard runs
				// the probe — required for byte-identical traced runs
				// (labels appear in traced DNS query names).
				stream.Reset(index)
				p.Clock = clock.NewFrame(clk, asOf)
				slots[seq].out, slots[seq].buf = c.probeOne(clock.NewContext(ctx, p.Clock), tr, p, suite, index, a, dom)
				if started {
					hosts.StopHost(a)
				}
				shardWork[s].probes++
			}
			shardWork[s].wall = clock.Real{}.Now().Sub(wallStart)
		}()
	}
	wg.Wait()
	c.stats.absorb(shardWork, c.sampler.Sample().Sub(allocMark))
	// Clearing drops outcome and buffer references, so the reused slots do
	// not pin flushed trace buffers across batches.
	defer clear(slots)
	if failed.Load() {
		// Nothing of the batch counts, the probe counter included.
		c.probeSeq = probeBase
		for i := range slots {
			if err := slots[i].err; err != nil {
				return err
			}
		}
	}
	for seq := range slots {
		record(batch[seq], slots[seq].out)
		tr.FlushBuffer(slots[seq].buf)
	}
	return nil
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
	out.EndSpan(root)
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
