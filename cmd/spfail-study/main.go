// Command spfail-study regenerates the paper's complete evaluation: it
// builds the synthetic Internet, runs the October-to-February measurement
// campaign on a virtual clock, performs the notification mailing, and
// prints every table and figure.
//
//	spfail-study -scale 0.05 -seed 1
//
// Scale 1.0 reproduces the paper's full population sizes (~420K domains);
// the default keeps a laptop run in the minutes range.
//
// With -checkpoint the study commits a durable segment after every stage;
// a run killed at any point — including SIGKILL — restarts with the same
// flags plus -resume and produces output byte-identical to an
// uninterrupted run (see docs/checkpoints.md):
//
//	spfail-study -scale 0.05 -checkpoint /tmp/ckpt
//	spfail-study -scale 0.05 -checkpoint /tmp/ckpt -resume
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"spfail/cmd/internal/cliflags"
	"spfail/internal/checkpoint"
	"spfail/internal/clock"
	"spfail/internal/faults"
	"spfail/internal/measure"
	"spfail/internal/obs"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/retry"
	"spfail/internal/study"
	"spfail/internal/telemetry"
)

func main() {
	def := measure.DefaultConfig()
	var (
		scale       = flag.Float64("scale", 0.02, "population scale relative to the paper")
		concurrency = flag.Int("concurrency", def.Concurrency, "max concurrent SMTP probes")
		batch       = flag.Int("batch", def.BatchSize, "probe outcomes and trace buffers held before each in-order delivery (-concurrency caps live simulated hosts)")
		interval    = flag.Duration("interval", 48*time.Hour, "longitudinal cadence (virtual)")
		ioTimeout   = flag.Duration("io-timeout", 5*time.Second, "per-probe SMTP I/O timeout (spent in real time; shrink it under fault plans)")
		faultsName  = flag.String("faults", "none", "fault-injection preset: "+strings.Join(faults.PresetNames, "|"))
		breakerN    = flag.Int("breaker", 0, "consecutive failures that open a per-address circuit breaker (0 disables)")
		ckptDir     = flag.String("checkpoint", "", "durable checkpoint store directory: commit a segment after every stage (see docs/checkpoints.md)")
		resume      = flag.Bool("resume", false, "resume an interrupted run from the -checkpoint store (same flags required)")
		killAfter   = flag.String("kill-after", "", "testing: SIGKILL this process right after the named segment commits, e.g. round-002 (requires -checkpoint)")
		csvDir      = flag.String("csv", "", "directory to write figure data as CSV (optional)")
		memBudget   = flag.String("mem-budget", "", "soft memory budget, e.g. 512MiB: sets the Go runtime's memory limit (debug.SetMemoryLimit), so the GC works harder as the process nears it")
		memHard     = flag.String("mem-budget-hard", "", "hard RSS limit, e.g. 2GiB: above it the run stops with an error instead of an OOM kill")
		verbose     = flag.Bool("v", true, "print progress to stderr")
		metricsOut  = flag.String("metrics-out", "", "write the JSON telemetry snapshot to this file (implies -metrics)")
		scenarios   = flag.String("scenarios", "", "misconfiguration scenario mix, e.g. plus-all:0.1,dangling-include:0.05 (packs: "+strings.Join(population.PackNames(), "|")+")")
	)
	common := cliflags.Register(flag.CommandLine, cliflags.Options{
		SeedDefault:  1,
		SeedUsage:    "world generation seed",
		MetricsUsage: "periodic telemetry progress lines and a JSON snapshot at exit (stderr)",
	})
	flag.Parse()
	if *metricsOut != "" {
		common.Metrics = true
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "spfail-study: -resume requires -checkpoint")
		os.Exit(2)
	}
	if *killAfter != "" && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "spfail-study: -kill-after requires -checkpoint")
		os.Exit(2)
	}

	spec := population.DefaultSpec()
	spec.Scale = *scale
	spec.Seed = common.Seed
	if *scenarios != "" {
		refs, err := population.ParseScenarioRefs(*scenarios)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spfail-study: -scenarios: %v\n", err)
			os.Exit(2)
		}
		spec.Scenarios = refs
	}

	plan, err := faults.Preset(*faultsName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spfail-study: %v\n", err)
		os.Exit(2)
	}

	cfg := study.Config{
		Config: measure.Config{
			Concurrency: *concurrency,
			BatchSize:   *batch,
			IOTimeout:   *ioTimeout,
		},
		Spec:          spec,
		Interval:      *interval,
		CheckpointDir: *ckptDir,
		Resume:        *resume,
	}
	if !plan.Empty() {
		cfg.Faults = &plan
	}
	var softLimit int64
	for _, b := range []struct {
		flag string
		val  string
		dst  *int64
	}{
		{"-mem-budget", *memBudget, &softLimit},
		{"-mem-budget-hard", *memHard, &cfg.HardRSS},
	} {
		if b.val == "" {
			continue
		}
		n, err := obs.ParseBytes(b.val)
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "spfail-study: %s: bad size %q\n", b.flag, b.val)
			os.Exit(2)
		}
		*b.dst = n
	}
	if p := common.RetryPolicy(); p.MaxAttempts > 1 {
		cfg.Retry = p
		cfg.DNSRetry = p
	}
	if *breakerN > 0 {
		cfg.Breaker = retry.BreakerConfig{Threshold: *breakerN}
	}
	if *killAfter != "" {
		point := "commit:" + *killAfter
		cfg.Kill = func(p string) bool {
			if p != point {
				return false
			}
			fmt.Fprintf(os.Stderr, "spfail-study: -kill-after: %s committed, sending SIGKILL\n", *killAfter)
			proc, err := os.FindProcess(os.Getpid())
			if err == nil {
				_ = proc.Kill()
			}
			// SIGKILL delivery is asynchronous; never resume the study.
			select {}
		}
	}
	// flushTrace runs explicitly before the trace-error check rather than
	// as a defer, so the buffered JSONL reaches disk (and surfaces write
	// errors) even though later failure paths leave through os.Exit.
	tracer, flushTrace, err := common.OpenTrace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spfail-study: %v\n", err)
		os.Exit(2)
	}
	cfg.Trace = tracer
	if *verbose {
		clk := clock.Real{}
		start := clk.Now()
		cfg.Progress = func(stage string) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", clk.Now().Sub(start).Seconds(), stage)
		}
	}

	var stopProgress func()
	if common.Metrics {
		cfg.Metrics = telemetry.New()
		stopProgress = progressLoop(cfg.Metrics, 5*time.Second)
	}
	if common.Listen != "" {
		if cfg.Metrics == nil {
			cfg.Metrics = telemetry.New()
		}
		stop := serveObservability(common, &cfg)
		defer stop()
	}

	if softLimit > 0 {
		debug.SetMemoryLimit(softLimit)
	}
	res, err := study.Run(context.Background(), cfg)
	if stopProgress != nil {
		stopProgress()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spfail-study: %v\n", err)
		os.Exit(1)
	}
	if common.Metrics {
		if err := writeMetrics(*metricsOut, res.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "spfail-study: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if err := cfg.Trace.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "spfail-study: writing trace: %v\n", err)
		os.Exit(1)
	}
	if err := flushTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "spfail-study: writing trace: %v\n", err)
		os.Exit(1)
	}

	// Flushed and checked before any later exit, so a failed or short
	// write of the report is an error, never a truncated report and exit 0.
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "SPFail reproduction — scale %.3f, seed %d\n", *scale, common.Seed)
	fmt.Fprintf(w, "domains: %s   addresses: %s   initially vulnerable: %s addrs / %s domains\n\n",
		report.Count(len(res.World.Domains)),
		report.Count(len(res.World.Hosts)),
		report.Count(len(res.VulnAddrs)),
		report.Count(len(res.VulnDomains)))
	report.All(w, res)
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "spfail-study: writing report: %v\n", err)
		os.Exit(1)
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, res); err != nil {
			fmt.Fprintf(os.Stderr, "spfail-study: writing CSVs: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figure data written to %s\n", *csvDir)
	}
	if *verbose {
		// Diagnostics only, and run-dependent — stderr, never the report.
		fmt.Fprintln(os.Stderr)
		report.ResourceTable(os.Stderr, res)
	}
}

// serveObservability starts the live endpoint (-listen): Prometheus-text
// /metrics from the study's registry, /healthz with campaign stage,
// progress, and durable checkpoint position, and net/http/pprof. It
// hooks cfg.Progress and the campaign batch events to keep the health
// view current; when a checkpoint store is configured, each /healthz
// request opens a snapshot-isolated checkpoint.Reader so the reported
// position reflects only durably committed segments.
func serveObservability(common *cliflags.Common, cfg *study.Config) (stop func()) {
	var mu sync.Mutex
	h := telemetry.Health{OK: true, Stage: "starting"}
	cfg.Metrics.OnEvent(func(ev telemetry.Event) {
		if ev.Name != "campaign.batch" {
			return
		}
		done, _ := ev.Fields["done"].(int)
		total, _ := ev.Fields["total"].(int)
		mu.Lock()
		h.Probed, h.Total = done, total
		if done == total && total > 0 {
			// One full pass over the target set = one campaign round.
			h.Round++
		}
		mu.Unlock()
	})
	prev := cfg.Progress
	cfg.Progress = func(stage string) {
		mu.Lock()
		h.Stage = stage
		mu.Unlock()
		if prev != nil {
			prev(stage)
		}
	}
	reg, dir := cfg.Metrics, cfg.CheckpointDir
	return common.Serve("spfail-study", reg, func() telemetry.Health {
		mu.Lock()
		cur := h
		mu.Unlock()
		if dir != "" {
			if r, err := checkpoint.OpenReader(dir, reg); err == nil {
				p := r.Progress()
				cur.CheckpointSegments = p.Segments
				cur.CheckpointRounds = p.Rounds
			}
		}
		return cur
	})
}

// progressLoop prints one telemetry line per tick (wall time; the study
// itself runs on a virtual clock) until the returned stop function runs.
func progressLoop(reg *telemetry.Registry, every time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for (clock.Real{}).Sleep(ctx, every) == nil {
			s := reg.Snapshot()
			lat := s.Histograms["probe.latency"]
			fmt.Fprintf(os.Stderr,
				"[metrics] probes=%d batches=%d inflight=%d (max %d) dns_queries=%d smtp_sessions=%d greylist_waits=%d probe_lat(p50/p95/p99)=%.3fs/%.3fs/%.3fs heap=%s rss=%s gc=%d goroutines=%d\n",
				s.Counters["probe.total"],
				s.Counters["campaign.batches_done"],
				s.Gauges["campaign.inflight"].Value,
				s.Gauges["campaign.inflight"].Max,
				s.Counters["dns.server.queries"],
				s.Counters["smtp.client.sessions"],
				s.Counters["probe.greylist_waits"],
				lat.P50Seconds, lat.P95Seconds, lat.P99Seconds,
				report.Bytes(s.Gauges["runtime.heap.live_bytes"].Value),
				report.Bytes(s.Gauges["runtime.mem.rss_bytes"].Value),
				s.Counters["runtime.gc.cycles"],
				s.Gauges["runtime.sched.goroutines"].Value)
		}
	}()
	return cancel
}

// writeMetrics dumps the final JSON snapshot to path, or stderr when path
// is empty.
func writeMetrics(path string, reg *telemetry.Registry) error {
	if path == "" {
		return reg.Snapshot().WriteJSON(os.Stderr)
	}
	return writeFile(path, reg.Snapshot().WriteJSON)
}

// writeFile creates path and fills it with fn. A failed Close counts as a
// failed write: it can be the first report of data that never reached
// the disk.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeCSVs exports the figures' underlying data for external plotting.
func writeCSVs(dir string, res *study.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		return writeFile(dir+"/"+name, fn)
	}
	series := map[string]population.Set{
		"fig5_all_domains.csv":   0,
		"fig7_alexa_toplist.csv": population.SetAlexaTopList,
		"fig7_2week_mx.csv":      population.SetTwoWeekMX,
		"fig8_alexa_1000.csv":    population.SetAlexa1000,
	}
	for name, set := range series {
		set := set
		if err := write(name, func(f io.Writer) error {
			return report.SeriesCSV(f, study.SetSeries(res, set))
		}); err != nil {
			return err
		}
	}
	if len(res.ScenarioStats) > 0 {
		if err := write("scenarios.csv", func(f io.Writer) error {
			return report.ScenarioCSV(f, res.ScenarioStats)
		}); err != nil {
			return err
		}
	}
	return write("fig3_choropleth.csv", func(f io.Writer) error {
		buckets, _ := study.Figure3(res, 5)
		return report.ChoroplethCSV(f, buckets)
	})
}
