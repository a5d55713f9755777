// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON report, used by CI to archive benchmark results as artifacts so the
// perf trajectory of the repository is measurable across PRs.
//
//	go test -run='^$' -bench=. -benchmem ./internal/dnsmsg | benchjson -o out.json
//
// With -baseline and -gate it additionally compares selected metrics against
// a committed baseline report and exits nonzero on regression:
//
//	... | benchjson -o BENCH_pr10.json -baseline BENCH_pr10.json \
//	        -gate 'BenchmarkDecode:allocs/op,BenchmarkEncode:allocs/op'
//
// -ns-tolerance adds an opt-in time gate on top of the alloc gate: every
// benchmark present in both reports must keep its ns/op within the given
// percentage of the baseline (e.g. -ns-tolerance 25 allows +25%). Wall
// time is only comparable between like machines, so the flag is meant for
// a pinned-runner CI lane or local before/after runs, and the tolerance
// should absorb normal scheduler noise; allocs/op stays the exact,
// machine-independent gate.
//
// -rss-gate is an absolute ceiling, not a baseline comparison: every
// benchmark that reports a peak-rss-bytes metric (via b.ReportMetric, as
// BenchmarkRuntimeSample does) must stay under the given size, accepted
// in human form ("512MiB"). It exists so the resource-observability lane
// can fail a PR whose benchmark process outgrows the memory envelope the
// ROADMAP's large-world work is budgeted against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"spfail/internal/obs"
)

// Result is one benchmark line. Metrics maps unit → value and includes
// the standard ns/op, B/op, allocs/op plus any b.ReportMetric units.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the artifact written by CI.
type Report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline report to gate against (JSON from a previous run)")
	gate := flag.String("gate", "", "comma-separated Benchmark:metric pairs that must not regress above the baseline")
	nsTol := flag.Float64("ns-tolerance", 0, "percentage by which ns/op may exceed the baseline before failing (0 disables the time gate)")
	rssGate := flag.String("rss-gate", "", "absolute peak-rss-bytes ceiling (e.g. 512MiB) applied to every benchmark reporting that metric")
	flag.Parse()

	if *nsTol < 0 {
		fmt.Fprintln(os.Stderr, "benchjson: -ns-tolerance must be >= 0")
		os.Exit(1)
	}
	var rssLimit int64
	if *rssGate != "" {
		var err error
		if rssLimit, err = obs.ParseBytes(*rssGate); err != nil || rssLimit <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: bad -rss-gate %q\n", *rssGate)
			os.Exit(1)
		}
	}

	report := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Results:   []Result{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			report.Results = append(report.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(report.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	// Load the baseline before writing: -o and -baseline may name the same
	// file (regenerate the committed artifact while gating against it).
	var base Report
	if *gate != "" || *nsTol > 0 {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -gate and -ns-tolerance require -baseline")
			os.Exit(1)
		}
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: reading baseline: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing baseline: %v\n", err)
			os.Exit(1)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	var failures []string
	if *gate != "" {
		failures = append(failures, checkGates(report, base, *gate)...)
	}
	if *nsTol > 0 {
		failures = append(failures, checkNsTolerance(report, base, *nsTol)...)
	}
	if rssLimit > 0 {
		failures = append(failures, checkRSSGate(report, rssLimit)...)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchjson: GATE FAILED: %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// checkGates compares each "Benchmark:metric" pair in spec between the
// current and baseline reports. A gate fails when the current value exceeds
// the baseline, when the benchmark or metric is missing from the current
// report, or when the pair is malformed; a pair absent from the baseline is
// skipped (first run establishes it). Additionally, every benchmark present
// in the baseline must appear in the current run — a renamed or deleted
// benchmark silently dropping out of the suite would otherwise retire its
// gate along with it.
func checkGates(cur, base Report, spec string) []string {
	index := func(r Report) map[string]map[string]float64 {
		m := make(map[string]map[string]float64, len(r.Results))
		for _, res := range r.Results {
			m[res.Name] = res.Metrics
		}
		return m
	}
	curIdx, baseIdx := index(cur), index(base)
	var failures []string
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, metric, ok := strings.Cut(pair, ":")
		if !ok {
			failures = append(failures, fmt.Sprintf("malformed gate %q (want Benchmark:metric)", pair))
			continue
		}
		curVal, ok := curIdx[name][metric]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: %s missing from current run", name, metric))
			continue
		}
		baseVal, ok := baseIdx[name][metric]
		if !ok {
			continue // no baseline yet for this pair
		}
		if curVal > baseVal {
			failures = append(failures, fmt.Sprintf("%s: %s regressed %g → %g (baseline max %g)",
				name, metric, baseVal, curVal, baseVal))
		}
	}
	// Coverage check: the current run must include every baseline
	// benchmark, gated or not, so the suite cannot silently shrink.
	for _, res := range base.Results {
		if _, ok := curIdx[res.Name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from current run", res.Name))
		}
	}
	return failures
}

// checkNsTolerance compares ns/op for every benchmark present in both
// reports and fails those whose current time exceeds the baseline by more
// than pct percent. Benchmarks absent from either side are skipped — the
// -gate coverage check is what polices suite shrinkage — as are baseline
// entries without an ns/op metric (a zero baseline would make any
// nonzero time a failure, which is noise, not signal).
func checkNsTolerance(cur, base Report, pct float64) []string {
	curNs := make(map[string]float64, len(cur.Results))
	for _, res := range cur.Results {
		if v, ok := res.Metrics["ns/op"]; ok {
			curNs[res.Name] = v
		}
	}
	var failures []string
	for _, res := range base.Results {
		baseVal, ok := res.Metrics["ns/op"]
		if !ok || baseVal <= 0 {
			continue
		}
		curVal, ok := curNs[res.Name]
		if !ok {
			continue
		}
		limit := baseVal * (1 + pct/100)
		if curVal > limit {
			failures = append(failures, fmt.Sprintf("%s: ns/op %g exceeds baseline %g by more than %g%% (limit %g)",
				res.Name, curVal, baseVal, pct, limit))
		}
	}
	return failures
}

// checkRSSGate fails every benchmark whose reported peak-rss-bytes
// metric meets or exceeds the absolute limit. Unlike the baseline gates
// this needs no prior report: the ceiling is the contract. At least one
// benchmark must report the metric — a suite that stops measuring RSS
// must not silently pass its RSS gate.
func checkRSSGate(cur Report, limit int64) []string {
	var failures []string
	seen := false
	for _, res := range cur.Results {
		v, ok := res.Metrics["peak-rss-bytes"]
		if !ok {
			continue
		}
		seen = true
		if v >= float64(limit) {
			failures = append(failures, fmt.Sprintf("%s: peak-rss-bytes %g exceeds ceiling %d", res.Name, v, limit))
		}
	}
	if !seen {
		failures = append(failures, "no benchmark reported peak-rss-bytes; -rss-gate has nothing to enforce")
	}
	return failures
}

// parseLine handles the `go test -bench` result format:
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op   0.5 custom-unit
//
// Non-benchmark lines (logs, PASS/ok trailers) report ok=false.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Name:       strings.SplitN(fields[0], "-", 2)[0],
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	// The remainder alternates value/unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
