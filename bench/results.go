package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// results is the content of bench-results.json.
type results struct {
	Seed       int64                      `json:"seed"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	RunID      string                     `json:"run_id"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	Ladder     map[string]float64         `json:"ladder,omitempty"`
	Correct    bool                       `json:"correct"`
	// Claim stays null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type workloadResult struct {
	Scale      float64            `json:"scale"`
	Runs       int                `json:"runs"`
	TracedRuns int                `json:"traced_runs"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	RawE2E     map[string]summary `json:"raw_end_to_end"`
	Ref        summary            `json:"ref"`
	PerLayer   map[string]summary `json:"per_layer,omitempty"`
	Digest     string             `json:"digest"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Correct    bool               `json:"correct"`
}

// aggregate summarizes a workload's samples: end-to-end metrics from the
// untraced runs, per-layer metrics from the traced runs, and the
// correctness gate over all of them.
func aggregate(w workload, scale float64, seed int64, samples []*sample) *workloadResult {
	wr := &workloadResult{Scale: scale, EndToEnd: map[string]summary{}, RawE2E: map[string]summary{}, PerLayer: map[string]summary{}}
	e2e, raw, layer := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var refs []float64
	digests := map[int]string{}
	untracedWall := map[int][]float64{}
	for _, s := range samples {
		wr.Attempted += s.Attempted
		wr.Failed += s.Failed
		wr.Problems = append(wr.Problems, s.Problems...)
		if d, ok := digests[s.World]; !ok {
			digests[s.World] = s.Digest
		} else if s.Digest != d {
			wr.Failed += s.Attempted
			wr.Problems = append(wr.Problems, fmt.Sprintf("world %d: digest %.12s differs from the same world's %.12s", s.World, s.Digest, d))
		}
		if s.Traced {
			wr.TracedRuns++
			for k, v := range s.Layer {
				layer[k] = append(layer[k], v)
			}
			continue
		}
		wr.Runs++
		untracedWall[s.World] = append(untracedWall[s.World], s.E2E["wall_s"])
		refs = append(refs, s.Ref)
		for k, v := range s.E2E {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range s.RawE2E {
			raw[k] = append(raw[k], v)
		}
	}
	wr.Digest = digests[0]
	if recorded, err := recordedDigests(); err != nil {
		wr.Problems = append(wr.Problems, err.Error())
	} else if want := recorded[w.Name]; seed == 1 && scale == w.Scale && want != "" && wr.Digest != want {
		wr.Failed += wr.Attempted
		wr.Problems = append(wr.Problems, fmt.Sprintf("seed-1 digest %.12s differs from the recorded %.12s", wr.Digest, want))
	}
	// Tracing overhead compares each traced run with the untraced runs of
	// the same world.
	var overhead []float64
	for _, s := range samples {
		if base := untracedWall[s.World]; s.Traced && len(base) > 0 {
			overhead = append(overhead, s.E2E["wall_s"]/median(base)-1)
		}
	}
	if wr.Attempted == 0 {
		wr.Problems = append(wr.Problems, "no operations attempted")
	}
	wr.Correct = wr.Failed == 0 && len(wr.Problems) == 0
	for _, d := range endToEnd {
		if vs := e2e[d.Name]; len(vs) > 0 {
			wr.EndToEnd[d.Name] = summarize(d.Unit, vs)
			wr.RawE2E[d.Name] = summarize(d.Unit, raw[d.Name])
		}
	}
	wr.Ref = summarize("s", refs)
	if len(overhead) > 0 {
		layer["bench.trace_overhead_frac"] = overhead
	}
	for _, d := range workloadLayers {
		if vs := layer[d.Name]; len(vs) > 0 {
			wr.PerLayer[d.Name] = summarize(d.Unit, vs)
		}
	}
	return wr
}

// printResults prints every metric by name with its unit, sample count,
// median and quartiles.
func printResults(w io.Writer, res *results) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, name := range sortedWorkloads(res) {
		wr := res.Workloads[name]
		status := "correct"
		if !wr.Correct {
			status = "INCORRECT: " + strings.Join(wr.Problems, "; ")
		}
		fmt.Fprintf(tw, "== %s (scale %g, seed %d, %d untraced + %d traced runs, %d operations, %d failed) %s\n",
			name, wr.Scale, res.Seed, wr.Runs, wr.TracedRuns, wr.Attempted, wr.Failed, status)
		fmt.Fprintf(tw, "metric\tunit\tn\tmedian\tq1\tq3\tspread\ttail\tlayer / raw median\tmoves\n")
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				d.Layer = "raw " + formatValue(wr.RawE2E[d.Name].Median)
				printSummary(tw, d, s)
			}
		}
		fmt.Fprintf(tw, "reference kernel\ts\t%d\t%s\t%s\t%s\t%.1f%%\t\t\t\n", wr.Ref.N,
			formatValue(wr.Ref.Median), formatValue(wr.Ref.Q1), formatValue(wr.Ref.Q3), 100*wr.Ref.spread())
		for _, d := range workloadLayers {
			if s, ok := wr.PerLayer[d.Name]; ok {
				printSummary(tw, d, s)
			}
		}
		fmt.Fprintf(tw, "digest\t%s\n\n", wr.Digest)
	}
	if len(res.Ladder) > 0 {
		fmt.Fprintf(tw, "== ladder (per operation; self = this rung minus the rung below)\n")
		fmt.Fprintf(tw, "rung\tunit\tmean\tp50\tp99\tallocs/op\tself\tlayer\tmoves\n")
		prev := map[string]string{
			"dnsclient.lookup_us.pipeline": "dnsclient.lookup_us.client",
			"dnsclient.lookup_us.flight":   "dnsclient.lookup_us.pipeline",
			"dnsclient.lookup_us.cache":    "dnsclient.lookup_us.flight",
			"spf.check_host_wire_us":       "dnsclient.lookup_us.cache",
			"core.testip_us":               "smtp.session_us",
		}
		for _, r := range rungSpecs {
			m := res.Ladder
			self := ""
			if below, ok := prev[r.Name]; ok {
				self = formatValue(m[r.Name] - m[below])
			}
			p50, p99 := "-", "-"
			if r.Quantiles {
				p50, p99 = formatValue(m[r.Name+".p50"]), formatValue(m[r.Name+".p99"])
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.Name, r.Unit, formatValue(m[r.Name]),
				p50, p99, formatValue(m[r.Name+".allocs_per_op"]), self, r.Layer, r.Moves)
		}
		for _, d := range ladderExtras {
			fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t%s\t%s\n", d.Name, d.Unit, formatValue(res.Ladder[d.Name]), d.Layer, d.Moves)
		}
	}
	tw.Flush()
}

// printSummary prints one metric row. The tail column is the highest
// percentile with at least ten samples beyond it, when one above the
// median exists.
func printSummary(w io.Writer, d metricDef, s summary) {
	tail := "-"
	if p := tailPercentile(s.N); p > 50 {
		tail = fmt.Sprintf("p%g=%s", p, formatValue(percentile(sorted(s.Values), p)))
	}
	fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%s\t%.1f%%\t%s\t%s\t%s\n", d.Name, s.Unit, s.N,
		formatValue(s.Median), formatValue(s.Q1), formatValue(s.Q3), 100*s.spread(), tail, d.Layer, d.Moves)
}

func sortedWorkloads(res *results) []string {
	var names []string
	for _, w := range workloads {
		if _, ok := res.Workloads[w.Name]; ok {
			names = append(names, w.Name)
		}
	}
	return names
}

// printSummaryLine prints the one-line JSON result of a single-workload
// run: the end-to-end medians, or with tracing every per-layer metric (the
// workload's medians and the ladder; 0 for a layer the workload never
// enters).
func printSummaryLine(w io.Writer, wr *workloadResult, ladder map[string]float64, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer() {
			v := ladder[d.Name]
			if s, ok := wr.PerLayer[d.Name]; ok {
				v = s.Median
			}
			metrics[d.Name] = value{v, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{wr.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// sides' medians, quartiles and counts, the change, the bound and a
// verdict, plus whether each workload's digest held. It reports whether
// any row is worse or any digest changed.
func compareFiles(w io.Writer, basePath, newPath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase median [q1, q3] n\tnew median [q1, q3] n\tdelta\tbound\tverdict\n")
	worse := false
	side := func(s summary) string {
		return fmt.Sprintf("%s [%s, %s] %d", formatValue(s.Median), formatValue(s.Q1), formatValue(s.Q3), s.N)
	}
	for _, wl := range workloads {
		name := wl.Name
		b, c := base.Workloads[name], cur.Workloads[name]
		switch {
		case b == nil && c == nil:
			continue
		case b == nil || c == nil:
			fmt.Fprintf(tw, "%s\t(all)\t\t\t\t\t\t%s\n", name, verdictUnresolved)
			continue
		}
		for _, d := range endToEnd {
			bs, ok1 := b.EndToEnd[d.Name]
			cs, ok2 := c.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			delta, v := compareMetric(bs, cs, d.Better, d.Bound)
			worse = worse || v == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", name, d.Name, d.Unit, side(bs), side(cs), 100*delta, 100*d.Bound, v)
		}
		if base.Seed == cur.Seed && b.Scale == c.Scale {
			v := verdictSame
			if b.Digest != c.Digest {
				v, worse = "changed", true
			}
			fmt.Fprintf(tw, "%s\tdigest\t\t%.12s\t%.12s\t\t\t%s\n", name, b.Digest, c.Digest, v)
		}
	}
	return worse, tw.Flush()
}
